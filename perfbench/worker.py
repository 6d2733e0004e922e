"""One pass of one workload in a fresh interpreter.

Run by `run.py`; prints one JSON line. `ready` is the `time.perf_counter()`
reading (system-wide on Linux) taken once `crg` and `crg.cli` are imported
and the inputs are generated, so the parent can time set-up from before it
started this process.

    python3 perfbench/worker.py --workload tables --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import crg  # noqa: F401
    import crg.cli  # noqa: F401

    from tracer import NullTracer, Tracer, layer_metrics
    from workloads import Executor, job_label, load_fixture, make_jobs

    fixture = load_fixture(ROOT)
    jobs = make_jobs(args.workload, args.seed, fixture)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer() if args.trace else NullTracer()
    executor = Executor(tracer, fixture)
    ops = []
    dims = []
    first = time.perf_counter()
    for job in jobs:
        start = time.perf_counter()
        try:
            ok, detail = executor.run(job)
        except Exception as exc:  # an exception is a failed operation, not a crash
            ok, detail = False, repr(exc)
        seconds = time.perf_counter() - start
        ops.append([seconds, ok is True] + ([] if ok is True else [job_label(job), detail]))
        if job["op"] == "algebra":
            dims.append([job_label(job), detail])
    wall_s = time.perf_counter() - first

    result = {
        "ready": ready,
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "algebra_dims": dims,
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer.spans, wall_s)
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
