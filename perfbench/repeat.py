"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload identities --seeds 1-10 --out runs.json

For each workload and metric this reports the median of the runs and the
distance between their first and third quartiles (`statistics.quantiles`
with n=4) as a share of the median: the spread that each end-to-end
metric's bound in BENCHMARK.json has to cover.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": None, "q3": None, "spread": None, "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    summary = {}
    for workload in args.workload:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "result": result, "record": json.loads(lines[-2])})
            print(workload, seed, {k: round(m["value"], 4) for k, m in result["metrics"].items()},
                  "failed", result["failed"], flush=True)
        names = runs[0]["result"]["metrics"]
        summary[workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "metrics": {
                name: spread([r["result"]["metrics"][name]["value"] for r in runs])
                for name in names
            },
            "runs": runs,
        }
        for name, s in summary[workload]["metrics"].items():
            rel = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload}  {name}: median {s['median']:.6g}  spread {rel}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
