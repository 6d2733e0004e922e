"""Print the tensor-square report of every fixture class of 2 to 36
reflections, one JSON line each, so that two checkouts can be compared with
diff:

    python tools/square_reports.py > before.txt    (in one checkout)
    python tools/square_reports.py > after.txt     (in the other)
    diff before.txt after.txt

Each line holds the group, the class index, the point m0 and the report of
`tensor_square_check` at m0, the first point from 7 up that the tensor suite
of `crg verify` admits.  The groups are those of the shipped tables fixture
that have a construction, in fixture order, on the crg under src/ next to
this script.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crg.cli import _first_admissible, build_group, data_dir, parse_group
from crg.groups import Refused
from crg.rep import build_rep
from crg.tensor import _SQUARE_CLASS_LIMIT, tensor_square_check


def group_names() -> list[str]:
    rows = json.loads((data_dir() / "tables.json").read_text())
    return list(dict.fromkeys(row["group"] for row in rows))


def main() -> None:
    for name in group_names():
        try:
            bundle = build_rep(build_group(parse_group(name)))
        except Refused:
            continue
        for c, members in enumerate(bundle.group.classes):
            if not 2 <= len(members) <= _SQUARE_CLASS_LIMIT:
                continue
            m0 = _first_admissible(bundle, c, 7)
            report = tensor_square_check(bundle, c, m0)
            print(json.dumps({"group": name, "class": c, "m0": str(m0), "report": report}), flush=True)


if __name__ == "__main__":
    main()
