"""Print the output and exit code of a fixed list of crg commands, with elapsed
times masked, so that two checkouts can be compared with diff:

    python tools/cli_snapshot.py > before.txt    (in one checkout)
    python tools/cli_snapshot.py > after.txt     (in the other)
    diff before.txt after.txt

Each command runs in-process through crg.cli.main, on the crg under src/ next
to this script.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crg.cli import data_dir, main as crg_main

ELAPSED = re.compile(r"\(\d+\.\d{3}s\)")


def commands() -> list[list[str]]:
    groups = dict.fromkeys(row["group"] for row in json.loads((data_dir() / "tables.json").read_text()))
    return [
        *(["tables", "--which", which] for which in ("1", "2", "prop81")),
        *(["discriminants", "--group", group, "--format", "json"] for group in groups),
        *(["verify", "--group", group, "--suite", "all"] for group in ("A3", "B3", "I2(5)", "G(3,3,4)", "G24")),
        *(["verify", "--group", group, "--suite", "tensor"] for group in ("G(9,9,3)", "E6", "G(13,13,3)")),
        # codim2_flats and parabolic_reflections on the two largest root systems
        *(["verify", "--group", group, "--suite", "parabolic"] for group in ("E7", "H4")),
        # and on a rank-2 group of a large conductor and a series group of rank 3
        ["verify", "--group", "I2(31)", "--suite", "core"],
        ["verify", "--group", "G(13,13,3)", "--suite", "parabolic"],
        ["verify", "--group", "I2(9)", "--suite", "dihedral"],
        # integrability's orbit walk over E8's 10,920 (flat, x) pairs, and
        # dense products on I2(199)'s 199 reflections
        ["verify", "--group", "E8", "--suite", "core"],
        ["verify", "--group", "I2(199)", "--suite", "spectral"],
        # a group with one reflection and no codimension-2 flats
        ["verify", "--group", "A1", "--suite", "all"],
        ["discriminants", "--group", "I2(199)", "--format", "json"],
        ["conjecture"],
        ["list-groups"],
    ]


def main() -> None:
    for argv in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = crg_main(argv)
        print(f"$ crg {' '.join(argv)}\n{ELAPSED.sub('(#.###s)', out.getvalue())}exit {code}\n")


if __name__ == "__main__":
    main()
