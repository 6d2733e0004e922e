"""The scripts in tools/: the fixture writer reproduces the shipped fixture,
the CLI snapshot prints each command's output and exit code, and the square
reports print one JSON line per class."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_make_tables_fixture_writes_the_shipped_fixture(tmp_path, capsys):
    tool = _load("make_tables_fixture")
    tool.OUT = tmp_path / "tables.json"
    tool.main()
    assert "wrote 113 rows" in capsys.readouterr().out
    shipped = ROOT / "src" / "crg" / "data" / "tables.json"
    assert tool.OUT.read_bytes() == shipped.read_bytes()


def test_cli_snapshot_prints_output_and_exit_code(capsys):
    tool = _load("cli_snapshot")
    tool.commands = lambda: [["list-groups"]]
    tool.main()
    out = capsys.readouterr().out
    assert out.startswith("$ crg list-groups\nseries: G(e,e,r) and G(2e,e,r)\n")
    assert out.endswith("\nexit 0\n\n") and out.count("$ crg") == 1


def test_square_reports_print_one_line_per_class(capsys):
    tool = _load("square_reports")
    tool.group_names = lambda: ["A3"]
    tool.main()
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line) for line in lines] == [
        {
            "group": "A3",
            "class": 0,
            "m0": "7",
            "report": {
                "class_size": 6,
                "skipped": False,
                "wedge_dim": 15,
                "wedge_algebra": 225,
                "wedge_route": "norton",
                "sym_dim": 21,
                "sym_algebra": 441,
                "sym_route": "norton",
                "ok": True,
            },
        }
    ]
