"""The scripts in tools/: the fixture writer reproduces the shipped fixture,
and the CLI snapshot prints each command's output and exit code."""

import importlib.util
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
