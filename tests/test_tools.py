"""The fixture writer in tools/ reproduces the shipped fixture."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_make_tables_fixture_writes_the_shipped_fixture(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_tables_fixture", ROOT / "tools" / "make_tables_fixture.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.OUT = tmp_path / "tables.json"
    tool.main()
    assert "wrote 113 rows" in capsys.readouterr().out
    shipped = ROOT / "src" / "crg" / "data" / "tables.json"
    assert tool.OUT.read_bytes() == shipped.read_bytes()
