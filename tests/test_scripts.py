"""The documented scripts print exactly their recorded output.

Each script's `main()` runs in-process; `script_stdout/<name>.txt` holds
its standard output.
"""
import importlib.util
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"


@pytest.mark.parametrize("name", ["audit_presets", "demo_combined_basis"])
def test_stdout_matches_record(capsys, name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    assert capsys.readouterr().out == (TESTS / "script_stdout" / f"{name}.txt").read_text()
