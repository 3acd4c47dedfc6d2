"""The documented scripts print exactly their recorded output, and the
README's examples do what it says.

Each script's `main()` runs in-process; `script_stdout/<name>.txt` holds
its standard output.
"""
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

from meetlogic import cli

TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"
README = (TESTS.parent / "README.md").read_text()


@pytest.mark.parametrize("name", ["audit_presets", "demo_combined_basis"])
def test_stdout_matches_record(capsys, name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    assert capsys.readouterr().out == (TESTS / "script_stdout" / f"{name}.txt").read_text()


def test_readme_python_example():
    """The README's Python block runs; its `assert` checks the derivation."""
    (block,) = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_exit_codes():
    """Each README command line annotated `# exit N` exits with N."""
    lines = re.findall(r"^meetlogic (.*?)\s+# exit (\d)$", README, re.M)
    assert len(lines) >= 3
    for argv, code in lines:
        assert cli.main(shlex.split(argv)) == int(code), argv
