"""README.md's examples: its Python block runs, and its standard sweeps are the ones the CLI tests run."""

import re
import subprocess
import sys
from pathlib import Path

from test_cli import README_SWEEPS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def test_python_example_runs():
    (block,) = _blocks("python")
    result = subprocess.run([sys.executable, "-c", block], capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()


def test_standard_sweeps_are_the_cli_tests_sweeps():
    # every one-line `boxforce ... --output FILE` command, less its --output
    commands = re.findall(r"^boxforce (.*) --output \S+$", "\n".join(_blocks("sh")), flags=re.MULTILINE)
    assert [" ".join(command.split()) for command in commands] == README_SWEEPS
