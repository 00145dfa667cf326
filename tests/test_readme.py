"""The README's quick example runs as written and prints what it claims, and
every line of its command-line block exits 0."""

import contextlib
import io
import re
from pathlib import Path

from pharmonic.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_example_runs_as_written():
    block = re.search(r"Quick example:\s*```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quick example", "exec"), {})
    top, below = (float(value) for value in out.getvalue().split())
    assert top < 1e-8  # L^3 f vanishes: f is triharmonic
    assert below > 1e-3  # L^2 f does not: properly so


def test_readme_command_lines_run_and_pass():
    block = re.search(r"## Command-line harness\s*```\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    assert len(lines) == 6
    for line in lines:
        program, *argv = line.split()
        assert program == "pharmonic"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == 0, line
