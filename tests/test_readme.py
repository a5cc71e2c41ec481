"""The README's code samples run as printed."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _console_sessions():
    """Each `$ tinytt ...` command of the console block with its output."""
    block = re.search(r"```console\n(.*?)```", README.read_text(), re.S).group(1)
    for session in block.strip().split("\n\n"):
        command, *output = session.split("\n")
        yield command.removeprefix("$ "), output


def _library_snippet() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_snippet_runs():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(_library_snippet(), "README.md", "exec"), {})
    assert printed.getvalue() == "succ (succ zero)\n"


def test_the_library_snippet_compiles_nothing():
    # Its `Signature` starts cold, as a `tinytt check` run's does, and a
    # cheap computation leaves it cold, never importing the compiler.
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(_library_snippet(), "README.md", "exec"), namespace)
    assert not namespace["sig"].hot and not namespace["sig"].code
    code = _library_snippet() + "import sys\nsys.exit('tinytt.codegen' in sys.modules)\n"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "succ (succ zero)\n", "")


@pytest.mark.parametrize("command,output", list(_console_sessions()))
def test_console_block_runs_as_printed(command, output):
    argv = shlex.split(command)
    assert argv[0] == "tinytt"
    result = subprocess.run([sys.executable, "-m", "tinytt.cli", *argv[1:]],
                            cwd=ROOT, capture_output=True, text=True)
    printed = "".join(line + "\n" for line in output)
    if ": error[" in printed:
        assert (result.returncode, result.stdout, result.stderr) == (1, "", printed)
    else:
        assert (result.returncode, result.stdout, result.stderr) == (0, printed, "")
