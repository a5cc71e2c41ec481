"""The README's code samples run as printed, and its fuel table holds."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import made_by_run, spent
from tinytt.cli import RunConfig, run
from tinytt.kernel import FlagSet
from tinytt.surface import Definition, parse

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


def _fuel_table() -> dict[str, int]:
    """The corpus section's table of the fuel each item of `russell.tt` spends."""
    section = README.read_text().split("## The corpus", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (\d+) \|$", section, re.M)
    return {item: int(fuel) for item, fuel in rows}


@pytest.mark.parametrize("fuel", [376, 1000, 1001, 100_000])
def test_the_fuel_table_is_what_each_item_spends(monkeypatch, fuel):
    # `russell.tt` checks within `fuel`, each item spending what the table
    # says, and `russell_loop.tt` spends the same on the same items and
    # then all of `fuel` computing `falsum`.
    made = made_by_run(monkeypatch, "Context")
    flags = FlagSet(type_in_type=True, enable_k=True, fuel=fuel)
    path = ROOT / "corpus" / "russell.tt"
    assert run(RunConfig(str(path), flags), io.StringIO(), io.StringIO()) == 0
    text = path.read_text()
    lines = text.splitlines()
    items = [item.name if isinstance(item, Definition) else lines[item.span.line - 1].rstrip(";")
             for item in parse(text)]
    assert dict(zip(items, spent(made))) == _fuel_table()
    made.clear()
    err = io.StringIO()
    assert run(RunConfig(str(ROOT / "corpus" / "russell_loop.tt"), flags), io.StringIO(), err) == 1
    assert err.getvalue().endswith(f"error[E030]: fuel exhausted after {fuel} steps\n")
    assert spent(made) == list(_fuel_table().values())[:-1] + [fuel]


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
