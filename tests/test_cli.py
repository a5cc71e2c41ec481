"""Driver behavior: exit codes, output routing, flags, streaming."""

from __future__ import annotations

import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest

from test_robustness import dup_tower
from tinytt.cli import RunConfig, main, parse_flags, run
from tinytt.kernel import FlagSet

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def run_capture(path: str, quiet: bool = False, **flags):
    out, err = StringIO(), StringIO()
    code = run(RunConfig(path, FlagSet(**flags), quiet), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_accepting_run_exits_zero():
    code, out, err = run_capture(str(CORPUS / "prelude_coe.tt"))
    assert code == 0
    assert err == ""
    assert out == "NORMAL: zero\nNORMAL: succ zero\n"


def test_default_flags_are_the_conservative_ones():
    config = parse_flags(["check", "file.tt"])
    assert config == RunConfig("file.tt", FlagSet(type_in_type=False, enable_k=False,
                                                  fuel=1_000_000), quiet=False)


def test_defaults_reject_the_paradox_file():
    code, out, err = run_capture(str(CORPUS / "russell.tt"))
    assert code == 1
    assert "error[E021]" in err


def test_rejecting_run_reports_one_diagnostic_on_stderr():
    code, out, err = run_capture(str(CORPUS / "sets.tt"))
    assert code == 1
    assert out == ""
    diagnostics = [line for line in err.splitlines() if "error[" in line]
    assert len(diagnostics) == 1  # first error stops the run


def test_pragma_output_streams_before_a_later_failure(tmp_path):
    src = tmp_path / "stream.tt"
    src.write_text("#normalize succ zero;\ndef x : Nat := tt;\n")
    code, out, err = run_capture(str(src))
    assert code == 1
    assert out == "NORMAL: succ zero\n"
    assert f"{src}:2:16: error[E010]" in err


def test_quiet_suppresses_stdout_but_not_diagnostics(tmp_path):
    code, out, err = run_capture(str(CORPUS / "sets.tt"),
                                 type_in_type=True, quiet=True)
    assert (code, out, err) == (0, "", "")
    code, out, err = run_capture(str(CORPUS / "sets.tt"), quiet=True)
    assert code == 1
    assert out == ""
    assert "error[E020]" in err


def test_missing_file_exits_two():
    code, out, err = run_capture(str(CORPUS / "absent.tt"))
    assert code == 2
    assert "cannot read" in err


def test_unreadable_path_exits_two(tmp_path):
    code, out, err = run_capture(str(tmp_path))  # a directory, not a file
    assert code == 2


def test_bad_usage_exits_two(capsys):
    for argv in (["check", "f.tt", "--fuel", "0"],
                 ["check", "f.tt", "--fuel", "many"],
                 ["check"],
                 [],
                 ["dance", "f.tt"]):
        with pytest.raises(SystemExit) as exc:
            parse_flags(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()  # swallow argparse noise


def test_fuel_flag_reaches_the_evaluator():
    code, out, err = run_capture(str(CORPUS / "russell_loop.tt"),
                                 type_in_type=True, enable_k=True, fuel=123)
    assert code == 1
    assert "error[E030]: fuel exhausted after 123 steps" in err


def test_main_wires_everything(capsys):
    assert main(["check", str(CORPUS / "sets.tt"), "--type-in-type"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "NORMAL: Nat\nCHECKED: zeroInNat\n"
    assert captured.err == ""
    assert main(["check", str(CORPUS / "russell.tt"),
                 "--type-in-type", "--enable-K"]) == 0


def test_console_script_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "tinytt.cli", "check",
         str(CORPUS / "russell.tt"), "--type-in-type", "--enable-K"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "CHECKED: falsum\n"
    assert result.stderr == ""


@pytest.mark.parametrize("text,stdout,diagnostic", [
    # Pragma output streams before an unbound name in a later item.
    ("#normalize zero;\ndef f : Nat := ghost;\n", "NORMAL: zero\n",
     "2:16: error[E002]: unbound name 'ghost'"),
    # An unbound name beats a type error in the same item.
    ("def f : Nat := fun x => ghost;\n", "",
     "1:25: error[E002]: unbound name 'ghost'"),
    # A definition does not see itself.
    ("def f : Nat := f;\n", "", "1:16: error[E002]: unbound name 'f'"),
    # The whole file parses before any item is checked.
    ("def f : Nat := ghost;\ndef g : Nat := ;\n", "",
     "2:16: error[E001]: expected an expression, found ';'"),
], ids=["streams-first", "beats-mismatch", "no-self-reference", "syntax-first"])
def test_unbound_names_at_the_cli(tmp_path, text, stdout, diagnostic):
    src = tmp_path / "unbound.tt"
    src.write_text(text)
    assert run_capture(str(src)) == (1, stdout, f"{src}:{diagnostic}\n")


_ID = "def id : (A : U) -> A -> A := fun A x => x;\n"


_DEEP = "error[E031]: nesting too deep\n"
# `def T_i : U := Nat -> T_(i-1)`, then a function of that type: its
# 2,000 binders parse, and checking them exhausts the stack.
_TELESCOPE = ("def T0 : U := Nat;\n"
              + "".join(f"def T{i} : U := Nat -> T{i - 1};\n" for i in range(1, 2001))
              + "def f : T2000 := fun " + " ".join(f"x{i}" for i in range(2000))
              + " => zero;\n")


@pytest.mark.parametrize("text,diagnostic", [
    ("def x : Nat := " + "(" * 3000 + "zero" + ")" * 3000 + ";\n", "1:1: " + _DEEP),
    (_ID + "def x : Nat := " + "id Nat (" * 400 + "zero" + ")" * 400 + ";\n", "1:1: " + _DEEP),
    ("#normalize " + "succ (" * 500 + "zero" + ")" * 500 + ";\n", "1:1: " + _DEEP),
    # A flat spine parses and checks without recursion, so it gets its
    # ordinary verdict at the innermost application.
    (_ID + "#normalize zero" + " zero" * 2000 + ";\n",
     "2:12: error[E012]: not a function\n  the applied term has type Nat\n"),
    # Parsing succeeds; the diagnostic points at the item.
    (_TELESCOPE, "2002:1: " + _DEEP),
], ids=["parens", "nested-id", "nested-succ", "long-spine", "deep-telescope"])
def test_deep_nesting_is_a_diagnostic_not_a_traceback(tmp_path, text, diagnostic):
    src = tmp_path / "deep.tt"
    src.write_text(text)
    result = subprocess.run(
        [sys.executable, "-m", "tinytt.cli", "check", str(src)],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr == f"{src}:{diagnostic}"
    assert "Traceback" not in result.stderr


def test_dup_tower_checks_by_sharing_and_its_read_back_runs_out_of_fuel(tmp_path):
    # Comparing the shared values is O(1), and reading back 2^24 leaves
    # stops at the budget instead of running for minutes.
    src = tmp_path / "tower.tt"
    src.write_text(dup_tower(24, [24]))
    result = subprocess.run(
        [sys.executable, "-m", "tinytt.cli", "check", str(src)],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    assert result.stdout == "CHECKED: refl\n"
    assert result.stderr == f"{src}:53:1: error[E030]: fuel exhausted after 1000000 steps\n"
