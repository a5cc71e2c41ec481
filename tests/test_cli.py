"""Driver behavior: exit codes, output routing, flags, streaming."""

from __future__ import annotations

import gc
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from manifest import load_manifest
from oracles import run_config
from test_robustness import cycles_left_by, dup_tower
from test_semantics import APPLIED, ARITHMETIC, BATCHED
from tinytt import cli, codegen, semantics
from tinytt.cli import RunConfig, main, parse_flags
from tinytt.diagnostics import MISMATCH, fail
from tinytt.kernel import Context, FlagSet, check_declaration
from tinytt.semantics import TIER_UP_FUEL
from tinytt.surface import Definition, parse

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def run_capture(path: str, quiet: bool = False, **flags):
    return run_config(RunConfig(path, FlagSet(**flags), quiet))


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
    binary, marked, cut = tmp_path / "binary.tt", tmp_path / "marked.tt", tmp_path / "cut.tt"
    binary.write_bytes(b"def a : U := Nat;\n\xff")
    # The offset counts a byte-order mark's three bytes, and a mark cut
    # short by the end of the file is not a mark.
    marked.write_bytes(b"\xef\xbb\xbfdef a : U := Nat;\n\xff")
    cut.write_bytes(b"\xef\xbb")
    cases = ((tmp_path, "Is a directory"),
             (binary, "not UTF-8 (invalid start byte at byte offset 18)"),
             (marked, "not UTF-8 (invalid start byte at byte offset 21)"),
             (cut, "not UTF-8 (unexpected end of data at byte offset 0)"))
    for path, reason in cases:
        code, out, err = run_capture(str(path))
        assert (code, out, err) == (2, "", f"error: cannot read {path}: {reason}\n")


@pytest.mark.parametrize("text", [
    "def a : U := Nat;\n#check a : U;\n",
    "#check b : U;\n",
    "def a : U := Nat @",
])
def test_a_byte_order_mark_checks_like_the_same_file_without_it(tmp_path, text):
    # Line-1 columns count from after the mark.
    plain, marked = tmp_path / "plain.tt", tmp_path / "marked.tt"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    code, out, err = run_capture(str(plain))
    assert run_capture(str(marked)) == (code, out, err.replace(str(plain), str(marked)))


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


# Output that cannot be written stops the run with exit 2 and one line on
# stderr. Each case runs in a child, as on failure `main` redirects the
# process's fd 1, and with stdout buffered as by default: unbuffered, it
# leaves nothing for the flush at exit to fail on.
_BUFFERED = {name: value for name, value in os.environ.items()
             if name != "PYTHONUNBUFFERED"}


def test_a_closed_pipe_is_an_output_error(tmp_path):
    src = tmp_path / "pragmas.tt"
    src.write_text("def id : Nat -> Nat := fun x => x;\n" + "#normalize id zero;\n" * 20_000)
    with subprocess.Popen([sys.executable, "-m", "tinytt.cli", "check", str(src)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=_BUFFERED) as child:
        assert child.stdout.readline() == "NORMAL: zero\n"
        child.stdout.close()
        assert child.wait(timeout=60) == 2
        assert child.stderr.read() == "error: cannot write output: Broken pipe\n"


def test_a_full_device_is_an_output_error():
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "tinytt.cli", "check", str(CORPUS / "sets.tt"),
             "--type-in-type"], stdout=full, stderr=subprocess.PIPE, text=True,
            env=_BUFFERED)
    assert result.returncode == 2
    assert result.stderr == "error: cannot write output: No space left on device\n"


def test_a_closed_stdout_is_not_an_error():
    # With fd 1 closed there is no `sys.stdout`, and the output is dropped.
    result = subprocess.run(
        ["sh", "-c", '"$0" -m tinytt.cli check "$1" --type-in-type >&-',
         sys.executable, str(CORPUS / "sets.tt")], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")


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


def test_an_error_without_a_span_is_reported_at_its_item(tmp_path, monkeypatch):
    # An error raised on a synthesized term has no span of its own.
    def check_or_fail(ctx, name, *rest):
        if name == "b":
            fail(MISMATCH, "no span", None)
        check_declaration(ctx, name, *rest)

    monkeypatch.setattr(cli, "check_declaration", check_or_fail)
    src = tmp_path / "spanless.tt"
    src.write_text("def a : U := Nat;\n\n  def b : U := Nat;\ndef c : U := Nat;\n")
    assert run_capture(str(src)) == (1, "", f"{src}:3:3: error[E010]: no span\n")


_ID = "def id : (A : U) -> A -> A := fun A x => x;\n"


_DEEP = "error[E031]: nesting too deep\n"
# `def T_i : U := Nat -> T_(i-1)`, then a function of that type: its
# 2,000 binders parse, and checking them exhausts the stack.
_TELESCOPE = ("def T0 : U := Nat;\n"
              + "".join(f"def T{i} : U := Nat -> T{i - 1};\n" for i in range(1, 2001))
              + "def f : T2000 := fun " + " ".join(f"x{i}" for i in range(2000))
              + " => zero;\n")


_PARENS = "def x : Nat := " + "(" * 3000 + "zero" + ")" * 3000 + ";\n"
# A shallow source whose type mismatch involves the numeral 800: too deep
# to read back or print in a note, so the note shows its global or "...".
_N800 = ("def add : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) n (fun _ r => succ r) m;\n"
         "def mul : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) zero (fun _ r => add n r) m;\n"
         "def n20 : Nat := " + "succ (" * 19 + "succ zero" + ")" * 19 + ";\n")
_N800_REFL = "{}:8: error[E014]: refl endpoints differ\n  left:  {}\n  right: zero\n"
# A lexical error anywhere in a file wins over an earlier syntax error, and
# over E031. `tests/differential.py` runs each of these too.
LEXICAL_LAST = [
    ("def a : U := ;\ndef b : U := Nat;\ndef c : U := Nat @\n",
     "3:18: error[E001]: unexpected character '@'\n"),
    (_PARENS + "#check zero : Nat @\n", "2:19: error[E001]: unexpected character '@'\n"),
    ("def a : U := ;\n#check zero : Nat;\n#foo\n", "3:1: error[E001]: unknown pragma '#foo'\n"),
    ("def a : U := ; def b : U := Nat @\n", "1:33: error[E001]: unexpected character '@'\n"),
]


@pytest.mark.parametrize("text,diagnostic", [
    (_PARENS, "1:1: " + _DEEP),
    (_ID + "def x : Nat := " + "id Nat (" * 400 + "zero" + ")" * 400 + ";\n", "1:1: " + _DEEP),
    ("#normalize " + "succ (" * 500 + "zero" + ")" * 500 + ";\n", "1:1: " + _DEEP),
    # A flat spine parses and checks without recursion, so it gets its
    # ordinary verdict at the innermost application.
    (_ID + "#normalize zero" + " zero" * 2000 + ";\n",
     "2:12: error[E012]: not a function\n  the applied term has type Nat\n"),
    # Parsing succeeds; the diagnostic points at the item.
    (_TELESCOPE, "2002:1: " + _DEEP),
    *LEXICAL_LAST,
    (_N800 + "#check refl : Id Nat (mul n20 (add n20 n20)) zero;\n", _N800_REFL.format(4, "...")),
    (_N800 + "def big : Nat := mul n20 (add n20 n20);\n#check refl : Id Nat big zero;\n",
     _N800_REFL.format(5, "big")),
    (_N800 + "#check (fun p => p) : Id Nat (mul n20 (add n20 n20)) zero -> Nat;\n",
     "4:18: error[E010]: type mismatch\n  expected: Nat\n  found:    ...\n"),
], ids=["parens", "nested-id", "nested-succ", "long-spine", "deep-telescope",
        "lexical-after-syntax-error", "lexical-after-deep-parens",
        "pragma-after-syntax-error", "stray-after-syntax-error-on-its-line",
        "deep-refl-endpoint", "deep-global-endpoint", "deep-found-type"])
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


FORCE = """\
def id : Nat -> Nat := fun x => x;
def g : Nat := id (succ zero);
def f : Nat -> Nat := fun n => g;
def dup : (A : U) -> A -> A * A := fun A x => (x , x);
#normalize dup ((Nat -> Nat) * (Nat -> Nat)) (f , f);
"""


def test_a_read_back_that_forced_a_global_is_not_reused(tmp_path):
    # The first `(f , f)` read forces `g`, at one beta step; the second
    # finds `g` cached, so reusing the first reading's cost would spend 37.
    src = tmp_path / "force.tt"
    src.write_text(FORCE)
    assert run_capture(str(src), fuel=35) == (
        1, "", f"{src}:5:1: error[E030]: fuel exhausted after 35 steps\n")
    assert run_capture(str(src), fuel=36) == (
        0, "NORMAL: ((fun n => succ zero , fun n => succ zero) , "
        "(fun n => succ zero , fun n => succ zero))\n", "")


# `lemma1` goes through `id` and `app`, so its loop crosses from
# interpreted closures into compiled function bodies and back again.
_APP_LOOP = (CORPUS / "russell_loop.tt").read_text().replace(
    "def lemma1 : elem V R R -> Empty := fun H => (snd H) "
    "(subst V (fun x => elem V x x) R (coe V V (fst H) R) (coe_eq V R (fst H)) H);",
    "def id : (A : U) -> A -> A := fun A x => x;\n"
    "def app : (A : U) -> (B : U) -> (A -> B) -> A -> B := fun A B f x => f x;\n"
    "def lemma1 : elem V R R -> Empty := id (elem V R R -> Empty) (fun H => "
    "app (elem V (coe V V (fst H) R) (coe V V (fst H) R)) Empty (snd H) "
    "(subst V (fun x => elem V x x) R (coe V V (fst H) R) (coe_eq V R (fst H)) H));")


@pytest.mark.parametrize("fuel", [20_000, None], ids=["fuel-20000", "default-fuel"])
def test_mixed_compiled_and_interpreted_loop_runs_out_of_fuel(tmp_path, fuel):
    src = tmp_path / "app_loop.tt"
    src.write_text(_APP_LOOP)
    budget = [] if fuel is None else ["--fuel", str(fuel)]
    result = subprocess.run(
        [sys.executable, "-m", "tinytt.cli", "check", str(src), "--type-in-type",
         "--enable-K", *budget], capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (f"{src}:13:1: error[E030]: fuel exhausted after "
                             f"{fuel or 1_000_000} steps\n")


def made_by_run(monkeypatch, name: str) -> list:
    """The objects of `cli`'s class `name`, `Signature` or `Context`, that
    `cli.run` makes from now on, in a list."""
    cls, made = getattr(cli, name), []

    def make(*args, **kwargs):
        made.append(cls(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, name, make)
    return made


def spent(contexts: list[Context]) -> list[int]:
    """The fuel spent in each context: per item, in those `run` makes."""
    return [ctx.fuel.total - ctx.fuel.remaining for ctx in contexts]


@pytest.mark.parametrize("corpus_file", load_manifest(), ids=lambda f: f.name)
def test_a_run_that_never_spends_the_tier_up_fuel_compiles_nothing(corpus_file, monkeypatch):
    # Checking is cheap: every corpus cell but the diverging one stays
    # with the interpreter, and never imports what it does not run.
    compiled, made = [], made_by_run(monkeypatch, "Signature")
    compile_lambda = codegen.compile_lambda

    def spy(sig, lam):
        compiled.append(lam)
        compile_lambda(sig, lam)

    monkeypatch.setattr(codegen, "compile_lambda", spy)
    for outcome in corpus_file.outcomes:
        if outcome.code == "E030":
            continue
        run_capture(str(corpus_file.path), type_in_type=outcome.type_in_type,
                    enable_k=outcome.enable_k)
        assert compiled == []
        assert not made[-1].hot
        assert not made[-1].code


def test_a_cheap_run_never_imports_the_compiler():
    code = ("import sys\nfrom tinytt.cli import main\n"
            f"main(['check', {str(CORPUS / 'russell.tt')!r}, '--type-in-type', '--enable-K'])\n"
            "sys.exit('tinytt.codegen' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "CHECKED: falsum\n", "")


@pytest.mark.parametrize("fuel", [TIER_UP_FUEL - 1, TIER_UP_FUEL, TIER_UP_FUEL + 1,
                                  2 * TIER_UP_FUEL, 100_000])
def test_a_restarted_item_runs_out_as_a_compiled_run_does(fuel, monkeypatch):
    # Up to the tier-up fuel the loop runs interpreted to its end; past
    # it, the run tiers up in place and the loop goes on compiled from the
    # step it reached. Either way it prints what a run that compiles from
    # its first spent step prints.
    path = str(CORPUS / "russell_loop.tt")
    made = made_by_run(monkeypatch, "Signature")
    result = run_capture(path, type_in_type=True, enable_k=True, fuel=fuel)
    assert result == (1, "", f"{path}:11:1: error[E030]: fuel exhausted after {fuel} steps\n")
    assert made[-1].hot is (fuel > TIER_UP_FUEL)
    monkeypatch.setattr(semantics, "TIER_UP_FUEL", 0)
    assert run_capture(path, type_in_type=True, enable_k=True, fuel=fuel) == result
    assert made[-1].hot


# `inc` and `add` are forced cold by the first pragma. The second forces
# `one`, at one beta step, while still cold, and then crosses the tier-up
# fuel: the run goes on compiled from there, with `one` cached.
_MIDWAY = """\
def id : Nat -> Nat := fun x => x;
def add : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) n (fun _ r => succ r) m;
def mul : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) zero (fun _ r => add n r) m;
def drop : Nat -> Nat := fun m => natElim (fun _ => Nat) zero (fun _ r => r) m;
def inc : Nat -> Nat := fun n => add n (succ zero);
#normalize inc zero;
def one : Nat := id (succ zero);
def ten : Nat := succ (succ (succ (succ (succ (succ (succ (succ (succ (succ zero)))))))));
#normalize add one (drop (mul ten (mul ten ten)));
"""
_MIDWAY_FUEL = 16_668


def test_an_item_that_tiers_up_midway_spends_what_one_run_spends(tmp_path):
    # One step short of the fuel that a run compiled from its start
    # spends, the item runs out; at that fuel, it ends. Tiering up midway
    # neither loses nor repeats a step.
    src = tmp_path / "midway.tt"
    src.write_text(_MIDWAY)
    assert run_capture(str(src), fuel=_MIDWAY_FUEL - 1) == (
        1, "NORMAL: succ zero\n",
        f"{src}:9:1: error[E030]: fuel exhausted after {_MIDWAY_FUEL - 1} steps\n")
    assert run_capture(str(src), fuel=_MIDWAY_FUEL) == (
        0, "NORMAL: succ zero\nNORMAL: succ zero\n", "")


def test_tier_up_compiles_the_closures_of_globals_forced_cold(tmp_path, monkeypatch):
    # `inc` was forced before the run tiered up: its cached closure, which
    # every later use of `inc` shares, now holds its compiled body.
    src = tmp_path / "midway.tt"
    src.write_text(_MIDWAY)
    made = made_by_run(monkeypatch, "Signature")
    assert run_capture(str(src), fuel=_MIDWAY_FUEL)[0] == 0
    sig = made[-1]
    assert sig.hot
    assert sig.forced[:2] == ["inc", "add"]
    inc = sig.entries["inc"]
    assert inc.cached.body is sig.code[inc.body.body]


def test_a_read_back_that_crosses_the_tier_up_fuel_tiers_up(tmp_path, monkeypatch):
    # Reading `v11` back spends more than the tier-up fuel after its last
    # evaluation; the run tiers up at the end of the read-back.
    src = tmp_path / "tower.tt"
    src.write_text(dup_tower(11, []) + "#normalize v11;\n")
    made = made_by_run(monkeypatch, "Signature")
    assert run_capture(str(src), quiet=True) == (0, "", "")
    assert made[-1].hot


# The note of this item's E010 reads back `mul n200 (succ zero)` under a
# binder, which spends more of the display budget than the tier-up fuel,
# though the item itself spends little.
_NOTE_PAST_TIER_UP = (
    "def add : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) n (fun _ r => succ r) m;\n"
    "def mul : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) zero (fun _ r => add n r) m;\n"
    f"def n100 : Nat := {'succ (' * 100}zero{')' * 100};\n"
    "def n200 : Nat := add n100 n100;\n"
    "#check zero : Id (Nat -> Nat) (fun x => mul n200 (succ zero)) (fun x => x);\n"
)


def test_a_diagnostic_note_never_tiers_the_run_up(tmp_path, monkeypatch):
    # `show_type` meters its read-back on a budget of its own, which never
    # tiers up: the error path leaves the run cold, and nothing compiled.
    src = tmp_path / "note.tt"
    src.write_text(_NOTE_PAST_TIER_UP)
    made = made_by_run(monkeypatch, "Signature")
    expected = "Id (Nat -> Nat) (fun x => " + "succ (" * 8 + "suc..."
    assert run_capture(str(src)) == (
        1, "", f"{src}:5:8: error[E010]: type mismatch\n"
               f"  expected: {expected}\n  found:    Nat\n")
    assert not made[-1].hot
    assert not made[-1].code


def test_a_long_neutral_spine_normalizes_and_prints(tmp_path):
    # `g`'s body applies its variable to 1,000 arguments; its normal form
    # prints on one line, since the printer walks a spine in a loop.
    src = tmp_path / "spine.tt"
    src.write_text("def T : U := (A : U) -> A;\n"
                   f"def g : T -> T := fun f => f{' T' * 1000};\n#normalize g;\n")
    assert run_capture(str(src), type_in_type=True) == (
        0, f"NORMAL: fun f => f{' ((A : U) -> A)' * 1000}\n", "")


# The fuel of the runs the meter is read from: past the tier-up fuel, and
# enough for every item but the diverging one and the read-back of the
# taller dup towers.
_METERED = 100_000


def _metered_inputs(tmp_path) -> list[tuple[str, FlagSet]]:
    """Every corpus cell; and the three texts of `test_semantics`, each
    with a `#normalize` of every global, and the dup towers, each with a
    `#normalize` of its top value, under every flag set."""
    inputs = [(str(f.path), FlagSet(o.type_in_type, o.enable_k, _METERED))
              for f in load_manifest() for o in f.outcomes]
    texts = [text + "".join(f"#normalize {name};\n"
                            for name in re.findall(r"^def (\w+)", text, re.M))
             for text in (ARITHMETIC, BATCHED, APPLIED)]
    texts += [dup_tower(depth, []) + f"#normalize v{depth};\n" for depth in range(25)]
    for i, text in enumerate(texts):
        src = tmp_path / f"text{i}.tt"
        src.write_text(text)
        inputs += [(str(src), FlagSet(tt, k, _METERED)) for tt in (False, True)
                   for k in (False, True)]
    return inputs


@pytest.mark.parametrize("tier_up", [TIER_UP_FUEL, 0, 10**9],
                         ids=["tier-up", "compile-at-once", "never-compile"])
def test_the_meter_is_exact(tmp_path, monkeypatch, tier_up):
    # `run` makes one context per item, and its fuel meters all of the
    # item. So with f the largest fuel an item spends, a budget of f
    # prints what any larger budget prints, and at f - 1 the first item
    # that spent f runs out.
    monkeypatch.setattr(semantics, "TIER_UP_FUEL", tier_up)
    made = made_by_run(monkeypatch, "Context")

    def metered(path: str, flags: FlagSet, fuel: int):
        made.clear()
        return run_config(RunConfig(path, replace(flags, fuel=fuel))), spent(made)

    for path, flags in _metered_inputs(tmp_path):
        result, spends = metered(path, flags, flags.fuel)
        f = max(spends)
        assert metered(path, flags, f) == (result, spends), (path, flags)
        first = spends.index(f)
        items = parse(Path(path).read_text())[:first + 1]
        printed = sum(not isinstance(item, Definition) for item in items[:-1])
        span = items[-1].span
        assert metered(path, flags, f - 1) == (
            (1, "".join(result[1].splitlines(keepends=True)[:printed]),
             f"{path}:{span.line}:{span.col}: error[E030]: fuel exhausted after {f - 1} steps\n"),
            spends[:first] + [f - 1]), (path, flags)


def test_falsum_diverges_at_constant_stack_depth():
    # Under a recursion limit a tenth of the default, every tail call
    # returns to one loop: ten million steps compiled, and one million
    # with every definition left to the interpreter.
    interpret_only = "from tinytt import codegen\ncodegen.compile_lambda = lambda sig, lam: None\n"
    for setup, fuel in (("", 10_000_000), (interpret_only, 1_000_000)):
        code = (f"import sys\nfrom tinytt.cli import main\n{setup}sys.setrecursionlimit(100)\n"
                f"sys.exit(main(['check', {str(CORPUS / 'russell_loop.tt')!r}, "
                f"'--type-in-type', '--enable-K', '--fuel', '{fuel}']))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 1
        assert result.stderr.endswith(f"error[E030]: fuel exhausted after {fuel} steps\n")


_PARENS = "#normalize " + "(" * 3000 + "zero" + ")" * 3000 + ";"
# One input per diagnostic code, under default flags and a budget of
# `_FUEL` steps.
_FUEL = 50
_DIAGNOSED = {
    "E001": "def a : U := Nat @",
    "E002": "def a : U := Bool;",
    "E003": "def a : U := Nat;\ndef a : U := Nat;",
    "E010": "def a : Nat := Nat;",
    "E011": "#normalize fun x => x;",
    "E012": "#normalize zero zero;",
    "E013": "#normalize fst zero;",
    "E014": "#check refl : Id Nat zero (succ zero);",
    "E020": "def a : U := U;",
    "E021": "def k : (p : Id Nat zero zero) -> Id (Id Nat zero zero) p refl := "
            "fun p => K Nat zero (fun q => Id (Id Nat zero zero) q refl) refl p;",
    "E030": "#normalize natElim (fun _ => Nat) zero (fun _ r => succ r) ("
            + "succ (" * 30 + "zero" + ")" * 31 + ";",
    "E031": _PARENS,
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("content,outcome", [
    ("def d : Nat := zero;", 0),
    (_DIAGNOSED["E001"], 1),
    (_DIAGNOSED["E030"], 1),
    (_PARENS, 1),
    (None, 2),
    (b"def a : U := Nat;\n\xff", 2),
    ("def d : Nat := zero;", KeyboardInterrupt),
], ids=["parsed", "E001", "E030", "too-deep", "missing", "not-UTF-8", "interrupt"])
def test_run_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, content, outcome,
                                                 enabled):
    src = tmp_path / "gc.tt"
    if isinstance(content, str):
        src.write_text(content)
    elif content is not None:
        src.write_bytes(content)
    paused = []
    process = cli._process

    def spy(*args):
        paused.append(not gc.isenabled())
        if outcome is KeyboardInterrupt:
            raise KeyboardInterrupt
        process(*args)

    monkeypatch.setattr(cli, "_process", spy)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if outcome is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                run_capture(str(src), fuel=_FUEL)
        else:
            assert run_capture(str(src), fuel=_FUEL)[0] == outcome
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    # Every item is processed with the collector paused.
    assert all(paused)


def test_a_run_builds_no_reference_cycles(tmp_path):
    # Why `run` may pause the cyclic collector: nothing a run builds is
    # garbage that only the collector could free.
    runs = [(RunConfig(str(path), FlagSet(tt, k, fuel)), None)
            for path in sorted(CORPUS.glob("*.tt"))
            for tt in (False, True) for k in (False, True)
            for fuel in (1, 50, 100_000)]
    for code, text in _DIAGNOSED.items():
        src = tmp_path / f"{code}.tt"
        src.write_text(text)
        runs.append((RunConfig(str(src), FlagSet(fuel=_FUEL)), code))
    defs = tmp_path / "defs.tt"
    defs.write_text("".join(
        f"def d{i} : (A : U) -> A -> A * A := fun A x => (x , x);\n"
        f"#check d{i} Nat (succ zero) : Nat * Nat;\n" for i in range(2000)))
    runs.append((RunConfig(str(defs)), None))
    for config, code in runs:
        (_, _, err), freed = cycles_left_by(config)
        assert freed == 0, config
        assert code is None or f"error[{code}]" in err, (code, err)
