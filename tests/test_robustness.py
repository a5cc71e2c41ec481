"""Every input ends in a verdict, and fuel bounds the work it takes.

Each property runs the whole driver in process: an exception that
escapes `run` is what the command line would print as a traceback.
"""

from __future__ import annotations

import gc
import re
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from oracles import run_config, run_text, source
from tinytt.cli import RunConfig
from tinytt.kernel import FlagSet
from tinytt.semantics import Fuel
from tinytt.surface import RESERVED_WORDS, lex, parse

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
CORPUS_TEXTS = {path.name: path.read_text() for path in sorted(CORPUS.glob("*.tt"))}

# Every token class the lexer knows, a few names the corpus binds, and
# some characters it rejects.
VOCAB = sorted(RESERVED_WORDS | {
    "#normalize", "#check", "#bogus", "(", ")", ":", ";", ":=", "->", "=>",
    "*", ",", "x", "A", "coe", "V", "R", "falsum", "\n", "-- note\n", "@", "1",
})
_WORDS = re.compile(r"\s+|[A-Za-z_][A-Za-z0-9_']*|#[A-Za-z0-9_']*|:=|->|=>|.")

# Wall-time allowance: generous, so that it catches blow-ups that are
# exponential in the input, not a slow host.
SECONDS_PER_UNIT = 20e-6
SECONDS_FIXED = 0.5

flag_sets = st.builds(FlagSet, st.booleans(), st.booleans(), st.integers(1, 20_000))


def cycles_left_by(config: RunConfig) -> tuple[tuple[int, str, str], int]:
    """Run `config` with the cyclic collector off; return the result and
    the number of objects a collection frees afterwards, which is 0 when
    the run made no reference cycle. Every object made before the run is
    frozen meanwhile, so the collection scans only what the run made."""
    enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        result = run_config(config)
        return result, gc.collect()
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def assert_verdict(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert (code == 0) == (err == "")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(VOCAB), max_size=40), flag_sets)
def test_token_soup_ends_in_a_verdict(words, flags):
    code, _, err = run_text(" ".join(words), flags)
    assert_verdict(code, err)


@st.composite
def corpus_mutations(draw) -> str:
    """A corpus file with a few tokens dropped, doubled, swapped or replaced."""
    words = _WORDS.findall(CORPUS_TEXTS[draw(st.sampled_from(sorted(CORPUS_TEXTS)))])
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(words) - 1))
        op = draw(st.sampled_from(("drop", "double", "swap", "replace")))
        if op == "drop":
            del words[i]
        elif op == "double":
            words.insert(i, words[i])
        elif op == "swap":
            j = draw(st.integers(0, len(words) - 1))
            words[i], words[j] = words[j], words[i]
        else:
            words[i] = f" {draw(st.sampled_from(VOCAB))} "
    return "".join(words)


@settings(max_examples=150, deadline=None)
@given(corpus_mutations(), flag_sets)
def test_corpus_mutation_ends_in_a_verdict(text, flags):
    with source(text) as path:
        (code, _, err), freed = cycles_left_by(RunConfig(path, flags))
    assert_verdict(code, err)
    # `run` pauses the cyclic collector, which is safe only while no run
    # leaves garbage that only the collector could free.
    assert freed == 0


def test_a_long_blank_line_lexes_in_linear_time():
    # Blanks at the end of a line are cut off before the line is scanned;
    # a run of blanks with no token after it would make the token pattern
    # retry the run from each of its positions.
    text = " " * 10**6 + "\n x"
    start = time.perf_counter()
    tokens = lex(text)
    elapsed = time.perf_counter() - start
    assert [(kind, line, col) for kind, _, line, col in tokens] == \
        [("ident", 2, 2), ("eof", 2, 3)]
    assert elapsed <= SECONDS_FIXED, elapsed


# Definitions of the shapes a long file of small definitions repeats.
_SMALL_DEFINITIONS = (
    "Nat -> Nat := fun x => add x (succ (succ zero))",
    "(A : U) -> A -> A := fun A x => id A (id A x)",
    "Nat * Nat := (succ zero , add (succ zero) zero)",
    "Id Nat (add (succ zero) zero) (succ zero) := refl",
    "(A : U) -> (B : U) -> (A * B) -> B * A := fun A B p => swap A B p",
)


def test_no_file_is_held_as_one_token_list():
    # The parser lexes a line at a time, so while a long file parses, the
    # memory it takes stays close to what the items it returns hold.
    text = "".join(f"def d{i} : {_SMALL_DEFINITIONS[i % len(_SMALL_DEFINITIONS)]};\n"
                   for i in range(2000))
    tracemalloc.start()
    try:
        items = parse(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(items) == 2000
    assert peak <= 1.5 * held, (peak, held)


@contextmanager
def metered():
    """Collect every `Fuel` the driver and the kernel make meanwhile."""
    made: list[Fuel] = []
    budget = Fuel.budget

    def recording(n: int) -> Fuel:
        fuel = budget(n)
        made.append(fuel)
        return fuel
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fuel, "budget", recording)
        yield made


def numeral(n: int) -> str:
    return "succ (" * n + "zero" + ")" * n


def dup_tower(depth: int, levels: list[int]) -> str:
    """`T_i := T_(i-1) * T_(i-1)` and `v_i := dup T_(i-1) v_(i-1)`, then a
    `refl` check and a `#normalize` at each given level. Each level is
    one pair over two copies of the previous one, so `v_depth` has
    `depth` distinct objects but 2^depth leaves."""
    lines = ["def dup : (A : U) -> A -> A * A := fun A x => (x , x);\n"
             "def T0 : U := Nat;\ndef v0 : T0 := zero;\n"]
    for i in range(1, depth + 1):
        lines.append(f"def T{i} : U := T{i - 1} * T{i - 1};\n"
                     f"def v{i} : T{i} := dup T{i - 1} v{i - 1};\n")
    for k in levels:
        lines.append(f"#check refl : Id T{k} v{k} (dup T{k - 1} v{k - 1});\n"
                     f"#normalize v{k};\n")
    return "".join(lines)


@st.composite
def dup_towers(draw) -> str:
    depth = draw(st.integers(1, 24))
    return dup_tower(depth, draw(st.lists(st.integers(1, depth), max_size=3)))


NAT_TOWER = """\
def T : Nat -> U := fun n => natElim (fun _ => U) Nat (fun _ A => A * A) n;
def tower : (n : Nat) -> T n := fun n => natElim T zero (fun _ v => (v , v)) n;
"""


def nat_tower_check(n: int) -> str:
    """Compare two copies of the tower, each evaluated on its own."""
    term = f"tower ({numeral(n)})"
    return f"#check refl : Id (T ({numeral(n)})) ({term}) ({term});\n"


def nat_tower(n: int, normalize_first: bool) -> str:
    """The dup tower computed by `natElim`: checking it is cheap, and a few
    steps build a shared value with 2^n leaves."""
    pragmas = [f"#normalize tower ({numeral(n)});\n", nat_tower_check(n)]
    return NAT_TOWER + "".join(pragmas if normalize_first else reversed(pragmas))


@st.composite
def arithmetic(draw) -> str:
    """Nested sums and products of small numerals: normal forms grow fast."""
    nat = st.integers(0, 12).map(numeral)
    expr = st.recursive(nat, lambda inner: st.tuples(
        st.sampled_from(("add", "mul")), inner, inner).map(
            lambda t: f"{t[0]} ({t[1]}) ({t[2]})"), max_leaves=6)
    return f"""\
def add : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) n (fun _ r => succ r) m;
def mul : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) zero (fun _ r => add n r) m;
#normalize {draw(expr)};
#check refl : Id Nat ({draw(expr)}) ({draw(expr)});
"""


@settings(max_examples=40, deadline=None)
@given(st.one_of(dup_towers(), st.builds(nat_tower, st.integers(0, 22), st.booleans()),
                 arithmetic(), st.just(CORPUS_TEXTS["russell_loop.tt"])),
       st.integers(1, 200_000))
# Towers tall enough that reading one back or comparing it node by node
# without fuel would take seconds.
@example(dup_tower(24, [24]), 200_000)
@example(nat_tower(22, True), 200_000)
@example(nat_tower(22, False), 200_000)
def test_wall_time_is_bounded_per_fuel_unit(text, budget):
    flags = FlagSet(type_in_type=True, enable_k=True, fuel=budget)
    with metered() as fuels:
        start = time.perf_counter()
        code, _, err = run_text(text, flags)
        elapsed = time.perf_counter() - start
    assert_verdict(code, err)
    units = sum(fuel.total - fuel.remaining for fuel in fuels)
    assert elapsed <= SECONDS_PER_UNIT * units + SECONDS_FIXED, (elapsed, units)


@pytest.mark.parametrize("n", [0, 12, 16, 22])
def test_comparing_tower_copies_costs_one_unit_per_distinct_pair(n):
    # Each side has n distinct objects; a pair of them proven equal once
    # is not compared again, so the cost is linear in n, not 2^n.
    with metered() as fuels:
        result = run_text(NAT_TOWER + nat_tower_check(n), FlagSet(True, True))
    assert result == (0, "CHECKED: refl\n", "")
    assert [fuel.total - fuel.remaining for fuel in fuels] == [13, 73, 31 * n + 21]
