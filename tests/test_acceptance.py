"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest -v` to get one pass/fail line per criterion. Each test
is self-contained and runs the real CLI entry point where the criterion
concerns observable behavior.
"""

from __future__ import annotations

import time
from pathlib import Path
from random import Random

import pytest

from manifest import load_manifest
from oracles import FAMILIES, build_signature, certify, oracle_normalize, run_config
from tinytt.cli import RunConfig
from tinytt.kernel import FlagSet
from tinytt.semantics import Fuel, V_EMPTY, normalize
from tinytt.surface import Definition, Parser, parse, pretty, resolve_expr
from tinytt.syntax import alpha_equal

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
MANIFEST = {f.name: f for f in load_manifest()}
COMBOS = [(False, False), (False, True), (True, False), (True, True)]


def timed_run(path: Path, type_in_type=False, enable_k=False, fuel=1_000_000):
    config = RunConfig(str(path), FlagSet(type_in_type=type_in_type,
                                          enable_k=enable_k, fuel=fuel))
    start = time.perf_counter()
    result = run_config(config)
    return *result, time.perf_counter() - start


def test_criterion_1_paradox_checks_under_permissive_flags():
    # Exit 0, falsum : Empty installed, runtime under one second.
    code, out, err, elapsed = timed_run(CORPUS / "russell.tt",
                                        type_in_type=True, enable_k=True)
    assert code == 0, err
    assert out.splitlines()[-1] == "CHECKED: falsum"
    assert elapsed < 1.0, f"took {elapsed:.3f}s, tolerance is 1s"
    flags = FlagSet(type_in_type=True, enable_k=True, fuel=1_000_000)
    sig = build_signature((CORPUS / "russell.tt").read_text(), flags)
    assert "falsum" in sig.entries
    assert sig.entries["falsum"].ty is V_EMPTY


def test_criterion_2_strict_universes_reject_at_def_v():
    expected = MANIFEST["russell.tt"].outcome_for(False, True)
    assert (expected.result, expected.code) == ("reject", "E020")
    code, out, err, elapsed = timed_run(CORPUS / "russell.tt",
                                        type_in_type=False, enable_k=True)
    assert code == 1
    head = err.splitlines()[0]
    assert f":{expected.line}:" in head.split(" ")[0]
    assert "error[E020]" in head
    assert elapsed < 1.0, f"took {elapsed:.3f}s, tolerance is 1s"


def test_criterion_3_k_dependency_is_isolated_to_coe_eq():
    # Without K the file fails at the K occurrence inside coe_eq...
    expected = MANIFEST["russell.tt"].outcome_for(True, False)
    assert (expected.result, expected.code) == ("reject", "E021")
    code, _, err, _ = timed_run(CORPUS / "russell.tt", type_in_type=True)
    assert code == 1
    head = err.splitlines()[0]
    assert "error[E021]" in head
    assert f":{expected.line}:" in head.split(" ")[0]
    source_line = (CORPUS / "russell.tt").read_text().splitlines()[expected.line - 1]
    assert "coe_eq" in source_line and " K " in source_line
    # ...while the J-only prelude checks with K disabled, even strictly.
    code, _, err, _ = timed_run(CORPUS / "prelude_coe.tt")
    assert code == 0, err


@pytest.mark.parametrize("budget", [10_000, 100_000, 1_000_000])
def test_criterion_4_contradiction_never_normalizes(budget):
    code, out, err, _ = timed_run(CORPUS / "russell_loop.tt",
                                  type_in_type=True, enable_k=True, fuel=budget)
    assert code == 1
    head = err.splitlines()[0]
    assert "error[E030]" in head
    # The step count at exhaustion equals the whole budget.
    assert f"fuel exhausted after {budget} steps" in head
    line = MANIFEST["russell_loop.tt"].outcome_for(True, True).line
    assert f":{line}:" in head.split(" ")[0]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_criterion_5_computation_rules_hold_on_generated_instances(family):
    generate = FAMILIES[family]
    rng = Random(f"tinytt-{family}")
    for i in range(120):
        inst = generate(rng)
        certify(inst, fuel=10_000)
        lhs = normalize((), inst.term, Fuel.budget(10_000), inst.sig)
        rhs = normalize((), inst.reference, Fuel.budget(10_000), inst.sig)
        assert alpha_equal(lhs, rhs), (family, i)
        assert alpha_equal(lhs, oracle_normalize(inst.term, inst.defs)), (family, i)


def test_criterion_6_membership_example_follows_its_universe_demands():
    sets = MANIFEST["sets.tt"]
    for tit, k in COMBOS:
        code, out, err, _ = timed_run(sets.path, type_in_type=tit, enable_k=k)
        if tit:
            assert code == 0, (tit, k, err)
            assert out.splitlines() == list(sets.outputs)
            assert out.splitlines()[-1] == "CHECKED: zeroInNat"
        else:
            outcome = sets.outcome_for(tit, k)
            assert code == 1
            head = err.splitlines()[0]
            assert "error[E020]" in head
            assert f":{outcome.line}:" in head.split(" ")[0]
            assert "def V" in sets.path.read_text().splitlines()[outcome.line - 1]


def test_criterion_7_round_trip_and_byte_identical_reruns():
    # parse . pretty is alpha-stable on every corpus declaration.
    for name, corpus_file in MANIFEST.items():
        known: set[str] = set()
        for item in parse(corpus_file.path.read_text()):
            if not isinstance(item, Definition):
                continue
            for surface_term in (item.ty, item.body):
                term = resolve_expr(surface_term, frozenset(known))
                printed = pretty(term, (), frozenset(known))
                parser = Parser(printed)
                reparsed = resolve_expr(parser.parse_expr(), frozenset(known))
                assert parser.head[0] == "eof"
                assert alpha_equal(reparsed, term), (name, item.name, printed)
            known.add(item.name)
    # Three runs of every corpus/flag pair are byte-identical.
    for name, corpus_file in MANIFEST.items():
        for tit, k in COMBOS:
            fuel = 10_000 if name == "russell_loop.tt" else 1_000_000
            results = {
                timed_run(corpus_file.path, tit, k, fuel)[:3]
                for _ in range(3)
            }
            assert len(results) == 1, (name, tit, k)
