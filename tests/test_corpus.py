"""The bundled corpus behaves exactly as its manifest declares."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from manifest import CorpusFile, load_manifest
from oracles import build_signature, run_config
from tinytt.cli import RunConfig
from tinytt.kernel import Context, FlagSet, check
from tinytt.semantics import Fuel, FuelExhausted, normalize
from tinytt.surface import Definition, parse, resolve_expr
from tinytt.syntax import Global, Term

MANIFEST = load_manifest()
COMBOS = [(False, False), (False, True), (True, False), (True, True)]


def run_file(corpus_file: CorpusFile, type_in_type: bool, enable_k: bool,
             fuel: int = 1_000_000):
    return run_config(RunConfig(str(corpus_file.path), FlagSet(
        type_in_type=type_in_type, enable_k=enable_k, fuel=fuel)))


def test_manifest_covers_the_full_matrix():
    assert len(MANIFEST) == 5
    names = [f.name for f in MANIFEST]
    assert names == ["prelude_coe.tt", "prelude.tt", "sets.tt",
                     "russell.tt", "russell_loop.tt"]
    for f in MANIFEST:
        assert f.path.exists()
        combos = {(o.type_in_type, o.enable_k) for o in f.outcomes}
        assert combos == set(COMBOS)
        for o in f.outcomes:
            if o.result == "reject":
                assert o.code is not None and o.line is not None
            else:
                assert o.result == "accept"


@pytest.mark.parametrize("corpus_file", MANIFEST, ids=lambda f: f.name)
@pytest.mark.parametrize("tit,k", COMBOS, ids=["strict", "strict+K", "tit", "tit+K"])
def test_every_cell_of_the_outcome_matrix(corpus_file, tit, k):
    outcome = corpus_file.outcome_for(tit, k)
    code, out, err = run_file(corpus_file, tit, k)
    if outcome.result == "accept":
        assert code == 0, err
        assert err == ""
        assert out.splitlines() == list(corpus_file.outputs)
    else:
        assert code == 1
        head = err.splitlines()[0]
        assert head.startswith(f"{corpus_file.path}:{outcome.line}:"), head
        assert f"error[{outcome.code}]" in head, head


@pytest.mark.parametrize("corpus_file", MANIFEST, ids=lambda f: f.name)
def test_rejection_spans_point_into_the_file(corpus_file):
    lines = corpus_file.path.read_text().splitlines()
    for o in corpus_file.outcomes:
        if o.result != "reject":
            continue
        code, _, err = run_file(corpus_file, o.type_in_type, o.enable_k)
        assert code == 1
        m = re.match(r"^(.*):(\d+):(\d+): error\[", err.splitlines()[0])
        assert m, err
        line, col = int(m.group(2)), int(m.group(3))
        assert 1 <= line <= len(lines)
        assert 1 <= col <= len(lines[line - 1]) + 1
        assert line == o.line


def test_accepted_sets_grow_with_the_flags():
    def accepted(tit: bool, k: bool) -> frozenset[str]:
        return frozenset(f.name for f in MANIFEST
                         if f.outcome_for(tit, k).result == "accept")

    full = accepted(True, True)
    for tit, k in COMBOS[:-1]:
        subset = accepted(tit, k)
        assert subset < full, (tit, k)
    assert "russell.tt" in full
    assert all("russell.tt" not in accepted(tit, k) for tit, k in COMBOS[:-1])
    assert "russell_loop.tt" not in full  # rejected everywhere, by fuel


def _global_names(t: Term) -> set[str]:
    if isinstance(t, Global):
        return {t.name}
    found: set[str] = set()
    for f in dataclasses.fields(t):
        v = getattr(t, f.name)
        if isinstance(v, Term):
            found |= _global_names(v)
    return found


def test_no_dead_definitions():
    for corpus_file in MANIFEST:
        items = parse(corpus_file.path.read_text())
        known: set[str] = set()
        used: dict[str, bool] = {}
        for item in items:
            if isinstance(item, Definition):
                terms = [item.ty, item.body]
            elif hasattr(item, "ty"):
                terms = [item.expr, item.ty]
            else:
                terms = [item.expr]
            for surface_term in terms:
                core = resolve_expr(surface_term, frozenset(known))
                for name in _global_names(core):
                    used[name] = True
            if isinstance(item, Definition):
                used.setdefault(item.name, False)
                known.add(item.name)
        dead = [name for name, is_used in used.items() if not is_used]
        assert dead == [], (corpus_file.name, dead)


def test_type_preservation_on_checked_declarations():
    flags = FlagSet(type_in_type=True, enable_k=True, fuel=1_000_000)
    for fname in ("prelude_coe.tt", "prelude.tt", "sets.tt", "russell.tt"):
        path = next(f.path for f in MANIFEST if f.name == fname)
        sig = build_signature(path.read_text(), flags)
        for name, entry in sig.entries.items():
            if name == "falsum":
                with pytest.raises(FuelExhausted):
                    normalize((), entry.body, Fuel.budget(1_000_000), sig)
                continue
            normal = normalize((), entry.body, Fuel.budget(1_000_000), sig)
            ctx = Context(sig, flags, Fuel.budget(1_000_000))
            check(ctx, normal, entry.ty)  # raises on any violation


def test_runs_are_reproducible():
    for corpus_file in MANIFEST:
        for tit, k in COMBOS:
            fuel = 10_000 if corpus_file.name == "russell_loop.tt" else 1_000_000
            first = run_file(corpus_file, tit, k, fuel)
            second = run_file(corpus_file, tit, k, fuel)
            assert first == second
