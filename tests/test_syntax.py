"""Core syntax: the field table, shift and alpha equality."""

from __future__ import annotations

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import given

from oracles import _BINDER_FIELDS
from tinytt import syntax
from tinytt.syntax import (
    FIELDS, App, ElimJ, ElimK, Empty, Fst, Global, Id, Lambda, Nat, NatElim,
    Pair, Pi, Refl, Sigma, Snd, Span, Succ, TT, Term, Universe, Unit, Var,
    Zero, alpha_equal, shift,
)

_names = st.sampled_from(["x", "y", "z", "f"])

_leaves = st.one_of(
    st.builds(Var, st.integers(0, 3)),
    st.builds(Universe, st.just(0)),
    st.builds(Global, st.sampled_from(["g", "h"])),
    st.just(Refl()), st.just(TT()), st.just(Zero()),
    st.just(Nat()), st.just(Unit()), st.just(Empty()),
)

terms = st.recursive(
    _leaves,
    lambda s: st.one_of(
        st.builds(Lambda, _names, s),
        st.builds(Pi, _names, s, s),
        st.builds(Sigma, _names, s, s),
        st.builds(App, s, s),
        st.builds(Pair, s, s),
        st.builds(Fst, s),
        st.builds(Snd, s),
        st.builds(Succ, s),
        st.builds(Id, s, s, s),
        st.builds(ElimK, s, s, s, s, s),
        st.builds(ElimJ, s, s, s, s, s, s),
        st.builds(NatElim, s, s, s, s),
    ),
    max_leaves=25,
)


def _rename_binders(t: Term, stamp: str) -> Term:
    """Rewrite every binder name; alpha equality must not notice."""
    if not isinstance(t, Term):
        return t
    fields = {}
    binder = isinstance(t, (Lambda, Pi, Sigma))
    for f in dataclasses.fields(t):
        v = getattr(t, f.name)
        if binder and f.name == "name":
            fields[f.name] = stamp
        elif isinstance(v, Term):
            fields[f.name] = _rename_binders(v, stamp)
        else:
            fields[f.name] = v
    return type(t)(**fields)


@given(terms)
def test_shift_by_zero_is_identity(t):
    assert alpha_equal(shift(t, 0, 0), t)


@given(terms, st.integers(0, 3), st.integers(0, 4), st.integers(0, 4))
def test_shift_composes(t, cutoff, a, b):
    assert alpha_equal(shift(shift(t, cutoff, a), cutoff, b),
                       shift(t, cutoff, a + b))


@given(terms)
def test_alpha_equal_is_reflexive(t):
    assert alpha_equal(t, t)


@given(terms)
def test_alpha_equal_ignores_binder_names(t):
    assert alpha_equal(t, _rename_binders(t, "w"))


@given(terms)
def test_alpha_equal_ignores_spans(t):
    span = Span(9, 9)
    stamped = dataclasses.replace(t, span=span) if dataclasses.is_dataclass(t) else t
    assert alpha_equal(t, stamped)


@given(terms, terms)
def test_alpha_equal_is_symmetric(a, b):
    assert alpha_equal(a, b) == alpha_equal(b, a)


@given(terms)
def test_alpha_equal_is_transitive_across_variants(t):
    # Chain t through a binder rename and a span stamp: every hop and the
    # closing pair must agree, which is transitivity on a nontrivial orbit.
    renamed = _rename_binders(t, "w")
    span = Span(9, 9)
    stamped = dataclasses.replace(renamed, span=span)
    assert alpha_equal(t, renamed)
    assert alpha_equal(renamed, stamped)
    assert alpha_equal(t, stamped)


def test_alpha_distinguishes_structure():
    assert not alpha_equal(Var(0), Var(1))
    assert not alpha_equal(Lambda("x", Var(0)), Lambda("x", Var(1)))
    assert not alpha_equal(Pair(Zero(), TT()), Pair(Zero(), Zero()))
    assert not alpha_equal(Universe(0), Universe(1))
    assert not alpha_equal(Global("a"), Global("b"))


def test_shift_respects_cutoff():
    # Var(0) under one binder is bound; Var(1) is free and moves.
    t = Lambda("x", App(Var(0), Var(1)))
    shifted = shift(t, 0, 3)
    assert alpha_equal(shifted, Lambda("x", App(Var(0), Var(4))))


def test_shift_leaves_closed_terms_alone():
    t = Lambda("x", Lambda("y", App(Var(1), Var(0))))
    assert alpha_equal(shift(t, 0, 5), t)


TERM_CLASSES = [cls for cls in vars(syntax).values()
                if isinstance(cls, type) and issubclass(cls, Term) and cls is not Term]


def test_field_table_covers_every_term_class():
    assert set(FIELDS) == set(TERM_CLASSES)


@pytest.mark.parametrize("cls", TERM_CLASSES, ids=lambda cls: cls.__name__)
def test_field_table_lists_the_term_fields_in_order(cls):
    term_fields = [f.name for f in dataclasses.fields(cls) if f.type == "Term"]
    assert [name for name, _ in FIELDS[cls]] == term_fields
    # The reference normalizer keeps its own list of binding fields.
    under_binder = _BINDER_FIELDS.get(cls, ())
    assert [binds for _, binds in FIELDS[cls]] == \
        [int(name in under_binder) for name in term_fields]


def test_a_span_is_a_position_that_ends_every_term():
    # The file a span is in is named only where a diagnostic is rendered.
    assert [f.name for f in dataclasses.fields(Span)] == ["line", "col"]
    for cls in TERM_CLASSES:
        last = dataclasses.fields(cls)[-1]
        assert (last.name, last.default) == ("span", None), cls
