"""Evaluation, read-back, conversion, and the fuel discipline."""

from __future__ import annotations

from pathlib import Path

import pytest

from oracles import build_signature, numeral, oracle_normalize
from tinytt.kernel import FlagSet
from tinytt.semantics import (
    Fuel, FuelExhausted, Signature, convert, eval_term, normalize, vvar,
)
from tinytt.syntax import (
    App, ElimJ, ElimK, Fst, Global, Id, Lambda, Nat, NatElim, Pair, Pi,
    Refl, Sigma, Snd, Succ, TT, Universe, Unit, Var, Zero, alpha_equal,
)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
PERMISSIVE = FlagSet(type_in_type=True, enable_k=True, fuel=1_000_000)


def russell_signature() -> Signature:
    return build_signature((CORPUS / "russell.tt").read_text(), PERMISSIVE)


def spent(fuel: Fuel) -> int:
    return fuel.total - fuel.remaining


def test_fuel_budget_is_exact():
    fuel = Fuel.budget(3)
    fuel.spend()
    fuel.spend()
    fuel.spend()
    with pytest.raises(FuelExhausted) as exc:
        fuel.spend()
    assert exc.value.steps == 3
    assert str(exc.value) == "fuel exhausted after 3 steps"


@pytest.mark.parametrize("term,cost", [
    (App(Lambda("x", Var(0)), Zero()), 1),
    (Fst(Pair(Zero(), TT())), 1),
    (Snd(Pair(Zero(), TT())), 1),
    (ElimJ(Nat(), Zero(), Lambda("y", Lambda("_", Nat())), Zero(), Zero(), Refl()), 1),
    (ElimK(Nat(), Zero(), Lambda("_", Nat()), Zero(), Refl()), 1),
    # Two successor layers at one step each, a zero layer, and two beta
    # steps per successor application.
    (NatElim(Lambda("_", Nat()), Zero(), Lambda("m", Lambda("p", Succ(Var(0)))), numeral(2)), 7),
])
def test_each_reduction_step_costs_one(term, cost):
    fuel = Fuel.budget(100)
    normalize((), term, fuel, Signature())
    assert spent(fuel) == cost


def test_stuck_eliminations_spend_nothing():
    env = (vvar(0),)
    for term in (Fst(Var(0)), Snd(Var(0)), App(Var(0), Zero()),
                 ElimJ(Nat(), Zero(), Lambda("y", Lambda("_", Nat())),
                       Zero(), Zero(), Var(0)),
                 NatElim(Lambda("_", Nat()), Zero(),
                         Lambda("m", Lambda("p", Var(0))), Var(0))):
        fuel = Fuel.budget(100)
        eval_term(env, term, fuel, Signature())
        assert spent(fuel) == 0, term


def test_neutral_quotes_back_to_itself():
    env = (vvar(0),)
    term = App(Fst(Var(0)), Zero())
    fuel = Fuel.budget(100)
    assert alpha_equal(normalize(env, term, fuel, Signature()), term)


def test_nat_elim_on_stuck_target_spends_nothing_and_quotes():
    env = (vvar(0),)
    term = NatElim(Lambda("_", Nat()), Zero(),
                   Lambda("m", Lambda("p", Succ(Var(0)))), Var(0))
    fuel = Fuel.budget(100)
    value = eval_term(env, term, fuel, Signature())
    assert spent(fuel) == 0
    quoted = normalize(env, term, Fuel.budget(100), Signature())
    assert type(quoted) is NatElim
    assert alpha_equal(quoted.target, Var(0))


def test_succ_of_stuck_nat_folds_layers_above_the_neutral():
    # succ (succ x) under natElim: two paid layers on a stuck base.
    env = (vvar(0),)
    term = NatElim(Lambda("_", Nat()), Zero(),
                   Lambda("m", Lambda("p", Succ(Var(0)))),
                   Succ(Succ(Var(0))))
    fuel = Fuel.budget(100)
    value = eval_term(env, term, fuel, Signature())
    # 2 layer steps + 2 beta steps per layer; no zero step.
    assert spent(fuel) == 6
    quoted = normalize(env, term, Fuel.budget(100), Signature())
    assert type(quoted) is Succ and type(quoted.arg) is Succ


def test_function_eta_holds():
    env = (vvar(0),)
    fuel = Fuel.budget(100)
    sig = Signature()
    wrapped = eval_term(env, Lambda("x", App(Var(1), Var(0))), fuel, sig)
    bare = eval_term(env, Var(0), fuel, sig)
    assert convert(1, wrapped, bare, fuel, sig)
    assert convert(1, bare, wrapped, fuel, sig)


def test_pairs_have_no_eta():
    env = (vvar(0),)
    fuel = Fuel.budget(100)
    sig = Signature()
    rebuilt = eval_term(env, Pair(Fst(Var(0)), Snd(Var(0))), fuel, sig)
    bare = eval_term(env, Var(0), fuel, sig)
    assert not convert(1, rebuilt, bare, fuel, sig)


def test_unit_has_no_eta():
    fuel = Fuel.budget(100)
    sig = Signature()
    assert not convert(1, eval_term((), TT(), fuel, sig), vvar(0), fuel, sig)


def test_convert_distinguishes_universe_levels_but_not_wildcard():
    fuel = Fuel.budget(10)
    sig = Signature()
    u0 = eval_term((), Universe(0), fuel, sig)
    u1 = eval_term((), Universe(1), fuel, sig)
    uw = eval_term((), Universe(None), fuel, sig)
    assert not convert(0, u0, u1, fuel, sig)
    assert convert(0, u0, uw, fuel, sig)
    assert convert(0, uw, u1, fuel, sig)


def test_convert_is_an_equivalence_on_a_value_pool():
    sig = russell_signature()
    fuel = Fuel.budget(100_000)
    env = (vvar(0),)  # one stuck variable so the pool has neutrals
    pool_terms = [
        Zero(), numeral(2), TT(),
        Nat(), Unit(), Universe(0),
        Lambda("n", Var(0)),
        # Same function after a beta step: equal to the identity above
        # only through evaluation, not syntactically.
        Lambda("n", App(Lambda("m", Var(0)), Var(0))),
        Pair(Zero(), TT()),
        Pi("n", Nat(), Nat()),
        Global("V"),
        Sigma("A", Universe(0), Pi("_", Var(0), Universe(0))),
        Var(0), Fst(Var(0)), App(Var(0), Zero()),
    ]
    pool = [eval_term(env, t, fuel, sig) for t in pool_terms]

    def eq(a, b):
        return convert(1, a, b, Fuel.budget(10_000), sig)

    for v in pool:
        assert eq(v, v)
    for a in pool:
        for b in pool:
            assert eq(a, b) == eq(b, a)
    for a in pool:
        for b in pool:
            for c in pool:
                if eq(a, b) and eq(b, c):
                    assert eq(a, c)
    # The pool is not all-equal or all-distinct, so the laws above bite.
    assert eq(pool[6], pool[7])
    assert eq(pool[10], pool[11])
    assert not eq(pool[0], pool[1])


def test_normalize_is_idempotent_on_samples():
    samples = [
        App(Lambda("x", Pair(Var(0), Var(0))), Zero()),
        NatElim(Lambda("_", Nat()), Zero(),
                Lambda("m", Lambda("p", Succ(Var(0)))), numeral(3)),
        Lambda("f", App(Var(0), numeral(2))),
        Pi("A", Universe(0), Pi("_", Var(0), Var(1))),
    ]
    for t in samples:
        once = normalize((), t, Fuel.budget(1000), Signature())
        twice = normalize((), once, Fuel.budget(1000), Signature())
        assert alpha_equal(once, twice), t


def test_globals_unfold_transparently():
    sig = russell_signature()
    for name, entry in sig.entries.items():
        if name == "falsum":
            continue  # its body has no normal form at any budget
        direct = normalize((), Global(name), Fuel.budget(1_000_000), sig)
        unfolded = normalize((), entry.body, Fuel.budget(1_000_000), sig)
        assert alpha_equal(direct, unfolded), name


def test_more_fuel_does_not_change_normal_forms():
    sig = russell_signature()
    elem_v_r_r = App(App(App(Global("elem"), Global("V")), Global("R")), Global("R"))
    terms = [
        elem_v_r_r,
        App(App(App(App(Global("coe"), Nat()), Nat()), Refl()), numeral(2)),
        Fst(Global("R")),
    ]
    for t in terms:
        small = normalize((), t, Fuel.budget(10_000), sig)
        large = normalize((), t, Fuel.budget(1_000_000), sig)
        assert alpha_equal(small, large), t


def test_coe_along_refl_is_identity():
    sig = russell_signature()
    env = (vvar(0),)
    term = App(App(App(App(Global("coe"), Universe(0)), Universe(0)), Refl()), Var(0))
    assert alpha_equal(normalize(env, term, Fuel.budget(1000), sig), Var(0))


def test_coe_on_stuck_proof_stays_neutral():
    sig = russell_signature()
    env = (vvar(0),)  # p : Id U Nat Nat, never refl
    term = App(App(App(App(Global("coe"), Nat()), Nat()), Var(0)), Zero())
    quoted = normalize(env, term, Fuel.budget(1000), sig)
    assert type(quoted) is App
    assert type(quoted.fn) is ElimJ
    assert alpha_equal(quoted.fn.proof, Var(0))
    assert alpha_equal(quoted.arg, Zero())


def test_elem_v_r_r_unfolds_to_sigma_over_id_u_v_v():
    sig = russell_signature()
    term = App(App(App(Global("elem"), Global("V")), Global("R")), Global("R"))
    quoted = normalize((), term, Fuel.budget(1_000_000), sig)
    assert type(quoted) is Sigma
    head = quoted.first
    assert type(head) is Id
    assert type(head.ty) is Universe
    assert alpha_equal(head.lhs, head.rhs)
    v_normal = normalize((), Global("V"), Fuel.budget(1000), sig)
    assert alpha_equal(head.lhs, v_normal)


def test_fst_of_russell_set_is_the_carrier():
    sig = russell_signature()
    quoted = normalize((), Fst(Global("R")), Fuel.budget(1_000_000), sig)
    assert alpha_equal(quoted, normalize((), Global("V"), Fuel.budget(1000), sig))


@pytest.mark.parametrize("budget", [10, 100, 1000, 10_000])
def test_falsum_exhausts_any_budget_exactly(budget):
    sig = russell_signature()
    sig.entries["falsum"].cached = None  # force a fresh evaluation
    with pytest.raises(FuelExhausted) as exc:
        eval_term((), Global("falsum"), Fuel.budget(budget), sig)
    assert exc.value.steps == budget


def test_oracle_agrees_on_checked_corpus_globals():
    sig = russell_signature()
    defs = {name: entry.body for name, entry in sig.entries.items()}
    for name in sig.entries:
        if name == "falsum":
            continue
        mine = normalize((), Global(name), Fuel.budget(1_000_000), sig)
        ref = oracle_normalize(Global(name), defs)
        assert alpha_equal(mine, ref), name
