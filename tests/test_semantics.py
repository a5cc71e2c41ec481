"""Evaluation, read-back, conversion, and the fuel discipline."""

from __future__ import annotations

import copy
import functools
from pathlib import Path
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from oracles import (
    FAMILIES, build_signature, numeral, oracle_normalize, reference_quote,
)
from tinytt import codegen, semantics
from tinytt.kernel import FlagSet, check_declaration
from tinytt.pretty import pretty
from tinytt.semantics import (
    _CONSTS, FORMER, V_NAT, V_REFL, V_U0, V_ZERO, Closure, Fuel, FuelExhausted,
    SigEntry, Signature, VId, VNeutral, VPair, VPi, VSigma, VSucc, VUniverse,
    convert, eval_term, normalize, quote, vapp, vvar,
)
from tinytt.syntax import (
    FIELDS, Absurd, App, ElimJ, ElimK, Fst, Global, Id, Lambda, Nat, NatElim,
    Pair, Pi, Refl, Sigma, Snd, Succ, TT, Universe, Unit, Var, Zero,
    alpha_equal, shift,
)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
PERMISSIVE = FlagSet(type_in_type=True, enable_k=True, fuel=1_000_000)


def russell_signature() -> Signature:
    return build_signature((CORPUS / "russell.tt").read_text(), PERMISSIVE)


def spent(fuel: Fuel) -> int:
    return fuel.total - fuel.remaining


def term_size(t) -> int:
    return 1 + sum(term_size(getattr(t, name)) for name, _ in FIELDS[type(t)])


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
    # Each case's cost is its reduction steps; the comment gives the
    # total that `normalize` spends with read-back added.
    (App(Lambda("x", Var(0)), Zero()), 1),  # 2
    (Fst(Pair(Zero(), TT())), 1),  # 2
    (Snd(Pair(Zero(), TT())), 1),  # 2
    (ElimJ(Nat(), Zero(), Lambda("y", Lambda("_", Nat())), Zero(), Zero(), Refl()), 1),  # 2
    (ElimK(Nat(), Zero(), Lambda("_", Nat()), Zero(), Refl()), 1),  # 2
    # Two successor layers at one step each, a zero layer, and two beta
    # steps per successor application.
    (NatElim(Lambda("_", Nat()), Zero(), Lambda("m", Lambda("p", Succ(Var(0)))), numeral(2)), 7),  # 10
    # A saturated curried spine: one beta step per argument.
    (App(App(App(Lambda("x", Lambda("y", Lambda("z", Var(2)))), Zero()), TT()), Zero()), 3),  # 4
    # A partial application: one beta step, plus one to read the
    # remaining binder back.
    (App(Lambda("x", Lambda("y", Var(1))), Zero()), 2),  # 4
    # An over-application whose first body is a variable, not a lambda.
    (App(App(Lambda("f", Var(0)), Lambda("x", Var(0))), Zero()), 2),  # 3
])
def test_each_reduction_step_costs_one(term, cost):
    # Read-back costs one more unit per node of these normal forms, none
    # of which holds a stuck elimination.
    fuel = Fuel.budget(100)
    normal = normalize((), term, fuel, Signature())
    assert spent(fuel) == cost + term_size(normal)


def test_stuck_eliminations_spend_nothing():
    env = (vvar(0),)
    for term in (Fst(Var(0)), Snd(Var(0)), App(Var(0), Zero()),
                 App(App(Var(0), Zero()), TT()),
                 ElimJ(Nat(), Zero(), Lambda("y", Lambda("_", Nat())),
                       Zero(), Zero(), Var(0)),
                 ElimK(Nat(), Zero(), Lambda("_", Nat()), Zero(), Var(0)),
                 Absurd(Lambda("_", Nat()), Var(0)),
                 NatElim(Lambda("_", Nat()), Zero(),
                         Lambda("m", Lambda("p", Var(0))), Var(0))):
        fuel = Fuel.budget(100)
        eval_term(env, term, fuel, Signature())
        assert spent(fuel) == 0, term


# One stuck elimination per eliminator, on the free variable. The other
# fields hold distinct constants, so a frame that mixed up its fields
# would quote back wrong; evaluation is untyped, so they need not check.
# Each comes with its read-back cost: one unit for the neutral and one
# per value its frames hold, at no reduction step.
STUCK = {
    "app": (App(Var(0), Zero()), 2),
    "fst": (Fst(Var(0)), 1),
    "snd": (Snd(Var(0)), 1),
    "J": (ElimJ(Nat(), Zero(), Unit(), TT(), Succ(Zero()), Var(0)), 7),
    "K": (ElimK(Nat(), Zero(), Unit(), TT(), Var(0)), 5),
    "absurd": (Absurd(Unit(), Var(0)), 2),
    "natElim": (NatElim(Nat(), Zero(), Unit(), Var(0)), 4),
    "fst-then-app": (App(Fst(Var(0)), Zero()), 2),
}


@pytest.mark.parametrize("term,cost", STUCK.values(), ids=STUCK.keys())
def test_neutral_quotes_back_to_itself(term, cost):
    env = (vvar(0),)
    fuel = Fuel.budget(100)
    assert alpha_equal(normalize(env, term, fuel, Signature()), term)
    assert spent(fuel) == cost


def test_quoting_a_pair_costs_one_per_node():
    fuel = Fuel.budget(100)
    assert alpha_equal(quote(0, VPair(V_ZERO, V_ZERO), fuel, Signature()),
                       Pair(Zero(), Zero()))
    assert spent(fuel) == 3


def test_converting_one_object_costs_one():
    sig = Signature()
    big = eval_term((), numeral(50), Fuel.budget(100), sig)
    fuel = Fuel.budget(100)
    assert convert(0, big, big, fuel, sig)
    assert spent(fuel) == 1


def test_converting_equal_copies_costs_one_per_pair_compared():
    # Two pair objects over the shared zero: the pairs, then each side,
    # where the shared zero is an identity hit.
    fuel = Fuel.budget(100)
    assert convert(0, VPair(V_ZERO, V_ZERO), VPair(V_ZERO, V_ZERO), fuel, Signature())
    assert spent(fuel) == 3


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
        Var(0), Fst(Var(0)), App(Var(0), Zero()), Snd(Var(0)),
        NatElim(Lambda("_", Nat()), Zero(), Lambda("m", Lambda("p", Var(0))), Var(0)),
        # The same stuck natElim up to a beta step in its successor case.
        NatElim(Lambda("_", Nat()), Zero(),
                Lambda("m", Lambda("p", App(Lambda("q", Var(0)), Var(0)))), Var(0)),
        NatElim(Lambda("_", Nat()), numeral(1), Lambda("m", Lambda("p", Var(0))), Var(0)),
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
    assert not eq(pool[13], pool[15])  # fst x and snd x
    assert eq(pool[16], pool[17])
    assert not eq(pool[16], pool[18])


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
    head = quoted.domain
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


_EXACT_SIG = russell_signature()


def _fresh_normalize(name: str, fuel: Fuel):
    """Normal form of a global, or the FuelExhausted it raised, with every
    global's cached value dropped first so the call pays for all forcing."""
    for entry in _EXACT_SIG.entries.values():
        entry.cached = None
    try:
        return normalize((), Global(name), fuel, _EXACT_SIG)
    except FuelExhausted as exc:
        return exc


@functools.cache
def _at_large_budget(name: str):
    fuel = Fuel.budget(1_000_000)
    return _fresh_normalize(name, fuel), spent(fuel)


@settings(deadline=None)  # the first example of each global pays for its reference
@given(st.sampled_from(sorted(_EXACT_SIG.entries)), st.integers(1, 2000))
def test_fuel_exhaustion_is_exact_at_any_budget(name, budget):
    # Exhaustion can fall anywhere, between the arguments of a spine
    # included; either way it lands on the budget exactly.
    ref, ref_spent = _at_large_budget(name)
    fuel = Fuel.budget(budget)
    result = _fresh_normalize(name, fuel)
    if isinstance(result, FuelExhausted):
        assert result.steps == budget
        assert fuel.remaining == 0
        assert isinstance(ref, FuelExhausted) or budget < ref_spent
    else:
        assert not isinstance(ref, FuelExhausted)
        assert alpha_equal(result, ref)
        assert spent(fuel) == ref_spent


def test_oracle_agrees_on_checked_corpus_globals():
    sig = russell_signature()
    defs = {name: entry.body for name, entry in sig.entries.items()}
    for name in sig.entries:
        if name == "falsum":
            continue
        mine = normalize((), Global(name), Fuel.budget(1_000_000), sig)
        ref = oracle_normalize(Global(name), defs)
        assert alpha_equal(mine, ref), name


def _outcome(sig: Signature, term, budget: int):
    """Normalize `term` with every global's cached value dropped first: the
    normal form or the FuelExhausted raised, the fuel left, and the
    globals forced on the way."""
    for entry in sig.entries.values():
        entry.cached = None
    fuel = Fuel.budget(budget)
    try:
        result = normalize((), term, fuel, sig)
    except FuelExhausted as exc:
        result = exc
    forced = {name for name, entry in sig.entries.items() if entry.cached is not None}
    return result, fuel.remaining, forced


def _assert_same(compiled, interpreted, budget: int) -> None:
    (result, left, forced), (expected, expected_left, expected_forced) = compiled, interpreted
    if isinstance(expected, FuelExhausted):
        assert isinstance(result, FuelExhausted)
        assert result.steps == expected.steps == budget
    else:
        assert not isinstance(result, FuelExhausted)
        assert alpha_equal(result, expected)
    assert left == expected_left
    assert forced == expected_forced


def _interpret_only(monkeypatch) -> None:
    """Force every function definition to an uncompiled closure."""
    monkeypatch.setattr(codegen, "closure",
                        lambda sig, lam: Closure(lam.name, (), lam.body))


@pytest.mark.parametrize("path", ["russell.tt", "sets.tt", "prelude_coe.tt"])
def test_compiled_evaluation_matches_the_interpreter(path, monkeypatch):
    # Every global at every budget up to 400, where exhaustion can fall
    # between any two steps, and at one that lets each finish.
    budgets = [*range(1, 401), 1_000_000]
    text = (CORPUS / path).read_text()
    sig = build_signature(text, PERMISSIVE)
    compiled = {(name, budget): _outcome(sig, Global(name), budget)
                for name in sig.entries for budget in budgets}
    assert sig.code
    _interpret_only(monkeypatch)
    sig = build_signature(text, PERMISSIVE)
    for (name, budget), outcome in compiled.items():
        _assert_same(outcome, _outcome(sig, Global(name), budget), budget)
    assert not sig.code


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_compiled_evaluation_matches_the_interpreter_on_generated_terms(family, monkeypatch):
    # Each generated term becomes the body of `fun _ => term`, applied.
    budgets = [*range(1, 80), 1_000_000]
    rng = Random(f"codegen-{family}")
    instances = [FAMILIES[family](rng) for _ in range(30)]
    for inst in instances:
        check_declaration(inst.sig, "wrapped", Pi("_", Unit(), inst.ty),
                          Lambda("_", shift(inst.term, 0, 1)),
                          FlagSet(enable_k=inst.enable_k))
    term = App(Global("wrapped"), TT())
    compiled = [[_outcome(inst.sig, term, budget) for budget in budgets]
                for inst in instances]
    _interpret_only(monkeypatch)
    for inst, outcomes in zip(instances, compiled):
        for budget, outcome in zip(budgets, outcomes):
            _assert_same(outcome, _outcome(inst.sig, term, budget), budget)


def test_a_body_too_deep_to_compile_stays_interpreted():
    # 120 nested J cases would need more indentation than Python allows.
    body = Var(0)
    for _ in range(120):
        body = ElimJ(Nat(), Zero(), Lambda("y", Lambda("_", Nat())), body, Zero(), Refl())
    sig = Signature()
    check_declaration(sig, "f", Pi("_", Nat(), Nat()), Lambda("x", body), FlagSet())
    fuel = Fuel.budget(1000)
    assert alpha_equal(normalize((), App(Global("f"), Zero()), fuel, sig), Zero())
    assert spent(fuel) == 122  # 1 beta step, 120 J steps and 1 read-back
    assert sig.entries["f"].cached.code is None


def test_a_partial_application_keeps_its_compiled_body():
    # `coe U U` stops under two of coe's four lambdas. Whether `eval_term`
    # or two `vapp` calls apply it, `enter` builds the closure left over,
    # which keeps the compiled function of coe's body and runs it when
    # saturated.
    sig = russell_signature()
    coe = sig.value_of("coe", Fuel.budget(10))
    assert coe.code is not None
    fuel = Fuel.budget(10)
    partial = eval_term((), App(App(Global("coe"), Universe()), Universe()), fuel, sig)
    assert spent(fuel) == 2
    by_vapp = vapp(vapp(coe, VUniverse(), fuel, sig), VUniverse(), fuel, sig)
    for closure in (partial, by_vapp):
        assert type(closure) is Closure and type(closure.term) is Lambda
        assert closure.code is coe.code
    # Saturated with refl and a neutral argument, J reduces to the identity.
    a = vvar(0)
    fuel = Fuel.budget(10)
    assert vapp(vapp(partial, V_REFL, fuel, sig), a, fuel, sig) is a


def forcing_signature() -> Signature:
    """`g` and `N` each cost one beta step the first time they are forced
    and nothing afterwards, so a re-read that forced neither is cheaper."""
    return Signature({
        "id": SigEntry(V_NAT, Lambda("x", Var(0))),
        "g": SigEntry(V_NAT, App(Global("id"), Succ(Zero()))),
        "N": SigEntry(V_U0, App(Lambda("A", Var(0)), Nat())),
    })


# Closure bodies over their binder (Var 0), the pool value they capture
# (Var 1), and globals that cost fuel to force.
_BODIES = (Var(1), Global("g"), Global("N"), Pair(Var(0), Var(1)),
           Pair(Var(1), Global("g")))


@st.composite
def shared_values(draw) -> semantics.Value:
    """A value built from a pool whose later nodes reuse earlier ones:
    pairs, Id and Σ/Π types over closures that read pool values or force
    globals, successors, and neutrals with several frame values. Its
    one free variable is read back at depth 1."""
    pool = [V_ZERO, vvar(0), Closure("n", (), Global("g"))]
    for _ in range(draw(st.integers(1, 8))):
        # Counted from the newest, so that nodes nest as well as share.
        a, b, c = (pool[-1 - draw(st.integers(0, len(pool) - 1))] for _ in range(3))
        body = Closure("x", (b,), draw(st.sampled_from(_BODIES)))
        pool.append(draw(st.sampled_from((
            VPair(a, b), VId(a, b, c), VSucc(a), VPi(a, body), VSigma(a, body), body,
            VNeutral(0, ((NatElim, (a, b, c)),)),
            VNeutral(0, ((App, (a,)), (Fst, ()), (App, (b,)))),
        ))))
    return pool[-1]


def dup_value(k: int) -> semantics.Value:
    """`v_k` of the dup tower over a pair whose first reading forces `g`."""
    v = VPair(Closure("n", (), Global("g")), vvar(0))
    for _ in range(k):
        v = VPair(v, v)
    return v


def sigma_tower(k: int) -> semantics.Value:
    """`T_k := T_(k-1) * T_(k-1)`, whose codomain is read one binder deeper."""
    t = V_NAT
    for _ in range(k):
        t = VSigma(t, Closure("_", (t,), Var(1)))
    return t


def _read_back(read, v, budget: int):
    """The term, the exhaustion step count, the fuel left, and the globals
    the read-back forced, which show the order it read in."""
    fuel, sig = Fuel.budget(budget), forcing_signature()
    term = steps = None
    try:
        term = read(1, v, fuel, sig)
    except FuelExhausted as exc:
        steps = exc.steps
    forced = [name for name, e in sig.entries.items() if e.cached is not None]
    return term, steps, fuel.remaining, forced


_FORCED_TWICE = VPair(VPair(Closure("n", (), Global("g")), V_ZERO),
                      VPair(Closure("n", (), Global("g")), V_ZERO))
# A pair over the free variable, read at depth 1 and again under a binder.
_OPEN_PAIR = VPair(vvar(0), V_ZERO)
_SHARED_NEUTRAL = VNeutral(0, ((NatElim, (V_NAT, V_ZERO, Closure("n", (), Global("g")))),))


@settings(max_examples=100, deadline=None)
@given(st.one_of(shared_values(), st.integers(0, 7).map(dup_value),
                 st.integers(0, 5).map(sigma_tower)))
@example(dup_value(1))
@example(VPair(_FORCED_TWICE, _FORCED_TWICE))
@example(VPair(_SHARED_NEUTRAL, _SHARED_NEUTRAL))
@example(VPi(_OPEN_PAIR, Closure("x", (_OPEN_PAIR,), Var(1))))
# The codomain forces `N` when it is opened, and the domain forces `g`.
@example(VPi(Closure("n", (), Global("g")), Closure("x", (), Global("N"))))
def test_shared_read_back_is_exact_at_every_budget(v):
    # A shared node read again costs what its first reading cost, so the
    # term, the fuel left, the exhaustion and the globals forced match a
    # tree walk at every budget, including the one just short of the
    # whole cost.
    full, _, left, _ = _read_back(reference_quote, v, 10**6)
    cost = 10**6 - left
    assume(cost <= 1500)
    assert pretty(_read_back(quote, v, cost)[0], ("z",)) == pretty(full, ("z",))
    for budget in range(cost + 2):
        ref_term, ref_steps, ref_left, ref_forced = _read_back(reference_quote, v, budget)
        term, steps, left, forced = _read_back(quote, v, budget)
        assert (steps, left, forced) == (ref_steps, ref_left, ref_forced), budget
        assert (term is None) == (ref_term is None), budget
        assert term is None or alpha_equal(term, ref_term), budget


def _children(v: semantics.Value) -> list[semantics.Value]:
    """The values stored directly in `v`."""
    if type(v) is Closure:
        return list(v.env)
    if type(v) is VNeutral:
        return [x for _, vals in v.spine for x in vals]
    return [getattr(v, name) for name, _ in FIELDS[FORMER[type(v)]]] if type(v) in FORMER else []


@st.composite
def convert_pairs(draw) -> tuple[semantics.Value, semantics.Value]:
    """A shared value `a`, and `a` itself, a copy of `a` or a copy of one
    of its children. A copy shares nothing with `a` but the one instance
    of each nullary former, so `convert` must walk it."""
    a = draw(shared_values())
    kind = draw(st.sampled_from(("same", "copy", "child")))
    if kind == "same":
        return a, a
    b = draw(st.sampled_from(_children(a) or [a])) if kind == "child" else a
    return a, copy.deepcopy(b, {id(c): c for c in _CONSTS.values()})


@settings(max_examples=300, deadline=None)
@given(convert_pairs())
def test_convert_agrees_with_comparing_reference_read_backs(pair):
    a, b = pair
    ta, tb = (reference_quote(1, v, Fuel.budget(10**6), forcing_signature()) for v in pair)
    assert convert(1, a, b, Fuel.budget(10**6), forcing_signature()) == alpha_equal(ta, tb)


@pytest.mark.parametrize("k", [10, 20])
def test_reading_back_a_dup_tower_reads_each_level_once(k, monkeypatch):
    # v_k is one pair over two copies of v_(k-1): k + 1 objects, 2^k
    # leaves. The second copy at each level is a memo hit, so the read-back
    # makes 2k + 1 calls and still spends one unit per node of the tree.
    v = V_ZERO
    for _ in range(k):
        v = VPair(v, v)
    calls = 0
    read = semantics._quote

    def counting(*args):
        nonlocal calls
        calls += 1
        return read(*args)
    monkeypatch.setattr(semantics, "_quote", counting)
    fuel = Fuel.budget(2 ** (k + 1))
    term = quote(0, v, fuel, Signature())
    assert calls == 2 * k + 1
    assert spent(fuel) == 2 ** (k + 1) - 1
    assert term.first is term.second
