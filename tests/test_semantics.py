"""Evaluation, read-back, conversion, and the fuel discipline."""

from __future__ import annotations

import copy
import functools
import io
import re
from pathlib import Path
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from oracles import (
    FAMILIES, build_signature, fresh, numeral, oracle_normalize, reference_quote,
)
from tinytt import cli, codegen, semantics
from tinytt.kernel import Context, FlagSet, check_declaration
from tinytt.semantics import (
    _CONSTS, FORMER, FRAME_FIELDS, V_NAT, V_REFL, V_U0, V_ZERO, Closure, Fuel,
    FuelExhausted, SigEntry, Signature, VId, VNeutral, VPair, VPi, VSigma,
    VSucc, VUniverse, convert, eval_term, normalize, quote, vapp, vvar,
)
from tinytt.surface import parse, pretty
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
    # A charge of several steps that finds fewer left spends what is left.
    fuel = Fuel.budget(3)
    fuel.spend(2)
    assert fuel.remaining == 1
    with pytest.raises(FuelExhausted) as exc:
        fuel.spend(2)
    assert (exc.value.steps, fuel.remaining) == (3, 0)


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


def _interpret_only(monkeypatch, *sigs: Signature) -> None:
    """Leave every function definition to the interpreter: compile nothing
    from now on, and drop what `sigs` compiled already, which `eval_term`
    would otherwise still find for a lambda's body."""
    monkeypatch.setattr(codegen, "compile_lambda", lambda sig, lam: None)
    for sig in sigs:
        sig.code.clear()


def _runs_compiled(sig: Signature, name: str) -> bool:
    """Whether global `name`, forced and applied to fresh variables under
    all its lambdas but the last, is a closure whose body is the function
    `sig.code` holds for the body under its lambdas."""
    v = sig.value_of(name, Fuel.budget(1))
    body, k = codegen._strip(sig.entries[name].body)
    fuel = Fuel.budget(k)
    for i in range(k - 1):
        v = vapp(v, vvar(i), fuel, sig)
    return type(v) is Closure and v.body is sig.code.get(body)


# Recursor arithmetic: literal two-lambda steps (`add`, `mul`), a step that
# returns a function (`f`), one that ignores its result (`g`), one that is
# not a two-lambda literal (`h`), natElims stuck on a variable (`inc`,
# `stuck`), and applications of each.
ARITHMETIC = """\
def add : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) n (fun _ r => succ r) m;
def mul : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) zero (fun _ r => add n r) m;
def f : Nat -> Nat -> Nat :=
  fun m => natElim (fun _ => Nat -> Nat) (fun y => y) (fun _ r => fun y => succ (r y)) m;
def g : Nat -> Nat := fun m => natElim (fun _ => Nat) zero (fun k _ => k) m;
def h : (Nat -> Nat) -> Nat -> Nat := fun s m => natElim (fun _ => Nat) zero (fun _ => s) m;
def inc : Nat -> Nat := fun n => add n (succ zero);
def two : Nat := succ (succ zero);
def three : Nat := succ two;
def sum : Nat := add three two;
def none : Nat := add zero three;
def product : Nat := mul three (mul two two);
def curried : Nat := f three two;
def pred : Nat := g three;
def iterated : Nat := h (add two) three;
def stuck : Nat -> Nat := fun n => mul (inc n) two;
"""


# Compiled code charges the steps of a straight-line run at once. `useK`
# forces `k`, whose own evaluation spends fuel, while the step that binds
# `succ n` is still owed. `first` and `viaJ` owe a step when their
# projection or J is stuck, as it is when they are read back under their
# binder. `useApp` passes a lambda literal, run twice, whose function is
# generated while `useApp`'s own owes a step.
BATCHED = """\
def add : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) n (fun _ r => succ r) m;
def two : Nat := succ (succ zero);
def k : Nat := add two two;
def useK : Nat -> Nat := fun n => add (succ n) k;
def first : (Nat * Nat) -> Nat := fun q => add (succ zero) (fst q);
def viaJ : Id Nat two two -> Nat := fun p => add (succ zero) (J Nat two (fun _ _ => Nat) k two p);
def twice : Nat -> (Nat -> Nat) -> Nat := fun x f => f (f x);
def useApp : Nat -> Nat := fun n => twice (succ n) (fun y => add y k);
def a : Nat := useK two;
def b : Nat := first (two, k);
def c : Nat := viaJ refl;
def d : Nat := useApp two;
"""

# A J or K whose case is a literal lambda, applied: compiled code runs the
# case's body without building its closure. The bodies are the bound
# variable (`same`), an outer one (`outer`), a call (`plusK`, whose
# argument takes more than a line) and a function applied further
# (`both`); `curried`'s case binds both its arguments. `cast`'s proof
# spends a step and forces `pr` before its argument forces `add`. Read
# back under their binders, the J and K are stuck. `viaId` calls `id`,
# whose body is a variable, statically.
APPLIED = """\
def add : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) n (fun _ r => succ r) m;
def two : Nat := succ (succ zero);
def k : Nat := add two two;
def same : Id U Nat Nat -> Nat -> Nat := fun h n => J U Nat (fun B _ => Nat -> B) (fun x => x) Nat h n;
def outer : Id U Nat Nat -> Nat -> Nat := fun h n => J U Nat (fun _ _ => Nat -> Nat) (fun x => n) Nat h zero;
def plusK : Id U Nat Nat -> Nat -> Nat := fun h n => J U Nat (fun B _ => Nat -> B) (fun x => add x k) Nat h (add n two);
def both : Id U Nat Nat -> Nat -> Nat := fun h n => J U Nat (fun _ _ => Nat -> Nat -> Nat) (fun x => add x) Nat h n k;
def curried : Id U Nat Nat -> Nat -> Nat := fun h n => J U Nat (fun _ _ => Nat -> Nat -> Nat) (fun x y => add y x) Nat h n two;
def viaK : Id U Nat Nat -> Nat -> Nat := fun h n => K U Nat (fun _ => Nat -> Nat) (fun x => succ x) h (plusK h n);
def nested : Id U Nat Nat -> Nat -> Nat := fun h n => same h (J U Nat (fun B _ => Nat -> B) (fun x => x) Nat h (J U Nat (fun B _ => Nat -> B) (fun x => succ x) Nat h n));
def pr : Nat -> Id U Nat Nat := fun _ => refl;
def cast : Nat -> Nat := fun n => J U Nat (fun B _ => Nat -> B) (fun x => x) Nat (pr n) (add n two);
def id : (A : U) -> A -> A := fun A x => x;
def viaId : Nat -> Nat := fun n => id Nat (add n two);
def a : Nat := same refl two;
def b : Nat := outer refl two;
def c : Nat := plusK refl two;
def d : Nat := both refl two;
def f : Nat := curried refl two;
def g : Nat := viaK refl two;
def i : Nat := nested refl two;
def j : Nat := cast two;
def l : Nat := viaId two;
"""

# Compiled code hands a pair or a type former to `eval_term`, and may
# return a global in tail position. `viaJ`'s J case is the global `four`,
# returned in tail position while the J's step is owed, and forcing it
# spends fuel. `pick` evaluates a pair into a variable and `tailpair`
# returns one, each while its J's step is owed.
FORMERS = """\
def add : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) n (fun _ r => succ r) m;
def two : Nat := add (succ zero) (succ zero);
def three : Nat := add two (succ zero);
def four : Nat := add two two;
def viaJ : Id Nat zero zero -> Nat := fun p => J Nat zero (fun _ _ => Nat) four zero p;
def pick : Id Nat zero zero -> Nat := fun p => fst (J Nat zero (fun _ _ => Nat * Nat) (two , zero) zero p);
def tailpair : Id Nat zero zero -> Nat * Nat := fun p => J Nat zero (fun _ _ => Nat * Nat) (three , zero) zero p;
def a : Nat := viaJ refl;
def b : Nat := pick refl;
def c : Nat := fst (tailpair refl);
"""

# Calls of leaf globals, which compiled code runs in place. `coe` is
# called in tail position (`tailCoe`), in argument position (`argCoe`, with
# four binders of its own, so that coe's stuck arm run on them would read
# a wrong motive) and with more arguments than it has lambdas (`more`,
# `moreArg`); read back under their binders, coe's J is stuck and its
# motive mentions coe's `A`. `outer`'s J case `fun x y => n` is applied to
# both its arguments and reads `n` past its binders; `useOuter` forces
# `outer`, then evaluates an argument that spends fuel and forces `k`.
# `keq` is a leaf whose K is stuck under `viaK`'s binder.
INLINED = """\
def add : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) n (fun _ r => succ r) m;
def two : Nat := succ (succ zero);
def k : Nat := add two two;
def coe : (A : U) -> (B : U) -> Id U A B -> A -> B := fun A B h a => J U A (fun B' _ => A -> B') (fun x => x) B h a;
def tailCoe : Id U Nat Nat -> Nat -> Nat := fun h n => coe Nat Nat h n;
def argCoe : Id U Nat Nat -> Nat -> Nat -> Nat -> Nat := fun h a b c => add (coe Nat Nat h a) c;
def more : Id U (Nat -> Nat) (Nat -> Nat) -> Nat -> Nat := fun h n => coe (Nat -> Nat) (Nat -> Nat) h (add k) n;
def moreArg : Id U (Nat -> Nat) (Nat -> Nat) -> Nat -> Nat :=
  fun h n => succ (coe (Nat -> Nat) (Nat -> Nat) h (fun y => add y n) two);
def outer : Id U Nat Nat -> Nat -> Nat -> Nat := fun h n m => J U Nat (fun B _ => Nat -> Nat -> B) (fun x y => n) Nat h m zero;
def useOuter : Id U Nat Nat -> Nat -> Nat := fun h n => outer h (add n k) n;
def keq : (A : U) -> (x : A) -> (h : Id U A A) -> Id A x (coe A A h x) :=
  fun A x h => K U A (fun h' => Id A x (coe A A h' x)) refl h;
def viaK : (h : Id U Nat Nat) -> Id Nat two (coe Nat Nat h two) := fun h => keq Nat two h;
def a : Nat := tailCoe refl two;
def b : Nat := argCoe refl two two k;
def c : Nat := more refl two;
def d : Nat := moreArg refl two;
def e : Nat := useOuter refl two;
def f : Id Nat two two := viaK refl;
"""

# Globals that compiled code reads first in the reducing arm of a J or K
# and again after the join, where the stuck arm has not read them: `arm`
# reads `k`, `later` reads `add`, `k` and `two`, and `viaK` reads `k`.
# Applied to refl the eliminators reduce; read back under their binders
# they are stuck, and the reads after the join must force again.
JOINED = """\
def add : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) n (fun _ r => succ r) m;
def two : Nat := succ (succ zero);
def k : Nat := add two two;
def arm : Id Nat zero zero -> Nat := fun p => add (J Nat zero (fun _ _ => Nat) (succ k) zero p) k;
def later : Id Nat zero zero -> (Nat -> Nat -> Nat) -> Nat :=
  fun p f => f (J Nat zero (fun _ _ => Nat) (add k two) zero p) (add two k);
def viaK : Id Nat zero zero -> Nat := fun p => succ (add (K Nat zero (fun _ => Nat) (succ k) p) k);
def a : Nat := arm refl;
def b : Nat := later refl add;
def c : Nat := viaK refl;
"""

# A leaf whose stuck J is projected, called with a lambda argument: under
# `use`'s binder the J and the projection are stuck, and `b`, applied to
# refl, takes the reducing path of both.
FST_COE = """\
def leaf : (A : U) -> Id U A A -> A -> (A * A) -> A := fun A h a q => fst (J U A (fun _ _ => A * A) q A h);
def use : Id U (Nat -> Nat) (Nat -> Nat) -> Nat -> Nat :=
  fun h => leaf (Nat -> Nat) h (fun y => y) (fun z => z, fun z => z);
def b : Nat -> Nat := use refl;
"""

# Each text of the tests, and the globals in it that must run compiled.
TEXTS = {"arithmetic": (ARITHMETIC, ("add", "mul")),
         "batched": (BATCHED, ("add", "useK", "first", "viaJ", "twice", "useApp")),
         "applied": (APPLIED, ("same", "outer", "plusK", "both", "curried", "viaK", "nested",
                               "cast", "viaId")),
         "formers": (FORMERS, ("viaJ", "pick", "tailpair")),
         "inlined": (INLINED, ("coe", "tailCoe", "argCoe", "more", "moreArg", "outer",
                               "useOuter", "keq", "viaK")),
         "joined": (JOINED, ("arm", "later", "viaK")),
         "fstCoe": (FST_COE, ("leaf", "use"))}


@pytest.mark.parametrize("path", ["russell.tt", "sets.tt", "prelude_coe.tt", *TEXTS])
def test_compiled_evaluation_matches_the_interpreter(path, monkeypatch):
    # Every global at every budget up to 400, where exhaustion can fall
    # between any two steps, and at one that lets each finish.
    budgets = [*range(1, 401), 1_000_000]
    text, compiled_names = TEXTS.get(path) or ((CORPUS / path).read_text(), ())
    sig = build_signature(text, PERMISSIVE)
    compiled = {(name, budget): _outcome(sig, Global(name), budget)
                for name in sig.entries for budget in budgets}
    assert sig.code
    for name in compiled_names:
        assert _runs_compiled(sig, name)
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
        check_declaration(fresh(FlagSet(enable_k=inst.enable_k), inst.sig), "wrapped",
                          Pi("_", Unit(), inst.ty), Lambda("_", shift(inst.term, 0, 1)))
    term = App(Global("wrapped"), TT())
    compiled = [[_outcome(inst.sig, term, budget) for budget in budgets]
                for inst in instances]
    # Every family's wrapper compiles, so the two sides really differ.
    for inst in instances:
        assert _runs_compiled(inst.sig, "wrapped")
    _interpret_only(monkeypatch, *(inst.sig for inst in instances))
    for inst, outcomes in zip(instances, compiled):
        for budget, outcome in zip(budgets, outcomes):
            _assert_same(outcome, _outcome(inst.sig, term, budget), budget)
        assert not inst.sig.code


def test_a_body_too_deep_to_compile_stays_interpreted():
    # 120 nested J cases would need more indentation than Python allows.
    body = Var(0)
    for _ in range(120):
        body = ElimJ(Nat(), Zero(), Lambda("y", Lambda("_", Nat())), body, Zero(), Refl())
    sig = Signature()
    sig.tier_up()
    check_declaration(fresh(FlagSet(), sig), "f", Pi("_", Nat(), Nat()), Lambda("x", body))
    fuel = Fuel.budget(1000)
    assert alpha_equal(normalize((), App(Global("f"), Zero()), fuel, sig), Zero())
    assert spent(fuel) == 122  # 1 beta step, 120 J steps and 1 read-back
    assert sig.entries["f"].cached.body is body and not sig.code


def _spy_on_compile(monkeypatch) -> list[str]:
    """The sources `codegen` compiles from now on."""
    sources: list[str] = []
    monkeypatch.setattr(codegen, "compile", lambda source, *rest: (
        sources.append(source), compile(source, *rest))[1], raising=False)
    return sources


def test_nested_zero_cases_compile_once_each(monkeypatch):
    # `fun x => natElim M (natElim M (... x ...) s x) s x`, `depth` deep in
    # the zero case; both branches of each natElim evaluate its zero case,
    # so code written out once per branch would double with every level.
    sources = _spy_on_compile(monkeypatch)
    step = Lambda("_", Lambda("r", Succ(Var(0))))
    budgets = [*range(1, 300), 1_000_000]
    cases = []
    for depth in (10, 30):
        body = Var(0)
        for _ in range(depth):
            body = NatElim(Lambda("_", Nat()), body, step, Var(0))
        sig = Signature()
        sig.tier_up()
        check_declaration(fresh(FlagSet(), sig), "f", Pi("_", Nat(), Nat()), Lambda("x", body))
        term = App(Global("f"), numeral(2))
        cases.append((sig, term, [_outcome(sig, term, budget) for budget in budgets]))
        assert _runs_compiled(sig, "f")
        assert sources[-1].count("\n") < 40 * depth
        assert alpha_equal(cases[-1][2][-1][0], numeral(2 * (depth + 1)))
    _interpret_only(monkeypatch, *(sig for sig, _, _ in cases))
    for sig, term, compiled in cases:
        for budget, outcome in zip(budgets, compiled):
            _assert_same(outcome, _outcome(sig, term, budget), budget)
        assert not sig.code


def test_nested_applied_cases_compile_once_each(monkeypatch):
    # `fun p x => (J … p) ((J … p) (… x))`, `depth` deep in the argument,
    # each J's case `fun y => succ y`; both arms of each J evaluate its
    # argument, so code written out once per arm would double with every
    # level.
    sources = _spy_on_compile(monkeypatch)
    motive = Lambda("_", Lambda("_", Pi("_", Nat(), Nat())))
    case = Lambda("y", Succ(Var(0)))
    ty = Pi("p", Id(Nat(), Zero(), Zero()), Pi("_", Nat(), Nat()))
    budgets = [*range(1, 300), 1_000_000]
    cases = []
    for depth in (10, 30):
        body = Var(0)
        for _ in range(depth):
            body = App(ElimJ(Nat(), Zero(), motive, case, Zero(), Var(1)), body)
        sig = Signature()
        sig.tier_up()
        check_declaration(fresh(FlagSet(), sig), "f", ty, Lambda("p", Lambda("x", body)))
        # Applied to refl every J reduces; read back under `p` every J is stuck.
        for term in (App(App(Global("f"), Refl()), numeral(2)), Global("f")):
            cases.append((sig, term, [_outcome(sig, term, budget) for budget in budgets]))
        assert _runs_compiled(sig, "f")
        assert sources[-1].count("\n") < 40 * depth
        assert alpha_equal(cases[-2][2][-1][0], numeral(2 + depth))
    _interpret_only(monkeypatch, *(sig for sig, _, _ in cases))
    for sig, term, compiled in cases:
        for budget, outcome in zip(budgets, compiled):
            _assert_same(outcome, _outcome(sig, term, budget), budget)
        assert not sig.code


def _cold(text: str) -> Signature:
    """The checked globals of `text` in a fresh signature, none forced yet."""
    sig = build_signature(text, PERMISSIVE)
    return Signature({name: SigEntry(entry.ty, entry.body) for name, entry in sig.entries.items()})


def _unforced(text: str) -> Signature:
    """The checked globals of `text`, none forced or compiled yet, in a
    signature tiered up so that each lambda global compiles when forced."""
    sig = _cold(text)
    sig.tier_up()
    return sig


def test_a_forcing_that_runs_out_is_not_listed_as_forced():
    # `sum` is `add three two`: with its parts forced, forcing it spends
    # two beta steps. On one it runs out, caches nothing and lists
    # nothing; forced again, it is listed once.
    sig = _cold(ARITHMETIC)
    for name in ("add", "three"):
        sig.value_of(name, Fuel.budget(100))
    forced = list(sig.forced)
    with pytest.raises(FuelExhausted):
        sig.value_of("sum", Fuel.budget(1))
    assert sig.forced == forced and sig.entries["sum"].cached is None
    sig.value_of("sum", Fuel.budget(100))
    assert sig.forced == [*forced, "sum"]


def test_a_computation_that_gets_hot_tiers_up_as_it_goes():
    # A fresh signature starts cold, and a cheap computation leaves it so.
    # `mul` on two 30-deep numerals spends more than the tier-up fuel: it
    # tiers up midway and ends as a signature tiered up from the start
    # does, with the same normal form and the same fuel spent.
    sig = _cold(ARITHMETIC)
    fuel = Fuel.budget(1_000_000)
    normalize((), Global("product"), fuel, sig)
    assert spent(fuel) <= semantics.TIER_UP_FUEL
    assert not sig.hot and not sig.code
    term = App(App(Global("mul"), numeral(30)), numeral(30))
    results = []
    for sig in (_cold(ARITHMETIC), _unforced(ARITHMETIC)):
        fuel = Fuel.budget(1_000_000)
        results.append((normalize((), term, fuel, sig), spent(fuel)))
        assert sig.hot and _runs_compiled(sig, "add")
    (cold, cold_spent), (hot, hot_spent) = results
    assert alpha_equal(cold, numeral(900)) and alpha_equal(hot, numeral(900))
    assert cold_spent == hot_spent > semantics.TIER_UP_FUEL


def test_a_meter_made_without_budget_never_tiers_up():
    # `Fuel(n, n)`, as `show_type` meters a note, leaves `tier_at` at 0:
    # past the tier-up fuel its signature stays cold, and the computation
    # ends as it does on `Fuel.budget(n)`, which tiers up.
    term = App(App(Global("mul"), numeral(30)), numeral(30))
    plain, metered = Fuel(1_000_000, 1_000_000), Fuel.budget(1_000_000)
    cold, hot = _cold(ARITHMETIC), _cold(ARITHMETIC)
    assert alpha_equal(normalize((), term, plain, cold), numeral(900))
    assert alpha_equal(normalize((), term, metered, hot), numeral(900))
    assert spent(plain) == spent(metered) > semantics.TIER_UP_FUEL
    assert not cold.hot and not cold.code
    assert hot.hot


def test_a_static_call_and_its_callee_share_one_function(monkeypatch):
    # `mul` calls `add` statically, so `add`'s body is generated into
    # `mul`'s module, and forcing `add` afterwards compiles nothing.
    sig = _unforced(ARITHMETIC)
    sources = _spy_on_compile(monkeypatch)
    sig.value_of("mul", Fuel.budget(1))
    assert len(sources) == 1
    assert _runs_compiled(sig, "add")
    assert len(sources) == 1


def test_known_lambdas_bind_their_arguments_without_a_closure(monkeypatch):
    # `curried`'s J case binds both of its arguments with no closure built,
    # and `viaId` reads the argument of `id`, whose body is a variable,
    # so no function is made for that body.
    sig = _unforced(APPLIED)
    sig.value_of("add", Fuel.budget(1))
    sources = _spy_on_compile(monkeypatch)
    sig.value_of("curried", Fuel.budget(1))
    sig.value_of("viaId", Fuel.budget(1))
    assert "Closure(" not in sources[0]
    assert sig.entries["id"].body.body.body not in sig.code
    assert len(sources) == 2


# Leaves that read their lambda argument on the path where their J is
# stuck, each called by `use` with the argument `fun y => y` (`fun y =>
# Nat` for `subst`'s `P`). `twice` passes it to the J twice, and `coe`
# once, besides the J's environment; `fstCoe` and `subst` read it once, in
# the stuck J's environment alone, since the stuck projection after
# `fstCoe`'s J reads no environment. `viaId` passes the J `id A a`, an
# application, so its leaf is no leaf and builds the lambda before its call.
LAMBDA_READERS = {
    "twice": """\
def leaf : (A : U) -> Id U A A -> A -> A := fun A h a => J U A (fun B _ => A -> A -> B) (fun x y => x) A h a a;
def use : Id U (Nat -> Nat) (Nat -> Nat) -> Nat -> Nat := fun h => leaf (Nat -> Nat) h (fun y => y);
""",
    "coe": """\
def leaf : (A : U) -> Id U A A -> A -> A := fun A h a => J U A (fun B _ => A -> B) (fun x => x) A h a;
def use : Id U (Nat -> Nat) (Nat -> Nat) -> Nat -> Nat := fun h => leaf (Nat -> Nat) h (fun y => y);
""",
    "fstCoe": FST_COE,
    "subst": """\
def leaf : (A : U) -> (P : A -> U) -> (x : A) -> Id A x x -> P x -> P x := fun A P x h p => J A x (fun y' _ => P y') p x h;
def use : Id Nat zero zero -> Nat := fun h => leaf Nat (fun y => Nat) zero h zero;
""",
    "viaId": """\
def id : (A : U) -> A -> A := fun A x => x;
def leaf : (A : U) -> Id U A A -> A -> A := fun A h a => J U A (fun B _ => A -> B) (fun x => x) A h (id A a);
def use : Id U (Nat -> Nat) (Nat -> Nat) -> Nat -> Nat := fun h => leaf (Nat -> Nat) h (fun y => y);
""",
}


def _held(v, name: str, found: dict) -> dict:
    """The closures named `name` that the value `v` holds, by id."""
    if type(v) is tuple:
        for w in v:
            _held(w, name, found)
    elif isinstance(v, semantics.Value) and id(v) not in found:
        if type(v) is Closure and v.name == name:
            found[id(v)] = v
        for slot in type(v).__slots__:
            if slot != "body":
                _held(getattr(v, slot), name, found)
    return found


@pytest.mark.parametrize("case", LAMBDA_READERS)
def test_a_lambda_argument_of_a_leaf_is_the_one_closure_the_interpreter_makes(case, monkeypatch):
    # Under `use`'s binder the leaf's J is stuck on `h`. Compiled, as
    # interpreted, the run makes one closure of `fun y => ...`, and every
    # frame holds that one, since `convert` compares values by identity
    # first: a closure built once per read would make one per read.
    made: list[Closure] = []
    init = Closure.__init__
    monkeypatch.setattr(Closure, "__init__",
                        lambda self, *fields: (init(self, *fields), made.append(self))[0])
    for compiled in (True, False):
        if not compiled:
            _interpret_only(monkeypatch)
        sig = build_signature(LAMBDA_READERS[case], PERMISSIVE)
        assert _runs_compiled(sig, "use") == compiled
        fuel = Fuel.budget(100)
        use = sig.value_of("use", fuel)
        made.clear()
        v = vapp(use, vvar(0), fuel, sig)
        built = [c for c in made if c.name == "y"]
        assert len(built) == 1
        assert list(_held(v, "y", {}).values()) == built


@pytest.mark.parametrize("case", ["fstCoe", "subst"])
def test_a_lambda_argument_read_once_is_built_in_the_stuck_j(case, monkeypatch):
    # `use` runs the leaf in place and builds `fun y => ...` only as part
    # of the environment that its stuck J hands `_stuck`; `fstCoe`'s stuck
    # projection extends the J's value as `eval_term` does, with no
    # environment and no term of its own.
    sources = _spy_on_compile(monkeypatch)
    sig = build_signature(LAMBDA_READERS[case], PERMISSIVE)
    sig.value_of("use", Fuel.budget(100))
    [source] = [source for source in sources if "value_of('leaf'" in source]
    built = [line for line in source.splitlines() if "Closure('y'" in line]
    assert len(built) == 1 and "_stuck(" in built[0]
    assert source.count("_stuck(") == 1
    assert source.count("_extend(") == (case == "fstCoe")


def test_the_paradox_source_stays_small(monkeypatch):
    # The four compiled bodies of the paradox (coe, subst, coe_eq, lemma1)
    # fit in 86 lines; they took 100 when every step was charged on its
    # own. Source size moves peak memory.
    # The three transports are leaves, which lemma1 runs in place: its
    # module calls no function it names, and holds none of theirs. It
    # builds subst's `P` only in the stuck arm of subst's J, the one place
    # that reads it, and its own function reads each global once. Its three
    # projections are stuck as `eval_term` leaves them, extended in place,
    # so only the stuck arms of its J and K call `_stuck`, which names the
    # eliminator whose frame it makes. lemma1's tail call of itself loops
    # in place, its 4 lines the only ones that loop: no other function
    # calls itself in tail position.
    sources = _spy_on_compile(monkeypatch)
    sig = build_signature((CORPUS / "russell_loop.tt").read_text(), PERMISSIVE)
    for name in sig.entries:
        try:
            sig.value_of(name, Fuel.budget(100))
        except FuelExhausted:
            pass
    assert len(sources) == 4
    assert sum(len(source.splitlines()) for source in sources) <= 86
    assert "value_of('subst'" in sources[3] and not re.search(r"\bk\d+\(", sources[3])
    built = [line for line in sources[3].splitlines() if "Closure(" in line]
    assert len(built) == 1 and "_stuck(" in built[0]
    f0 = sources[3].split("    def f0(")[1]
    reads = re.findall(r"\b(k\d+)\.cached or", f0)
    assert len(reads) == len(set(reads)) == 5  # subst, V, R, coe and coe_eq
    assert f0.count("_extend(") == 3
    assert f0.count("continue") == f0.count("while True:") == f0.count("sig.code") == 1
    f1 = sources[3].split("    def f1(")[1].split("    def f0(")[0]
    for source in (*sources[:3], f1):
        assert "continue" not in source and "while" not in source
    code = {name: sig.code[codegen._strip(sig.entries[name].body)[0]]
            for name in ("coe", "subst", "coe_eq", "lemma1")}
    lemma1 = code.pop("lemma1")
    named = dict(zip(lemma1.__code__.co_freevars, (c.cell_contents for c in lemma1.__closure__)))
    stuck = re.findall(r"_stuck\(.*, (k\d+), [^,]+, fuel, sig\)", f0)
    assert len(stuck) == f0.count("_stuck(") == 3
    assert all(type(named[k]) in (ElimJ, ElimK) for k in stuck)
    assert not set(named.values()) & set(code.values())


class _Meter(Fuel):
    """A meter that fails the moment its fuel would go below 0."""

    __slots__ = ()

    @property
    def remaining(self) -> int:
        return Fuel.remaining.__get__(self)

    @remaining.setter
    def remaining(self, n: int) -> None:
        assert n >= 0, n
        Fuel.remaining.__set__(self, n)


def test_the_loop_runs_out_at_its_budget_on_every_step():
    # `#normalize falsum` tiers up 1,000 steps in. lemma1's frame running
    # then finishes its turn interpreted, calling the compiled transports,
    # up to the beta step of its tail call at 1,008; from there lemma1's
    # compiled body turns the loop, 21 steps a turn: 20 charged at once,
    # and the beta step of its tail call, charged with them when the fuel
    # covers all 21 and in `enter` when exactly 20 are left. Every budget
    # ends in E030 with the meter never below 0, and from 1,008 on each
    # ends on a turn's last step in `enter`, or on any other inside a
    # compiled charge.
    items = parse((CORPUS / "russell_loop.tt").read_text())
    flags = FlagSet(type_in_type=True, enable_k=True)
    in_enter = []
    for budget in range(1000, 1101):
        sig = Signature()
        for item in items[:-1]:
            cli._process(item, Context(sig, flags, _Meter.budget(budget)), True, io.StringIO())
        fuel = _Meter.budget(budget)
        with pytest.raises(FuelExhausted) as exc:
            cli._process(items[-1], Context(sig, flags, fuel), True, io.StringIO())
        assert exc.value.steps == budget and fuel.remaining == 0
        *_, caller, raiser = (entry.frame.code.raw for entry in exc.traceback)
        if budget < 1008:
            continue
        if raiser.co_name == "enter":
            in_enter.append(budget)
        else:
            assert (raiser.co_name, caller.co_filename) == ("spend", "<tinytt>"), budget
    assert in_enter == [1008, 1029, 1050, 1071, 1092]


def test_a_partial_application_keeps_its_compiled_body():
    # `coe U U` stops under two of coe's four lambdas. Whether `eval_term`
    # or two `vapp` calls apply it, the closure left over suspends coe's
    # third lambda, and applying it once more gives the closure of coe's
    # last lambda, whose body is the compiled function of coe's body; it
    # runs when saturated.
    sig = russell_signature()
    coe = sig.value_of("coe", Fuel.budget(10))
    lam = sig.entries["coe"].body.body.body
    fuel = Fuel.budget(10)
    partial = eval_term((), App(App(Global("coe"), Universe()), Universe()), fuel, sig)
    assert spent(fuel) == 2
    by_vapp = vapp(vapp(coe, VUniverse(), fuel, sig), VUniverse(), fuel, sig)
    for closure in (partial, by_vapp):
        assert type(closure) is Closure and closure.body is lam.body
        last = vapp(closure, V_REFL, fuel, sig)
        assert type(last) is Closure and last.body is sig.code[lam.body.body]
    # Saturated with refl and a neutral argument, J reduces to the identity.
    a = vvar(0)
    fuel = Fuel.budget(10)
    assert vapp(vapp(partial, V_REFL, fuel, sig), a, fuel, sig) is a


def test_a_closure_the_interpreter_builds_in_compiled_code_runs_compiled():
    # Applied to two neutrals, `plusK`'s J is stuck, so `_stuck` evaluates
    # its literal case `fun x => add x k` with `eval_term`. The closure it
    # makes finds in `sig.code` the function that `plusK`'s module made
    # for the case's body.
    sig = build_signature(APPLIED, PERMISSIVE)
    fuel = Fuel.budget(1000)
    plus_k = sig.value_of("plusK", fuel)
    v = vapp(vapp(plus_k, vvar(0), fuel, sig), vvar(1), fuel, sig)
    case = sig.entries["plusK"].body.body.body.fn.case
    (eliminator, vals), (applied, _) = v.spine
    assert (eliminator, applied) == (ElimJ, App)
    closure = vals[FRAME_FIELDS[ElimJ].index("case")]
    assert type(closure) is Closure and closure.body is sig.code[case.body]


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
