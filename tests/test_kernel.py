"""Bidirectional checking rules, universe policy, and the K gate."""

from __future__ import annotations

from io import StringIO
from pathlib import Path

import pytest

from oracles import build_signature, numeral
from tinytt.cli import RunConfig, run
from tinytt.diagnostics import Error
from tinytt.kernel import Context, FlagSet, check, check_declaration, check_is_type, infer
from tinytt.semantics import Fuel, Signature, V_EMPTY, VUniverse, quote
from tinytt.syntax import (
    Absurd, App, ElimJ, ElimK, Empty, Fst, Global, Id, Lambda, Nat, NatElim,
    Pair, Pi, Refl, Sigma, Snd, Succ, TT, Universe, Unit, Var, Zero,
    alpha_equal,
)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
STRICT = FlagSet(type_in_type=False, enable_k=True, fuel=100_000)
PERMISSIVE = FlagSet(type_in_type=True, enable_k=True, fuel=1_000_000)
NO_K = FlagSet(type_in_type=True, enable_k=False, fuel=100_000)


def fresh(flags: FlagSet, sig: Signature | None = None) -> Context:
    return Context(sig if sig is not None else Signature({}), flags,
                   Fuel.budget(flags.fuel))


def code_of(excinfo) -> str:
    return excinfo.value.diagnostic.code


def test_universe_in_universe_only_under_type_in_type():
    ctx = fresh(PERMISSIVE)
    check(ctx, Universe(0), ctx.eval(Universe(0)))  # U : U accepted

    ctx = fresh(STRICT)
    ty = infer(ctx, Universe(0))
    assert type(ty) is VUniverse and ty.level == 1
    with pytest.raises(Error) as exc:
        check(ctx, Universe(0), ctx.eval(Universe(0)))
    assert code_of(exc) == "E020"
    assert exc.value.diagnostic.message == (
        "universe inconsistency: type lives in U1 but is annotated U0")


def test_pi_formation_level_is_the_maximum():
    t = Pi("A", Universe(0), Pi("_", Var(0), Var(1)))
    strict_ty = infer(fresh(STRICT), t)
    assert type(strict_ty) is VUniverse and strict_ty.level == 1
    permissive_ty = infer(fresh(PERMISSIVE), t)
    assert type(permissive_ty) is VUniverse and permissive_ty.level == 0


def test_sigma_formation_level_is_the_maximum():
    # Both (A : U) and (A -> U) land at level 1, so the whole Sigma does.
    t = Sigma("A", Universe(0), Pi("_", Var(0), Universe(0)))
    strict_ty = infer(fresh(STRICT), t)
    assert type(strict_ty) is VUniverse and strict_ty.level == 1
    permissive_ty = infer(fresh(PERMISSIVE), t)
    assert type(permissive_ty) is VUniverse and permissive_ty.level == 0


def test_id_formation_lands_at_the_endpoint_level():
    ground = infer(fresh(STRICT), Id(Nat(), Zero(), Zero()))
    assert type(ground) is VUniverse and ground.level == 0
    lifted = infer(fresh(STRICT), Id(Universe(0), Nat(), Nat()))
    assert type(lifted) is VUniverse and lifted.level == 1


def test_strict_universes_reject_the_set_of_sets():
    # (A : U) * (A -> U) lives one level above its own annotation.
    body = Sigma("A", Universe(0), Pi("_", Var(0), Universe(0)))
    with pytest.raises(Error) as exc:
        check_declaration(Signature({}), "V", Universe(0), body, STRICT)
    assert code_of(exc) == "E020"
    assert exc.value.diagnostic.message == (
        "universe inconsistency: type lives in U1 but is annotated U0")


def test_k_gate_fires_before_anything_else():
    # The innards are nonsense, but the policy error must win.
    bad = ElimK(Zero(), TT(), Zero(), Zero(), Zero())
    with pytest.raises(Error) as exc:
        infer(fresh(NO_K), bad)
    assert code_of(exc) == "E021"
    assert exc.value.diagnostic.message == "K eliminator requires --enable-K"


def test_k_on_checked_instance_requires_the_flag():
    term = ElimK(Nat(), Zero(), Lambda("_", Nat()), numeral(3), Refl())
    ctx = fresh(PERMISSIVE)
    assert infer(ctx, term) is not V_EMPTY  # checks fine with the flag
    with pytest.raises(Error) as exc:
        infer(fresh(NO_K), term)
    assert code_of(exc) == "E021"


def test_lambda_pair_refl_do_not_infer():
    for term in (Lambda("x", Var(0)), Pair(Zero(), Zero()), Refl()):
        with pytest.raises(Error) as exc:
            infer(fresh(PERMISSIVE), term)
        assert code_of(exc) == "E011"


def test_applying_a_non_function_is_reported():
    with pytest.raises(Error) as exc:
        infer(fresh(PERMISSIVE), App(Zero(), Zero()))
    assert code_of(exc) == "E012"


def test_projecting_a_non_pair_is_reported():
    for term in (Fst(Zero()), Snd(TT())):
        with pytest.raises(Error) as exc:
            infer(fresh(PERMISSIVE), term)
        assert code_of(exc) == "E013"


def test_refl_needs_convertible_endpoints():
    ctx = fresh(PERMISSIVE)
    check(ctx, Refl(), ctx.eval(Id(Nat(), Zero(), Zero())))
    redex = App(Lambda("n", Succ(Var(0))), Zero())
    check(ctx, Refl(), ctx.eval(Id(Nat(), numeral(1), redex)))
    with pytest.raises(Error) as exc:
        check(ctx, Refl(), ctx.eval(Id(Nat(), Zero(), numeral(1))))
    assert code_of(exc) == "E014"


def test_plain_mismatch_is_reported():
    ctx = fresh(PERMISSIVE)
    with pytest.raises(Error) as exc:
        check(ctx, Zero(), ctx.eval(Unit()))
    assert code_of(exc) == "E010"


def test_checked_argument_positions():
    sig = Signature({})
    check_declaration(sig, "f", Pi("_", Nat(), Nat()),
                      Lambda("n", Var(0)), PERMISSIVE)
    ctx = fresh(PERMISSIVE, sig)
    with pytest.raises(Error) as exc:
        infer(ctx, App(Global("f"), TT()))
    assert code_of(exc) == "E010"


def test_unbound_global_is_reported():
    with pytest.raises(Error) as exc:
        infer(fresh(PERMISSIVE), Global("missing"))
    assert code_of(exc) == "E002"


def test_duplicate_definitions_are_rejected():
    sig = Signature({})
    check_declaration(sig, "d", Nat(), Zero(), PERMISSIVE)
    with pytest.raises(Error) as exc:
        check_declaration(sig, "d", Nat(), Zero(), PERMISSIVE)
    assert code_of(exc) == "E003"


def test_bodies_evaluate_lazily_after_installation():
    sig = Signature({})
    check_declaration(sig, "f", Pi("_", Nat(), Nat()),
                      Lambda("n", Var(0)), PERMISSIVE)
    assert sig.entries["f"].cached is None
    sig.value_of("f", Fuel.budget(10))
    assert sig.entries["f"].cached is not None


def test_motive_universe_is_unconstrained_under_strict():
    # The motive body is U, which lives in U1: strict mode must still
    # accept it, because motive targets carry no fixed level.
    term = ElimJ(Nat(), Zero(), Lambda("y", Lambda("_", Universe(0))),
                 Nat(), Zero(), Refl())
    ty = infer(fresh(STRICT), term)
    assert type(ty) is VUniverse and ty.level == 0


def test_nat_elim_checks_all_pieces():
    term = NatElim(Lambda("_", Nat()), Zero(),
                   Lambda("m", Lambda("p", Succ(Var(0)))), numeral(2))
    ctx = fresh(STRICT)
    ty = infer(ctx, term)
    assert alpha_equal(quote(0, ty, Fuel.budget(10), Signature()), Nat())
    bad = NatElim(Lambda("_", Nat()), TT(),
                  Lambda("m", Lambda("p", Succ(Var(0)))), numeral(2))
    with pytest.raises(Error) as exc:
        infer(fresh(STRICT), bad)
    assert code_of(exc) == "E010"


def test_absurd_eliminates_into_any_motive():
    base = fresh(STRICT)
    ctx = base.bind("bottom", base.eval(Empty()))
    ty = infer(ctx, Absurd(Lambda("_", Nat()), Var(0)))
    assert alpha_equal(quote(1, ty, Fuel.budget(10), Signature()), Nat())


def russell_context() -> Context:
    sig = build_signature((CORPUS / "russell.tt").read_text(), PERMISSIVE)
    return fresh(PERMISSIVE, sig)


def test_snd_of_membership_witness_derives_the_negation():
    ctx = russell_context()
    elem_v_r_r = App(App(App(Global("elem"), Global("V")), Global("R")), Global("R"))
    inner = ctx.bind("H", ctx.eval(elem_v_r_r))
    ty = infer(inner, Snd(Var(0)))
    quoted = quote(inner.depth, ty, Fuel.budget(100_000), ctx.sig)
    assert type(quoted) is Pi
    assert type(quoted.codomain) is Empty


def test_inferred_types_check_back():
    # Bidirectional coherence: whenever infer assigns a type, checking the
    # same term against that very type must succeed.
    ctx = russell_context()
    scope = ctx.bind("n", ctx.eval(Nat()))
    scope = scope.bind("f", scope.eval(Pi("_", Nat(), Nat())))
    scope = scope.bind("e", scope.eval(Empty()))
    scope = scope.bind("p", scope.eval(Sigma("x", Nat(), Unit())))
    # Innermost first: p = Var(0), e = Var(1), f = Var(2), n = Var(3).
    samples = [
        Var(3), Var(2), Var(1), Var(0),
        Zero(), TT(), Nat(), Unit(), Empty(), Universe(0),
        Succ(Var(3)),
        Global("V"), Global("R"), Global("lemma1"),
        Pi("A", Universe(0), Var(0)),
        Sigma("x", Nat(), Unit()),
        Id(Nat(), Zero(), Var(3)),
        App(Var(2), Succ(Zero())),
        App(Global("lemma1"), Global("lemma2")),
        Fst(Var(0)), Snd(Var(0)),
        Absurd(Lambda("_", Nat()), Var(1)),
        ElimJ(Nat(), Zero(), Lambda("y", Lambda("_", Nat())),
              Zero(), Zero(), Refl()),
        ElimK(Nat(), Zero(), Lambda("_", Nat()), Zero(), Refl()),
        NatElim(Lambda("_", Nat()), Zero(),
                Lambda("m", Lambda("q", Succ(Var(0)))), Var(3)),
    ]
    for t in samples:
        check(scope, t, infer(scope, t))


def test_lemma2_rechecks_from_scratch():
    ctx = russell_context()
    elem_v_r_r = App(App(App(Global("elem"), Global("V")), Global("R")), Global("R"))
    check(ctx, Pair(Refl(), Global("lemma1")), ctx.eval(elem_v_r_r))


def test_membership_witness_for_zero_in_nat():
    sig = build_signature((CORPUS / "sets.tt").read_text(), PERMISSIVE)
    ctx = fresh(PERMISSIVE, sig)
    target = App(App(App(Global("elem"), Nat()), Zero()), Global("NatSet"))
    check(ctx, Pair(Refl(), TT()), ctx.eval(target))
    # The identity component really is forced: a mismatched witness fails.
    with pytest.raises(Error) as exc:
        check(ctx, Pair(Refl(), Zero()), ctx.eval(target))
    assert code_of(exc) == "E010"


def test_check_is_type_rejects_terms():
    with pytest.raises(Error) as exc:
        check_is_type(fresh(PERMISSIVE), Zero())
    assert code_of(exc) == "E010"


_F = "def f : Nat -> Nat := fun x => x;\n"
_J = "#check J Nat zero (fun y p => Nat) {} : Nat;\n"
_K = "#check K Nat zero (fun p => Nat) {} : Nat;\n"
# `T0 := Nat` and `Tk+1 := Tk * Tk`: reading back `T13` takes more than the
# display budget.
_T13 = ("def T0 : U := Nat;\n"
        + "".join(f"def T{k + 1} : U := T{k} * T{k};\n" for k in range(13))
        + "#check zero : T13;\n")


def _mismatch(expected: str, found: str) -> str:
    return f"error[E010]: type mismatch\n  expected: {expected}\n  found:    {found}\n"


# Each input breaks exactly one typing rule, so a checker that skips that
# rule's check accepts it (or, for J's motive, fails with a traceback).
@pytest.mark.parametrize("text,flags,diagnostic", [
    (_F + "#check f : Unit -> Nat;\n", {},
     "2:8: " + _mismatch("Unit -> Nat", "Nat -> Nat")),
    (_F + "#check f : Nat -> Unit;\n", {},
     "2:8: " + _mismatch("Nat -> Unit", "Nat -> Nat")),
    ("def p : Nat * Nat := (zero , zero);\n#check p : Nat * Unit;\n", {},
     "2:8: " + _mismatch("Nat * Unit", "Nat * Nat")),
    ("#check refl : Id (Nat * Nat) (zero , zero) (zero , succ zero);\n", {},
     "1:8: error[E014]: refl endpoints differ\n"
     "  left:  (zero , zero)\n  right: (zero , succ zero)\n"),
    ("def r : Id Nat zero zero := refl;\n#check r : Id Nat zero (succ zero);\n", {},
     "2:8: " + _mismatch("Id Nat zero (succ zero)", "Id Nat zero zero")),
    (_J.format("zero zero tt"), {}, "1:46: " + _mismatch("Id Nat zero zero", "Unit")),
    (_J.format("tt zero refl"), {}, "1:36: " + _mismatch("Nat", "Unit")),
    (_J.format("zero tt refl"), {}, "1:41: " + _mismatch("Nat", "Unit")),
    ("#check J Nat zero (fun y => Nat) zero zero refl : Nat;\n", {},
     "1:29: " + _mismatch("Id Nat zero y -> U?", "U")),
    (_K.format("zero tt"), {"enable_k": True},
     "1:39: " + _mismatch("Id Nat zero zero", "Unit")),
    (_K.format("tt refl"), {"enable_k": True}, "1:34: " + _mismatch("Nat", "Unit")),
    ("#check absurd (fun e => Nat) tt : Nat;\n", {}, "1:30: " + _mismatch("Empty", "Unit")),
    ("#check Nat -> U : U;\n", {}, "1:8: error[E020]: universe inconsistency: "
     "type lives in U1 but is annotated U0\n"),
    ("#check Nat * U : U;\n", {}, "1:8: error[E020]: universe inconsistency: "
     "type lives in U1 but is annotated U0\n"),
    ("#check fun x => x : Nat;\n", {}, "1:8: " + _mismatch("Nat", "a function")),
    ("#check (fun x => x , zero) : Nat;\n", {}, "1:8: " + _mismatch("Nat", "a pair")),
    ("#check refl : Nat;\n", {}, "1:8: " + _mismatch("Nat", "refl")),
    (_T13, {}, "15:8: " + _mismatch("...", "Nat")),
], ids=["pi-domain", "pi-codomain", "pair-component", "refl-pair", "id-endpoint",
        "j-proof", "j-case", "j-target", "j-motive", "k-proof", "k-case",
        "absurd-target", "pi-level", "sigma-level", "function", "pair", "refl",
        "type-too-large-to-show"])
def test_each_typing_rule_rejects_an_input(tmp_path, text, flags, diagnostic):
    src = tmp_path / "reject.tt"
    src.write_text(text)
    out, err = StringIO(), StringIO()
    assert run(RunConfig(str(src), FlagSet(**flags)), out, err) == 1
    assert (out.getvalue(), err.getvalue()) == ("", f"{src}:{diagnostic}")
