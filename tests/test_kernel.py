"""Bidirectional checking rules, universe policy, and the K gate."""

from __future__ import annotations

from dataclasses import replace
from io import StringIO
from pathlib import Path
from random import Random

import pytest

from oracles import FAMILIES, build_signature, fresh, numeral
from tinytt import cli, kernel
from tinytt.cli import RunConfig, run
from tinytt.diagnostics import Error, render_diagnostic
from tinytt.kernel import (
    RULES, Context, FlagSet, check, check_declaration, check_is_type, infer,
)
from tinytt.semantics import Fuel, FuelExhausted, Signature, V_EMPTY, VUniverse, quote
from tinytt.surface import parse, resolve_expr
from tinytt.syntax import (
    FIELDS, Absurd, App, ElimJ, ElimK, Empty, Fst, Global, Id, Lambda, Nat, NatElim,
    Pair, Pi, Refl, Sigma, Snd, Succ, TT, Universe, Unit, Var, Zero,
    alpha_equal,
)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
STRICT = FlagSet(type_in_type=False, enable_k=True, fuel=100_000)
PERMISSIVE = FlagSet(type_in_type=True, enable_k=True, fuel=1_000_000)
NO_K = FlagSet(type_in_type=True, enable_k=False, fuel=100_000)


def code_of(excinfo) -> str:
    return excinfo.value.code


def test_universe_in_universe_only_under_type_in_type():
    ctx = fresh(PERMISSIVE)
    check(ctx, Universe(0), ctx.eval(Universe(0)))  # U : U accepted

    ctx = fresh(STRICT)
    ty = infer(ctx, Universe(0))
    assert type(ty) is VUniverse and ty.level == 1
    with pytest.raises(Error) as exc:
        check(ctx, Universe(0), ctx.eval(Universe(0)))
    assert code_of(exc) == "E020"
    assert exc.value.message == (
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
        check_declaration(fresh(STRICT), "V", Universe(0), body)
    assert code_of(exc) == "E020"
    assert exc.value.message == (
        "universe inconsistency: type lives in U1 but is annotated U0")


def test_k_gate_fires_before_anything_else():
    # The innards are nonsense, but the policy error must win.
    bad = ElimK(Zero(), TT(), Zero(), Zero(), Zero())
    with pytest.raises(Error) as exc:
        infer(fresh(NO_K), bad)
    assert code_of(exc) == "E021"
    assert exc.value.message == "K eliminator requires --enable-K"


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
    check_declaration(fresh(PERMISSIVE, sig), "f", Pi("_", Nat(), Nat()), Lambda("n", Var(0)))
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
    check_declaration(fresh(PERMISSIVE, sig), "d", Nat(), Zero())
    with pytest.raises(Error) as exc:
        check_declaration(fresh(PERMISSIVE, sig), "d", Nat(), Zero())
    assert code_of(exc) == "E003"


def test_bodies_evaluate_lazily_after_installation():
    sig = Signature({})
    check_declaration(fresh(PERMISSIVE, sig), "f", Pi("_", Nat(), Nat()), Lambda("n", Var(0)))
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


def test_running_out_of_fuel_is_an_error_reported_at_its_item(tmp_path):
    # Comparing `falsum` with its own unfolding never ends, so checking
    # `refl` at this type spends any budget.
    text = (CORPUS / "russell.tt").read_text() + "def d : Id Empty falsum (lemma1 lemma2) := refl;\n"
    *_, item = parse(text)
    ctx = replace(russell_context(), fuel=Fuel.budget(500))
    known = ctx.sig.entries.keys()
    with pytest.raises(FuelExhausted) as exc:
        check_declaration(ctx, item.name, resolve_expr(item.ty, known),
                          resolve_expr(item.body, known), item.name_span)
    error = exc.value
    assert isinstance(error, Error)
    assert (error.code, error.message, error.span, error.notes, error.steps) == (
        "E030", "fuel exhausted after 500 steps", None, (), 500)
    error.span = item.span
    assert _run(text, replace(PERMISSIVE, fuel=500), tmp_path) == (
        1, "CHECKED: falsum\n", render_diagnostic(error, str(tmp_path / "item.tt")) + "\n")


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
_N = "#check natElim {} : Nat;\n"
# `T0 := Nat` and `Tk+1 := Tk * Tk`: reading back `T13` takes more than the
# display budget, so it shows by name, and the same type unnamed as "...".
_T13 = ("def T0 : U := Nat;\n"
        + "".join(f"def T{k + 1} : U := T{k} * T{k};\n" for k in range(13)))


def _run(text: str, flags: FlagSet, tmp_path) -> tuple[int, str, str]:
    src = tmp_path / "item.tt"
    src.write_text(text)
    out, err = StringIO(), StringIO()
    return run(RunConfig(str(src), flags), out, err), out.getvalue(), err.getvalue()


def _mismatch(expected: str, found: str) -> str:
    return f"error[E010]: type mismatch\n  expected: {expected}\n  found:    {found}\n"


# Each input breaks exactly one typing rule, so a checker that skips that
# rule's check accepts it (or, for J's motive, fails with a traceback).
# `tests/differential.py` runs each one too, at budgets 1-200.
REJECTED = [
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
    ("#check refl : Id U (Nat -> Nat) (Nat * Nat);\n", {},
     "1:8: error[E014]: refl endpoints differ\n"
     "  left:  Nat -> Nat\n  right: Nat * Nat\n"),
    ("#check refl : Id U ((x : Nat) -> Id Nat x x) ((x : Nat) * Id Nat x x);\n", {},
     "1:8: error[E014]: refl endpoints differ\n"
     "  left:  (x : Nat) -> Id Nat x x\n  right: (x : Nat) * Id Nat x x\n"),
    ("#check refl : Id U ((x : Nat) -> (y : Nat) -> Id Nat x y) "
     "((x : Nat) -> (y : Nat) -> Id Nat x x);\n", {},
     "1:8: error[E014]: refl endpoints differ\n"
     "  left:  (x : Nat) -> (y : Nat) -> Id Nat x y\n"
     "  right: (x : Nat) -> Nat -> Id Nat x x\n"),
    (_T13 + "#check zero : T13;\n", {}, "15:8: " + _mismatch("T13", "Nat")),
    (_T13 + "#check zero : T12 * T12;\n", {}, "15:8: " + _mismatch("...", "Nat")),
    ("#check J zero zero (fun y p => Nat) zero zero refl : Nat;\n", {},
     "1:10: error[E010]: expected a type\n  found a term of type Nat\n"),
    ("#check J Nat tt (fun y p => Nat) zero zero refl : Nat;\n", {},
     "1:14: " + _mismatch("Nat", "Unit")),
    ("#check K zero zero (fun p => Nat) zero refl : Nat;\n", {"enable_k": True},
     "1:10: error[E010]: expected a type\n  found a term of type Nat\n"),
    ("#check K Nat tt (fun p => Nat) zero refl : Nat;\n", {"enable_k": True},
     "1:14: " + _mismatch("Nat", "Unit")),
    ("#check K Nat zero Nat zero refl : Nat;\n", {"enable_k": True},
     "1:19: " + _mismatch("Id Nat zero zero -> U?", "U")),
    ("#check absurd Nat tt : Nat;\n", {}, "1:15: " + _mismatch("Empty -> U?", "U")),
    (_N.format("Nat zero (fun m r => r) zero"), {}, "1:16: " + _mismatch("Nat -> U?", "U")),
    (_N.format("(fun n => Nat) tt (fun m r => r) zero"), {},
     "1:31: " + _mismatch("Nat", "Unit")),
    (_N.format("(fun n => Nat) zero (fun m r => tt) zero"), {},
     "1:48: " + _mismatch("Nat", "Unit")),
    (_N.format("(fun n => Nat) zero (fun m r => r) tt"), {},
     "1:51: " + _mismatch("Nat", "Unit")),
]


@pytest.mark.parametrize("text,flags,diagnostic", REJECTED, ids=["pi-domain", "pi-codomain", "pair-component", "refl-pair", "id-endpoint",
        "j-proof", "j-case", "j-target", "j-motive", "k-proof", "k-case",
        "absurd-target", "pi-level", "sigma-level", "function", "pair", "refl",
        "pi-is-not-sigma", "dependent-pi-is-not-sigma", "nested-binders-are-distinct",
        "type-too-large-to-show",
        "type-too-large-and-unnamed", "j-type", "j-base", "k-type", "k-base",
        "k-motive", "absurd-motive", "natelim-motive", "natelim-zero-case",
        "natelim-step-case", "natelim-target"])
def test_each_typing_rule_rejects_an_input(tmp_path, text, flags, diagnostic):
    result = _run(text, FlagSet(**flags), tmp_path)
    assert result == (1, "", f"{tmp_path / 'item.tt'}:{diagnostic}")


def test_typing_an_eliminator_never_evaluates_its_case(tmp_path):
    # Each case is `falsum`, whose value has no normal form: typing the
    # eliminator must check it against the rule but never evaluate it.
    text = (CORPUS / "russell.tt").read_text() + (
        "#check natElim (fun _ => Empty) falsum (fun _ r => r) zero : Empty;\n"
        "#check J Nat zero (fun _ _ => Empty) falsum zero refl : Empty;\n"
        "#check K Nat zero (fun _ => Empty) falsum refl : Empty;\n")
    code, out, err = _run(text, FlagSet(type_in_type=True, enable_k=True), tmp_path)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "CHECKED: falsum",
        "CHECKED: natElim (fun _ => Empty) falsum (fun _ r => r) zero",
        "CHECKED: J Nat zero (fun _ _' => Empty) falsum zero refl",
        "CHECKED: K Nat zero (fun _ => Empty) falsum refl",
    ]


_WRAPPERS = ("def idU : U -> U := fun A => A;\n"
             "def idN : Nat -> Nat := fun n => n;\n"
             "def M : Nat -> Nat -> U := fun _ _ => Nat;\n")


# The type, base and motive arguments are redexes. Typing evaluates each
# once and reuses its value in the motive and case types, so these are the
# least budgets; re-evaluating them there would cost 3, 1 and 2 more units.
# `tests/differential.py` runs each after `_WRAPPERS`, at budgets 1-200.
WRAPPED_ELIMINATORS = [
    ("def j : (x : Nat) -> (y : Nat) -> Id Nat x y -> Id Nat y x := "
     "fun x y h => J (idU Nat) (idN x) (fun y p => Id Nat y x) refl y h;", 33),
    ("def k : (x : Nat) -> Id Nat x x -> Nat := "
     "fun x h => K (idU Nat) x (fun p => Nat) zero h;", 18),
    ("def n : Nat -> Nat -> Nat := fun a b => natElim (M zero) a (fun _ r => succ r) b;", 21),
]


@pytest.mark.parametrize("item,least", WRAPPED_ELIMINATORS, ids=["J", "K", "natElim"])
def test_eliminator_arguments_are_evaluated_once(tmp_path, item, least):
    text = _WRAPPERS + item + "\n"
    assert _run(text, FlagSet(True, True, least), tmp_path)[0] == 0
    code, _, err = _run(text, FlagSet(True, True, least - 1), tmp_path)
    assert code == 1 and f"fuel exhausted after {least - 1} steps" in err


# `absurd`'s target type, Empty, does not mention the motive, so the target
# is checked before the motive is evaluated: an ill-typed target behind a
# motive that costs about 120 units to evaluate still fails with E010.
# `tests/differential.py` runs it too, at budgets 1-200.
ABSURD = ("#check absurd (natElim (fun _ => Empty -> U) (fun _ => Empty) (fun _ r => r) "
          + "(succ " * 40 + "zero" + ")" * 40 + ") tt : Empty;\n")


@pytest.mark.parametrize("fuel,code", [(61, "E030"), (62, "E010"), (182, "E010")])
def test_absurd_checks_its_target_before_evaluating_its_motive(tmp_path, fuel, code):
    for tit in (False, True):
        status, _, err = _run(ABSURD, FlagSet(tit, False, fuel), tmp_path)
        assert status == 1 and f"error[{code}]" in err


def _occurs(t, index: int) -> bool:
    """Whether `t` mentions the variable with de Bruijn index `index`."""
    if type(t) is Var:
        return t.index == index
    return any(_occurs(getattr(t, name), index + binds) for name, binds in FIELDS[type(t)])


@pytest.mark.parametrize("cls", list(RULES), ids=lambda cls: cls.__name__)
def test_each_rule_has_one_binder_per_field(cls):
    rule, binders = RULES[cls], 0
    while type(rule) is Pi:
        # A field whose binder is `_` is never evaluated, so nothing may use it.
        assert rule.name != "_" or not _occurs(rule.codomain, 0)
        rule, binders = rule.codomain, binders + 1
    assert binders == len(FIELDS[cls])


def test_universe_levels_are_never_the_wildcard_and_type_in_type_keeps_them_at_0(
        tmp_path, monkeypatch):
    # The wildcard lives only in the eliminator rules, and under
    # --type-in-type the one rule `U : U` keeps every level at 0, so the
    # formers need not read the policy. `infer` calls itself, and `check`
    # calls it, through the module global; `cli` imports it by name.
    found = []

    def spy(ctx, t):
        ty = infer(ctx, t)
        if type(ty) is VUniverse:
            found.append((ctx.flags.type_in_type, ty.level, t))
        return ty

    monkeypatch.setattr(kernel, "infer", spy)
    monkeypatch.setattr(cli, "infer", spy)
    policies = (False, True)
    for path in sorted(CORPUS.glob("*.tt")):
        for tit in policies:
            for enable_k in (False, True):
                config = RunConfig(str(path), FlagSet(tit, enable_k, 100_000))
                run(config, StringIO(), StringIO())
    texts = [(text, flags.get("enable_k", False)) for text, flags, _ in REJECTED]
    texts += [(_WRAPPERS + item + "\n", True) for item, _ in WRAPPED_ELIMINATORS]
    texts.append((ABSURD, False))
    for text, enable_k in texts:
        for tit in policies:
            _run(text, FlagSet(tit, enable_k, 100_000), tmp_path)
    for family in sorted(FAMILIES):
        rng = Random(f"levels-{family}")
        for inst in (FAMILIES[family](rng) for _ in range(20)):
            for tit in policies:
                ctx = fresh(FlagSet(tit, inst.enable_k, 10_000), inst.sig)
                check(ctx, inst.term, ctx.eval(inst.ty))
    assert {(tit, level) for tit, level, _ in found} >= {(False, 0), (False, 1), (True, 0)}
    assert [(tit, level, t) for tit, level, t in found
            if level is None or (tit and level != 0)] == []
