"""Reference machinery the test suite checks the package against.

The normalizer here is deliberately unlike the one under test: plain
capture-avoiding substitution on core terms, one leftmost-outermost step
at a time, with globals unfolded up front. Agreement between the two on
well-typed inputs is the strongest evidence the suite has.

`run_config` and `run_text` are the one way the tests run the whole
driver in process.
"""

from __future__ import annotations

import dataclasses
import tempfile
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from random import Random

from tinytt.cli import RunConfig, run
from tinytt.kernel import Context, FlagSet, check, check_declaration
from tinytt.semantics import (
    FRAME_FIELDS, SCRUTINEE, Closure, Fuel, FuelExhausted, Signature, Value,
    VConst, VId, VNeutral, VPair, VPi, VSigma, VSucc, VUniverse, vapp, vvar,
)
from tinytt.surface import RESERVED_WORDS, Definition, parse, resolve_expr
from tinytt.syntax import (
    App, ElimJ, ElimK, Fst, Global, Id, Lambda, Nat, NatElim, Pair, Pi, Refl,
    Sigma, Snd, Succ, Term, TT, Unit, Universe, Var, Zero, shift,
)

# Fields whose contents sit under one extra binder.
_BINDER_FIELDS: dict[type, tuple[str, ...]] = {
    Lambda: ("body",),
    Pi: ("codomain",),
    Sigma: ("codomain",),
}


def _term_fields(t: Term) -> list[str]:
    return [f.name for f in dataclasses.fields(t) if f.name != "span"]


def _rebuild(t: Term, name: str, value: Term) -> Term:
    kwargs = {f: getattr(t, f) for f in _term_fields(t)}
    kwargs[name] = value
    return type(t)(**kwargs)


def subst_term(t: Term, j: int, s: Term) -> Term:
    """Substitute `s` for Var(j) in `t`, renumbering the variables above."""
    cls = type(t)
    if cls is Var:
        if t.index == j:
            return s
        return Var(t.index - 1) if t.index > j else t
    binders = _BINDER_FIELDS.get(cls, ())
    out = t
    for fname in _term_fields(t):
        child = getattr(out, fname)
        if not isinstance(child, Term):
            continue
        if fname in binders:
            new = subst_term(child, j + 1, shift(s, 0, 1))
        else:
            new = subst_term(child, j, s)
        if new is not child:
            out = _rebuild(out, fname, new)
    return out


def unfold_globals(t: Term, defs: dict[str, Term]) -> Term:
    cls = type(t)
    if cls is Global:
        return unfold_globals(defs[t.name], defs)
    out = t
    for fname in _term_fields(t):
        child = getattr(out, fname)
        if isinstance(child, Term):
            new = unfold_globals(child, defs)
            if new is not child:
                out = _rebuild(out, fname, new)
    return out


def step(t: Term) -> Term | None:
    """One leftmost-outermost beta or eliminator step, or None if normal."""
    cls = type(t)
    if cls is App and type(t.fn) is Lambda:
        return subst_term(t.fn.body, 0, t.arg)
    if cls is Fst and type(t.target) is Pair:
        return t.target.first
    if cls is Snd and type(t.target) is Pair:
        return t.target.second
    if cls is ElimJ and type(t.proof) is Refl:
        return t.case
    if cls is ElimK and type(t.proof) is Refl:
        return t.case
    if cls is NatElim and type(t.target) is Zero:
        return t.zcase
    if cls is NatElim and type(t.target) is Succ:
        pred = t.target.arg
        return App(App(t.scase, pred), NatElim(t.motive, t.zcase, t.scase, pred))
    for fname in _term_fields(t):
        child = getattr(t, fname)
        if isinstance(child, Term):
            reduced = step(child)
            if reduced is not None:
                return _rebuild(t, fname, reduced)
    return None


def oracle_normalize(t: Term, defs: dict[str, Term] | None = None,
                     cap: int = 100_000) -> Term:
    if defs:
        t = unfold_globals(t, defs)
    for _ in range(cap):
        reduced = step(t)
        if reduced is None:
            return t
        t = reduced
    raise RuntimeError("reference normalizer exceeded its step cap")


def reference_quote(depth: int, v: Value, fuel: Fuel, sig: Signature) -> Term:
    """Read `v` back as a tree, walking a shared node once per path to it.

    One fuel unit per node read, as `tinytt.semantics.quote` charges, but
    with no memory of what it has read: the cost it spends is the cost
    the shared read-back must reproduce exactly.
    """
    if fuel.remaining == 0:
        raise FuelExhausted(fuel.total)
    fuel.remaining -= 1
    cls = type(v)
    if cls is VConst:
        return v.term()
    if cls is VNeutral:
        t: Term = Var(depth - 1 - v.head)
        for ecls, vals in v.spine:
            fields = {SCRUTINEE[ecls]: t}
            for name, x in zip(FRAME_FIELDS[ecls], vals):
                fields[name] = reference_quote(depth, x, fuel, sig)
            t = ecls(**fields)
        return t
    if cls is Closure:
        body = vapp(v, vvar(depth), fuel, sig)
        return Lambda(v.name, reference_quote(depth + 1, body, fuel, sig))
    if cls is VPi:
        cod = vapp(v.codomain, vvar(depth), fuel, sig)
        return Pi(v.codomain.name, reference_quote(depth, v.domain, fuel, sig),
                  reference_quote(depth + 1, cod, fuel, sig))
    if cls is VSigma:
        cod = vapp(v.codomain, vvar(depth), fuel, sig)
        return Sigma(v.codomain.name, reference_quote(depth, v.domain, fuel, sig),
                     reference_quote(depth + 1, cod, fuel, sig))
    if cls is VPair:
        return Pair(reference_quote(depth, v.first, fuel, sig),
                    reference_quote(depth, v.second, fuel, sig))
    if cls is VId:
        return Id(reference_quote(depth, v.ty, fuel, sig),
                  reference_quote(depth, v.lhs, fuel, sig),
                  reference_quote(depth, v.rhs, fuel, sig))
    if cls is VSucc:
        return Succ(reference_quote(depth, v.arg, fuel, sig))
    if cls is VUniverse:
        return Universe(v.level)
    raise AssertionError(f"cannot quote {v!r}")


def fresh(flags: FlagSet, sig: Signature | None = None) -> Context:
    """A top-level context with a budget of `flags.fuel`, as `tinytt
    check` makes for each item."""
    return Context(sig if sig is not None else Signature(), flags, Fuel.budget(flags.fuel))


def build_signature(text: str, flags: FlagSet) -> Signature:
    """Check every definition in `text`, each in a fresh context, into a
    fresh signature, tiered up so that each lambda global compiles when
    forced."""
    sig = Signature()
    sig.tier_up()
    for item in parse(text):
        if isinstance(item, Definition):
            ty = resolve_expr(item.ty, sig.entries.keys())
            body = resolve_expr(item.body, sig.entries.keys())
            check_declaration(fresh(flags, sig), item.name, ty, body, item.name_span)
    return sig


@contextmanager
def source(text: str) -> Iterator[str]:
    """The path of a temporary file holding `text`."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "input.tt"
        path.write_text(text, encoding="utf-8")
        yield str(path)


def run_config(config: RunConfig) -> tuple[int, str, str]:
    """Run `config` as `tinytt check` does: its exit code, stdout, stderr."""
    out, err = StringIO(), StringIO()
    code = run(config, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_text(text: str, flags: FlagSet) -> tuple[int, str, str]:
    with source(text) as path:
        return run_config(RunConfig(path, flags))


# The lexical grammar, spelled out for `reference_lex`: identifiers and
# pragma names are ASCII, and the longest symbol wins.
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_IDENT_REST = _IDENT_START | frozenset("0123456789'")
_LONG_SYMBOLS = (":=", "->", "=>")
_SHORT_SYMBOLS = frozenset("():;*,")
_PRAGMAS = frozenset({"#normalize", "#check"})


def reference_lex(text: str) -> tuple[list[tuple[str, str, int, int]],
                                      tuple[str, int, int] | None]:
    """Scan `text` one character at a time, without regular expressions.

    Returns the tokens as (kind, text, line, col), ending in an "eof"
    token, and None; or the tokens before the first lexical error and
    that error as (message, line, col). Lines and columns count from 1,
    and every character, a tab included, is one column wide.
    """
    tokens: list[tuple[str, str, int, int]] = []
    i, line, col = 0, 1, 1
    while i < len(text):
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if text.startswith("--", i):
            while i < len(text) and text[i] != "\n":
                i, col = i + 1, col + 1
            continue
        j = i + 1
        if c in _IDENT_START or c == "#":
            while j < len(text) and text[j] in _IDENT_REST:
                j += 1
            word = text[i:j]
            if c == "#" and word not in _PRAGMAS:
                return tokens, (f"unknown pragma {word!r}", line, col)
            kind = word if c == "#" or word in RESERVED_WORDS else "ident"
        elif text[i:i + 2] in _LONG_SYMBOLS:
            j = i + 2
            kind = word = text[i:j]
        elif c in _SHORT_SYMBOLS:
            kind = word = c
        else:
            return tokens, (f"unexpected character {c!r}", line, col)
        tokens.append((kind, word, line, col))
        i, col = j, col + (j - i)
    tokens.append(("eof", "", line, col))
    return tokens, None


def numeral(n: int) -> Term:
    t: Term = Zero()
    for _ in range(n):
        t = Succ(t)
    return t


def numeral_value(t: Term) -> int:
    n = 0
    while type(t) is Succ:
        n += 1
        t = t.arg
    assert type(t) is Zero, f"not a numeral: {t!r}"
    return n


@dataclass(frozen=True, slots=True)
class Instance:
    """One generated computation-rule exercise.

    `term` must be well typed at `ty` in `sig`, and must share a normal
    form with `reference`. `defs` mirrors `sig` bodies for the reference
    normalizer.
    """

    sig: Signature
    defs: dict[str, Term]
    term: Term
    reference: Term
    ty: Term
    enable_k: bool = False


def certify(inst: Instance, fuel: int = 10_000) -> None:
    """Assert that a generated instance really is well typed."""
    flags = FlagSet(type_in_type=False, enable_k=inst.enable_k, fuel=fuel)
    ctx = fresh(flags, inst.sig)
    check(ctx, inst.term, ctx.eval(inst.ty))


def _install(sig: Signature, defs: dict[str, Term], name: str,
             ty: Term, body: Term, enable_k: bool) -> None:
    flags = FlagSet(type_in_type=False, enable_k=enable_k, fuel=10_000)
    check_declaration(fresh(flags, sig), name, ty, body)
    defs[name] = body


def _nat_case(rng: Random, sig: Signature, defs: dict[str, Term],
              enable_k: bool) -> tuple[Term, Term]:
    """A closed inferable Nat term and its normal form.

    Half the time the value hides behind an identity global, so the rule
    under test fires on something that still needs a beta step.
    """
    value = numeral(rng.randrange(7))
    if rng.random() < 0.5:
        if "idNat" not in sig.entries:
            _install(sig, defs, "idNat", Pi("_", Nat(), Nat()),
                     Lambda("z", Var(0)), enable_k)
        return App(Global("idNat"), value), value
    return value, value


def gen_beta(rng: Random) -> Instance:
    sig, defs = Signature(), {}
    sig.tier_up()
    wraps = rng.randrange(6)
    body: Term = Var(0)
    for _ in range(wraps):
        body = Succ(body)
    _install(sig, defs, "f", Pi("_", Nat(), Nat()), Lambda("n", body), False)
    arg, arg_normal = _nat_case(rng, sig, defs, False)
    term = App(Global("f"), arg)
    reference = numeral(wraps + numeral_value(arg_normal))
    return Instance(sig, defs, term, reference, Nat())


def gen_projection(rng: Random) -> Instance:
    sig, defs = Signature(), {}
    sig.tier_up()
    first, first_normal = _nat_case(rng, sig, defs, False)
    pair_ty = Sigma("_", Nat(), Unit())
    _install(sig, defs, "p", pair_ty, Pair(first, TT()), False)
    if rng.random() < 0.5:
        return Instance(sig, defs, Fst(Global("p")), first_normal, Nat())
    return Instance(sig, defs, Snd(Global("p")), TT(), Unit())


def gen_j_refl(rng: Random) -> Instance:
    """J on refl. Half the time its case is a literal `fun m => B` and the
    J is applied, as `coe`'s is; B is `m`, a closed term or `succ m`."""
    sig, defs = Signature(), {}
    sig.tier_up()
    x = numeral(rng.randrange(5))
    case, case_normal = _nat_case(rng, sig, defs, False)
    if rng.random() < 0.5:
        motive = Lambda("y", Lambda("_", Nat()))
        term = ElimJ(Nat(), x, motive, case, x, Refl())
        return Instance(sig, defs, term, case_normal, Nat())
    arg, arg_normal = _nat_case(rng, sig, defs, False)
    body, reference = rng.choice(((Var(0), arg_normal), (case, case_normal),
                                  (Succ(Var(0)), Succ(arg_normal))))
    motive = Lambda("y", Lambda("_", Pi("_", Nat(), Nat())))
    term = App(ElimJ(Nat(), x, motive, Lambda("m", body), x, Refl()), arg)
    return Instance(sig, defs, term, reference, Nat())


def gen_k_refl(rng: Random) -> Instance:
    sig, defs = Signature(), {}
    sig.tier_up()
    x = numeral(rng.randrange(5))
    case, case_normal = _nat_case(rng, sig, defs, True)
    motive = Lambda("_", Nat())
    term = ElimK(Nat(), x, motive, case, Refl())
    return Instance(sig, defs, term, case_normal, Nat(), enable_k=True)


def gen_natelim(rng: Random) -> Instance:
    """A natElim whose target, and zero case, may hide behind `idNat`. The
    step adds one, keeps the result, is a global that adds one, or is the
    curried `fun _ r => fun y => succ (r y)` at motive `fun _ => Nat -> Nat`,
    whose result is applied to a numeral."""
    sig, defs = Signature(), {}
    sig.tier_up()
    target, target_normal = _nat_case(rng, sig, defs, False)
    n = numeral_value(target_normal)
    kind = rng.choice(("succ", "keep", "global", "curried"))
    if kind == "curried":
        y = rng.randrange(5)
        motive = Lambda("_", Pi("_", Nat(), Nat()))
        scase = Lambda("m", Lambda("r", Lambda("y", Succ(App(Var(1), Var(0))))))
        term = App(NatElim(motive, Lambda("y", Var(0)), scase, target), numeral(y))
        return Instance(sig, defs, term, numeral(n + y), Nat())
    zcase, zcase_normal = _nat_case(rng, sig, defs, False)
    z = numeral_value(zcase_normal)
    scase = Lambda("m", Lambda("p", Var(0) if kind == "keep" else Succ(Var(0))))
    if kind == "global":
        _install(sig, defs, "step", Pi("_", Nat(), Pi("_", Nat(), Nat())), scase, False)
        scase = Global("step")
    term = NatElim(Lambda("_", Nat()), zcase, scase, target)
    return Instance(sig, defs, term, numeral(z if kind == "keep" else z + n), Nat())


FAMILIES: dict[str, Callable[[Random], Instance]] = {
    "beta": gen_beta,
    "projection": gen_projection,
    "j_refl": gen_j_refl,
    "k_refl": gen_k_refl,
    "nat_elim": gen_natelim,
}
