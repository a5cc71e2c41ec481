"""Bidirectional type checker over evaluated types."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .diagnostics import (
    CANNOT_INFER, DUPLICATE, K_DISABLED, MISMATCH, NOT_FUNCTION, NOT_PAIR,
    REFL_ENDPOINTS, UNBOUND, UNIVERSE, fail,
)
from .pretty import pretty
from .semantics import (
    Fuel, FuelExhausted, SigEntry, Signature, V_NAT, V_UNIT, V_U0, VId, VPi,
    VSigma, VUniverse, Value, eval_term, quote, convert, vapp, vfst, vvar,
)
from .semantics import vapp as apply_closure  # unused; bench/spans.py traces this name
from .surface import Parser
from .syntax import (
    FIELDS, Absurd, App, ElimJ, ElimK, Empty, Fst, Global, Id, Lambda, Nat,
    NatElim, Pair, Pi, Refl, Sigma, Snd, Span, Succ, Term, TT, Unit, Universe,
    Var, Zero, uses,
)
from .syntax import shift  # unused here; bench/spans.py traces it by this name


@dataclass(frozen=True, slots=True)
class FlagSet:
    """Checking policy switches; the defaults are the conservative ones."""

    type_in_type: bool = False
    enable_k: bool = False
    fuel: int = 1_000_000


@dataclass(eq=False, slots=True)
class Context:
    """Typing context: parallel name/type telescopes plus an eval environment.

    `names` and `types` run outermost first; `env` binds each variable to a
    neutral and runs innermost first, matching the evaluator's convention.
    """

    sig: Signature
    flags: FlagSet
    fuel: Fuel
    names: tuple[str, ...] = ()
    types: tuple[Value, ...] = ()
    env: tuple[Value, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.names)

    def bind(self, name: str, ty: Value) -> Context:
        return Context(self.sig, self.flags, self.fuel,
                       self.names + (name,), self.types + (ty,),
                       (vvar(self.depth),) + self.env)

    def type_of_var(self, index: int) -> Value:
        return self.types[len(self.types) - 1 - index]

    def eval(self, t: Term) -> Value:
        return eval_term(self.env, t, self.fuel, self.sig)

    def convert(self, a: Value, b: Value) -> bool:
        return convert(self.depth, a, b, self.fuel, self.sig)


# Display budget for types inside diagnostics; independent of the checking
# fuel so a message can still be produced after exhaustion elsewhere.
# Read-back spends fuel per call, so this budget also caps the size of a
# displayed type: a larger one, or one too deep to print, shows as its global or "...".
_SHOW_FUEL = 10_000
_SHOW_WIDTH = 80


def show_type(ctx: Context, v: Value) -> str:
    """Beta-normal rendering of a type for diagnostics, truncated."""
    try:
        term = quote(ctx.depth, v, Fuel.budget(_SHOW_FUEL), ctx.sig)
        text = pretty(term, ctx.names, ctx.sig.entries.keys())
    except (FuelExhausted, RecursionError):
        return next((name for name, e in ctx.sig.entries.items() if e.cached is v), "...")
    return text if len(text) <= _SHOW_WIDTH else text[: _SHOW_WIDTH - 3] + "..."


def check_is_type(ctx: Context, t: Term) -> int:
    """Check that `t` is a type; return the universe level it lives at."""
    ty = infer(ctx, t)
    if type(ty) is not VUniverse:
        fail(MISMATCH, "expected a type", t.span,
             (f"found a term of type {show_type(ctx, ty)}",))
    return ty.level


def _wildcard(t: Term) -> Term:
    """`t` with every universe replaced by the level wildcard."""
    fields = {name: _wildcard(getattr(t, name)) for name, _ in FIELDS[type(t)]}
    return Universe(None) if type(t) is Universe else replace(t, **fields)


# Each eliminator's typing rule, stated as its type: one binder per field, in
# FIELDS order, then the result. Every `U` becomes the level wildcard, so a
# motive may land in any universe level, under either policy.
_RULE_TEXTS = {
    ElimJ: ("(A : U) -> (x : A) -> (P : (y : A) -> Id A x y -> U) -> P x refl"
            " -> (y : A) -> (p : Id A x y) -> P y p"),
    ElimK: "(A : U) -> (x : A) -> (P : Id A x x -> U) -> P refl -> (p : Id A x x) -> P p",
    Absurd: "(P : Empty -> U) -> (e : Empty) -> P e",
    NatElim: "(P : Nat -> U) -> P zero -> ((m : Nat) -> P m -> P (succ m)) -> (n : Nat) -> P n",
}
RULES: dict[type, Term] = {
    cls: _wildcard(Parser(text).parse_expr())
    for cls, text in _RULE_TEXTS.items()
}


def _parts(rule: Term, binders: int) -> tuple[tuple[Term, tuple[int, ...]], ...]:
    """The domain of each of `rule`'s binders, then its result, each with
    the positions of the binders before it that it mentions, outermost
    first."""
    parts = []
    for _ in range(binders):
        parts.append(rule.domain)
        rule = rule.codomain
    parts.append(rule)
    return tuple((part, tuple(i for i in range(k) if uses(part, k - 1 - i)))
                 for k, part in enumerate(parts))


# Read once here, so `infer` never walks a rule part to find its binders.
_PARTS = {cls: _parts(rule, len(FIELDS[cls])) for cls, rule in RULES.items()}


def _open(ctx: Context, part: Term, mentioned: tuple[int, ...], args: list) -> Value:
    """Evaluate `part` of a rule under binders bound to `args`, outermost
    first. An entry is a field's term until a part first mentions its
    binder; then it is evaluated, and its value replaces it."""
    for i in mentioned:
        if isinstance(args[i], Term):
            args[i] = ctx.eval(args[i])
    return eval_term(tuple(reversed(args)), part, ctx.fuel, ctx.sig)


# The types of the nullary formers, as `semantics._CONSTS` holds their values.
_CONSTANT_TYPES = {Empty: V_U0, Unit: V_U0, Nat: V_U0, TT: V_UNIT, Zero: V_NAT}


def infer(ctx: Context, t: Term) -> Value:
    """Synthesize a type value for `t`, or fail with a diagnostic."""
    cls = type(t)
    if cls is Var:
        return ctx.type_of_var(t.index)
    if cls is Global:
        entry = ctx.sig.entries.get(t.name)
        if entry is None:
            fail(UNBOUND, f"unbound name '{t.name}'", t.span)
        return entry.ty
    if cls is Universe:
        # Type-in-type is the one rule `U : U`: every level is then 0.
        return V_U0 if ctx.flags.type_in_type else VUniverse(t.level + 1)
    if cls is Pi or cls is Sigma:
        i = check_is_type(ctx, t.domain)
        j = check_is_type(ctx.bind(t.name, ctx.eval(t.domain)), t.codomain)
        return VUniverse(max(i, j))
    if cls is Id:
        # Formation lands at the level of the endpoint type.
        i = check_is_type(ctx, t.ty)
        ty_v = ctx.eval(t.ty)
        check(ctx, t.lhs, ty_v)
        check(ctx, t.rhs, ty_v)
        return VUniverse(i)
    if cls is App:
        # Check the spine `f a1 ... an` in one frame: the head, then each
        # argument left to right, so a long spine does not recurse.
        nodes = []
        while type(t) is App:
            nodes.append(t)
            t = t.fn
        fn_ty = infer(ctx, t)
        for node in reversed(nodes):
            if type(fn_ty) is not VPi:
                fail(NOT_FUNCTION, "not a function", node.span,
                     (f"the applied term has type {show_type(ctx, fn_ty)}",))
            check(ctx, node.arg, fn_ty.domain)
            fn_ty = vapp(fn_ty.codomain, ctx.eval(node.arg), ctx.fuel, ctx.sig)
        return fn_ty
    if cls is Fst or cls is Snd:
        ty = infer(ctx, t.target)
        if type(ty) is not VSigma:
            fail(NOT_PAIR, "not a pair", t.span,
                 (f"the projected term has type {show_type(ctx, ty)}",))
        if cls is Fst:
            return ty.domain
        return vapp(ty.codomain, vfst(ctx.eval(t.target), ctx.fuel), ctx.fuel, ctx.sig)
    ty = _CONSTANT_TYPES.get(cls)
    if ty is not None:
        return ty
    if cls is Succ:
        check(ctx, t.arg, V_NAT)
        return V_NAT
    parts = _PARTS.get(cls)
    if parts is not None:
        # Walk the rule's binders alongside the fields; its body is the result.
        if cls is ElimK and not ctx.flags.enable_k:
            fail(K_DISABLED, "K eliminator requires --enable-K", t.span)
        args: list[Term | Value] = []
        for (name, _), (domain, mentioned) in zip(FIELDS[cls], parts):
            arg = getattr(t, name)
            if type(domain) is Universe:
                check_is_type(ctx, arg)
            else:
                check(ctx, arg, _open(ctx, domain, mentioned, args))
            args.append(arg)
        return _open(ctx, *parts[-1], args)
    # Lambda, Pair, and Refl only check against a given type.
    fail(CANNOT_INFER, "cannot infer a type for this term", t.span,
         ("functions, pairs, and refl only check against a stated type",))


def check(ctx: Context, t: Term, expected: Value) -> None:
    """Check `t` against the type value `expected`."""
    cls = type(t)
    if cls is Lambda:
        if type(expected) is VPi:
            inner = ctx.bind(t.name, expected.domain)
            result = vapp(expected.codomain, vvar(ctx.depth), ctx.fuel, ctx.sig)
            check(inner, t.body, result)
            return
        found = "a function"
    elif cls is Pair:
        if type(expected) is VSigma:
            check(ctx, t.first, expected.domain)
            second_ty = vapp(expected.codomain, ctx.eval(t.first), ctx.fuel, ctx.sig)
            check(ctx, t.second, second_ty)
            return
        found = "a pair"
    elif cls is Refl:
        if type(expected) is VId:
            if not ctx.convert(expected.lhs, expected.rhs):
                fail(REFL_ENDPOINTS, "refl endpoints differ", t.span,
                     (f"left:  {show_type(ctx, expected.lhs)}",
                      f"right: {show_type(ctx, expected.rhs)}"))
            return
        found = "refl"
    else:
        inferred = infer(ctx, t)
        if ctx.convert(inferred, expected):
            return
        if type(inferred) is VUniverse and type(expected) is VUniverse:
            fail(UNIVERSE,
                 f"universe inconsistency: type lives in U{inferred.level} "
                 f"but is annotated U{expected.level}", t.span)
        found = None
    fail(MISMATCH, "type mismatch", t.span,
         (f"expected: {show_type(ctx, expected)}",
          f"found:    {found or show_type(ctx, inferred)}"))


def check_declaration(ctx: Context, name: str, ty_term: Term, body_term: Term,
                      span: Span | None = None) -> None:
    """Check `name : ty := body` in `ctx`, on its fuel, and install it in `ctx.sig`.

    The declared type is evaluated now; the body is stored and evaluates on
    first use, so a well-typed body with no normal form can still be
    installed.
    """
    if name in ctx.sig.entries:
        fail(DUPLICATE, f"duplicate definition of '{name}'", span)
    check_is_type(ctx, ty_term)
    ty_v = ctx.eval(ty_term)
    check(ctx, body_term, ty_v)
    ctx.sig.entries[name] = SigEntry(ty_v, body_term)
