"""Evaluation to values, read-back, and definitional equality.

Definitional equality is beta plus eliminator computation plus function
eta; pairs and the unit type have no eta rule. Evaluation is untyped and
policy-free: universe levels only become meaningful when the kernel
compares them, and under type-in-type every term it builds lives at
level 0 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    Absurd, App, ElimJ, ElimK, Empty, Fst, Global, Id, Lambda, Nat, NatElim,
    Pair, Pi, Refl, Sigma, Snd, Span, Succ, Term, TT, Unit, Universe, Var,
    Zero,
)


class FuelExhausted(Exception):
    """The reduction budget ran out; `steps` equals the whole budget."""

    def __init__(self, steps: int):
        super().__init__(f"fuel exhausted after {steps} steps")
        self.steps = steps


@dataclass(slots=True)
class Fuel:
    """Mutable per-call step budget. Each beta or eliminator step costs 1.

    A Fuel object is private to one checking or normalization call; it is
    never shared across threads.
    """

    remaining: int
    total: int

    @classmethod
    def budget(cls, n: int) -> Fuel:
        return cls(n, n)

    def spend(self) -> None:
        if self.remaining == 0:
            raise FuelExhausted(self.total)
        self.remaining -= 1


class Value:
    """Base class for weak-head values; compared only via `convert`."""

    __slots__ = ()


@dataclass(eq=False, slots=True)
class Closure:
    """A term with one free variable suspended in its captured environment."""

    name: str
    env: tuple[Value, ...]
    term: Term


@dataclass(eq=False, slots=True)
class VUniverse(Value):
    # level None is the checking wildcard that matches any level.
    level: int | None = 0


@dataclass(eq=False, slots=True)
class VPi(Value):
    domain: Value
    codomain: Closure


@dataclass(eq=False, slots=True)
class VLambda(Value):
    body: Closure


@dataclass(eq=False, slots=True)
class VSigma(Value):
    first: Value
    second: Closure


@dataclass(eq=False, slots=True)
class VPair(Value):
    first: Value
    second: Value


@dataclass(eq=False, slots=True)
class VId(Value):
    ty: Value
    lhs: Value
    rhs: Value


@dataclass(eq=False, slots=True)
class VRefl(Value):
    pass


@dataclass(eq=False, slots=True)
class VEmpty(Value):
    pass


@dataclass(eq=False, slots=True)
class VUnit(Value):
    pass


@dataclass(eq=False, slots=True)
class VTT(Value):
    pass


@dataclass(eq=False, slots=True)
class VNat(Value):
    pass


@dataclass(eq=False, slots=True)
class VZero(Value):
    pass


@dataclass(eq=False, slots=True)
class VSucc(Value):
    pred: Value


class Elim:
    """One stuck elimination waiting on a neutral head."""

    __slots__ = ()


@dataclass(eq=False, slots=True)
class EApp(Elim):
    arg: Value


@dataclass(eq=False, slots=True)
class EFst(Elim):
    pass


@dataclass(eq=False, slots=True)
class ESnd(Elim):
    pass


@dataclass(eq=False, slots=True)
class EJ(Elim):
    ty: Value
    base: Value
    motive: Value
    case: Value
    target: Value


@dataclass(eq=False, slots=True)
class EK(Elim):
    ty: Value
    base: Value
    motive: Value
    case: Value


@dataclass(eq=False, slots=True)
class EAbsurd(Elim):
    motive: Value


@dataclass(eq=False, slots=True)
class ENatElim(Elim):
    motive: Value
    zcase: Value
    scase: Value


@dataclass(eq=False, slots=True)
class VNeutral(Value):
    head: int  # free variable as a level, counted from the context root
    spine: tuple[Elim, ...] = ()


V_REFL = VRefl()
V_EMPTY = VEmpty()
V_UNIT = VUnit()
V_TT = VTT()
V_NAT = VNat()
V_ZERO = VZero()
V_U0 = VUniverse(0)
V_UANY = VUniverse(None)


def vvar(level: int) -> VNeutral:
    return VNeutral(level, ())


@dataclass(eq=False, slots=True)
class SigEntry:
    """One checked global. The body evaluates lazily on first use."""

    ty: Value
    body: Term
    span: Span | None = None
    cached: Value | None = None


@dataclass(eq=False, slots=True)
class Signature:
    """Ordered store of checked globals; later entries may use earlier ones."""

    entries: dict[str, SigEntry] = field(default_factory=dict)

    def value_of(self, name: str, fuel: Fuel) -> Value:
        entry = self.entries[name]
        if entry.cached is None:
            entry.cached = eval_term((), entry.body, fuel, self)
        return entry.cached


def _extend(v: Value, elim: Elim) -> Value:
    if type(v) is VNeutral:
        return VNeutral(v.head, v.spine + (elim,))
    raise AssertionError("eliminator applied to a value of the wrong shape")


def eval_term(env: tuple[Value, ...], t: Term, fuel: Fuel,
              sig: Signature) -> Value:
    """Evaluate `t` under `env` (innermost binding first).

    Globals unfold eagerly. An application spine `f a1 ... an` is evaluated
    in one frame, in source order: the head, then each argument left to
    right. While the pending body is a lambda, each argument is bound
    straight into its environment for one fuel, with no closure built in
    between; a pending body that is not a lambda is evaluated before the
    next argument, exactly as nested applications would. Reductions in
    tail position, the last body of a spine included, loop instead of
    recursing, so a diverging term burns fuel at constant stack depth.
    """
    entries = sig.entries
    while True:
        cls = type(t)
        if cls is App:
            args = [t.arg]
            head = t.fn
            while type(head) is App:
                args.append(head.arg)
                head = head.fn
            # `body` is the pending function body under `benv`, or None
            # once the function is the value `fn`.
            hcls = type(head)
            if hcls is Lambda:
                body, benv = head, env
            else:
                body = None
                if hcls is Var:
                    fn = env[head.index]
                elif hcls is Global:
                    fn = entries[head.name].cached
                    if fn is None:
                        fn = sig.value_of(head.name, fuel)
                else:
                    fn = eval_term(env, head, fuel, sig)
            for a in reversed(args):
                if body is not None and type(body) is not Lambda:
                    fn = eval_term(benv, body, fuel, sig)
                    body = None
                acls = type(a)
                if acls is Var:
                    arg = env[a.index]
                elif acls is Global:
                    arg = entries[a.name].cached
                    if arg is None:
                        arg = sig.value_of(a.name, fuel)
                elif acls is Lambda:
                    arg = VLambda(Closure(a.name, env, a.body))
                else:
                    arg = eval_term(env, a, fuel, sig)
                if body is not None:
                    inner = body.body
                elif type(fn) is VLambda:
                    benv, inner = fn.body.env, fn.body.term
                else:
                    fn = _extend(fn, EApp(arg))
                    continue
                if fuel.remaining == 0:
                    raise FuelExhausted(fuel.total)
                fuel.remaining -= 1
                benv = (arg,) + benv
                body = inner
            if body is None:
                return fn
            # Let go of the spine's values; the tail may run for long.
            fn = arg = args = None
            env = benv
            t = body
            continue
        if cls is Lambda:
            return VLambda(Closure(t.name, env, t.body))
        if cls is Var:
            return env[t.index]
        if cls is Global:
            v = entries[t.name].cached
            return sig.value_of(t.name, fuel) if v is None else v
        if cls is Fst:
            v = eval_term(env, t.target, fuel, sig)
            if type(v) is VPair:
                fuel.spend()
                return v.first
            return _extend(v, EFst())
        if cls is Snd:
            v = eval_term(env, t.target, fuel, sig)
            if type(v) is VPair:
                fuel.spend()
                return v.second
            return _extend(v, ESnd())
        if cls is Pi:
            return VPi(eval_term(env, t.domain, fuel, sig), Closure(t.name, env, t.codomain))
        if cls is Sigma:
            return VSigma(eval_term(env, t.first, fuel, sig), Closure(t.name, env, t.second))
        if cls is Pair:
            return VPair(eval_term(env, t.first, fuel, sig), eval_term(env, t.second, fuel, sig))
        if cls is Id:
            return VId(eval_term(env, t.ty, fuel, sig), eval_term(env, t.lhs, fuel, sig),
                       eval_term(env, t.rhs, fuel, sig))
        if cls is Refl:
            return V_REFL
        if cls is ElimJ:
            p = eval_term(env, t.proof, fuel, sig)
            if type(p) is VRefl:
                fuel.spend()
                t = t.case
                continue
            return _extend(p, EJ(eval_term(env, t.ty, fuel, sig),
                                 eval_term(env, t.base, fuel, sig),
                                 eval_term(env, t.motive, fuel, sig),
                                 eval_term(env, t.case, fuel, sig),
                                 eval_term(env, t.target, fuel, sig)))
        if cls is ElimK:
            p = eval_term(env, t.proof, fuel, sig)
            if type(p) is VRefl:
                fuel.spend()
                t = t.case
                continue
            return _extend(p, EK(eval_term(env, t.ty, fuel, sig),
                                 eval_term(env, t.base, fuel, sig),
                                 eval_term(env, t.motive, fuel, sig),
                                 eval_term(env, t.case, fuel, sig)))
        if cls is NatElim:
            n = eval_term(env, t.target, fuel, sig)
            if type(n) is VZero:
                fuel.spend()
                t = t.zcase
                continue
            motive = eval_term(env, t.motive, fuel, sig)
            zcase = eval_term(env, t.zcase, fuel, sig)
            scase = eval_term(env, t.scase, fuel, sig)
            if type(n) is not VSucc:
                return _extend(n, ENatElim(motive, zcase, scase))
            # Peel the successor spine, then fold upward iteratively.
            preds: list[Value] = []
            while type(n) is VSucc:
                preds.append(n.pred)
                n = n.pred
            if type(n) is VZero:
                fuel.spend()
                acc = zcase
            else:
                acc = _extend(n, ENatElim(motive, zcase, scase))
            for m in reversed(preds):
                fuel.spend()
                acc = vapp(vapp(scase, m, fuel, sig), acc, fuel, sig)
            return acc
        if cls is Absurd:
            v = eval_term(env, t.target, fuel, sig)
            return _extend(v, EAbsurd(eval_term(env, t.motive, fuel, sig)))
        if cls is Universe:
            return V_U0 if t.level == 0 else VUniverse(t.level)
        if cls is Succ:
            return VSucc(eval_term(env, t.arg, fuel, sig))
        if cls is Zero:
            return V_ZERO
        if cls is Nat:
            return V_NAT
        if cls is Unit:
            return V_UNIT
        if cls is TT:
            return V_TT
        if cls is Empty:
            return V_EMPTY
        raise AssertionError(f"cannot evaluate {t!r}")


def vapp(fn: Value, arg: Value, fuel: Fuel, sig: Signature) -> Value:
    """Apply a function value outside tail position."""
    if type(fn) is VLambda:
        return apply_closure(fn.body, arg, fuel, sig)
    return _extend(fn, EApp(arg))


def apply_closure(cl: Closure, arg: Value, fuel: Fuel,
                  sig: Signature) -> Value:
    # Instantiating a suspended body is a beta step wherever it happens,
    # including during quotation and conversion.
    fuel.spend()
    return eval_term((arg,) + cl.env, cl.term, fuel, sig)


def vfst(v: Value, fuel: Fuel) -> Value:
    if type(v) is VPair:
        fuel.spend()
        return v.first
    return _extend(v, EFst())


def vsnd(v: Value, fuel: Fuel) -> Value:
    if type(v) is VPair:
        fuel.spend()
        return v.second
    return _extend(v, ESnd())


def quote(depth: int, v: Value, fuel: Fuel, sig: Signature) -> Term:
    """Read a value back to a term with `depth` variables in scope.

    Quotation under a binder forces the suspended body at a fresh variable,
    so it can exhaust fuel on its own.
    """
    cls = type(v)
    if cls is VNeutral:
        t: Term = Var(depth - 1 - v.head)
        for e in v.spine:
            ce = type(e)
            if ce is EApp:
                t = App(t, quote(depth, e.arg, fuel, sig))
            elif ce is EFst:
                t = Fst(t)
            elif ce is ESnd:
                t = Snd(t)
            elif ce is EJ:
                t = ElimJ(quote(depth, e.ty, fuel, sig), quote(depth, e.base, fuel, sig),
                          quote(depth, e.motive, fuel, sig), quote(depth, e.case, fuel, sig),
                          quote(depth, e.target, fuel, sig), t)
            elif ce is EK:
                t = ElimK(quote(depth, e.ty, fuel, sig), quote(depth, e.base, fuel, sig),
                          quote(depth, e.motive, fuel, sig), quote(depth, e.case, fuel, sig), t)
            elif ce is EAbsurd:
                t = Absurd(quote(depth, e.motive, fuel, sig), t)
            else:
                t = NatElim(quote(depth, e.motive, fuel, sig), quote(depth, e.zcase, fuel, sig),
                            quote(depth, e.scase, fuel, sig), t)
        return t
    if cls is VLambda:
        body = apply_closure(v.body, vvar(depth), fuel, sig)
        return Lambda(v.body.name, quote(depth + 1, body, fuel, sig))
    if cls is VPi:
        cod = apply_closure(v.codomain, vvar(depth), fuel, sig)
        return Pi(v.codomain.name, quote(depth, v.domain, fuel, sig),
                  quote(depth + 1, cod, fuel, sig))
    if cls is VSigma:
        snd = apply_closure(v.second, vvar(depth), fuel, sig)
        return Sigma(v.second.name, quote(depth, v.first, fuel, sig),
                     quote(depth + 1, snd, fuel, sig))
    if cls is VPair:
        return Pair(quote(depth, v.first, fuel, sig), quote(depth, v.second, fuel, sig))
    if cls is VId:
        return Id(quote(depth, v.ty, fuel, sig), quote(depth, v.lhs, fuel, sig),
                  quote(depth, v.rhs, fuel, sig))
    if cls is VSucc:
        return Succ(quote(depth, v.pred, fuel, sig))
    if cls is VUniverse:
        return Universe(v.level)
    if cls is VRefl:
        return Refl()
    if cls is VZero:
        return Zero()
    if cls is VNat:
        return Nat()
    if cls is VUnit:
        return Unit()
    if cls is VTT:
        return TT()
    if cls is VEmpty:
        return Empty()
    raise AssertionError(f"cannot quote {v!r}")


def convert(depth: int, a: Value, b: Value, fuel: Fuel,
            sig: Signature) -> bool:
    """Definitional equality on values at binder depth `depth`."""
    ca, cb = type(a), type(b)
    if ca is VLambda or cb is VLambda:
        # Function eta: a lambda equals a neutral when their applications
        # to a fresh variable are equal.
        if not (ca in (VLambda, VNeutral) and cb in (VLambda, VNeutral)):
            return False
        x = vvar(depth)
        return convert(depth + 1, vapp(a, x, fuel, sig), vapp(b, x, fuel, sig), fuel, sig)
    if ca is not cb:
        return False
    if ca is VNeutral:
        if a.head != b.head or len(a.spine) != len(b.spine):
            return False
        return all(_convert_elim(depth, e1, e2, fuel, sig)
                   for e1, e2 in zip(a.spine, b.spine))
    if ca is VUniverse:
        return a.level == b.level or a.level is None or b.level is None
    if ca is VPi:
        if not convert(depth, a.domain, b.domain, fuel, sig):
            return False
        x = vvar(depth)
        return convert(depth + 1, apply_closure(a.codomain, x, fuel, sig),
                       apply_closure(b.codomain, x, fuel, sig), fuel, sig)
    if ca is VSigma:
        if not convert(depth, a.first, b.first, fuel, sig):
            return False
        x = vvar(depth)
        return convert(depth + 1, apply_closure(a.second, x, fuel, sig),
                       apply_closure(b.second, x, fuel, sig), fuel, sig)
    if ca is VPair:
        return (convert(depth, a.first, b.first, fuel, sig)
                and convert(depth, a.second, b.second, fuel, sig))
    if ca is VId:
        return (convert(depth, a.ty, b.ty, fuel, sig)
                and convert(depth, a.lhs, b.lhs, fuel, sig)
                and convert(depth, a.rhs, b.rhs, fuel, sig))
    if ca is VSucc:
        return convert(depth, a.pred, b.pred, fuel, sig)
    # VRefl, VEmpty, VUnit, VTT, VNat, VZero are equal by head alone.
    return True


def _convert_elim(depth: int, a: Elim, b: Elim, fuel: Fuel, sig: Signature) -> bool:
    ca, cb = type(a), type(b)
    if ca is not cb:
        return False
    if ca is EApp:
        return convert(depth, a.arg, b.arg, fuel, sig)
    if ca is EJ:
        return all(convert(depth, x, y, fuel, sig) for x, y in (
            (a.ty, b.ty), (a.base, b.base), (a.motive, b.motive),
            (a.case, b.case), (a.target, b.target)))
    if ca is EK:
        return all(convert(depth, x, y, fuel, sig) for x, y in (
            (a.ty, b.ty), (a.base, b.base), (a.motive, b.motive), (a.case, b.case)))
    if ca is EAbsurd:
        return convert(depth, a.motive, b.motive, fuel, sig)
    if ca is ENatElim:
        return all(convert(depth, x, y, fuel, sig) for x, y in (
            (a.motive, b.motive), (a.zcase, b.zcase), (a.scase, b.scase)))
    # EFst and ESnd carry nothing.
    return True


def normalize(env: tuple[Value, ...], t: Term, fuel: Fuel,
              sig: Signature) -> Term:
    """Quote the value of `t`; `env` must bind each free variable."""
    return quote(len(env), eval_term(env, t, fuel, sig), fuel, sig)
