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
    FIELDS, Absurd, App, ElimJ, ElimK, Empty, Fst, Global, Id, Lambda, Nat,
    NatElim, Pair, Pi, Refl, Sigma, Snd, Succ, Term, TT, Unit, Universe, Var,
    Zero,
)


class FuelExhausted(Exception):
    """The reduction budget ran out; `steps` equals the whole budget."""

    def __init__(self, steps: int):
        super().__init__(f"fuel exhausted after {steps} steps")
        self.steps = steps


@dataclass(slots=True)
class Fuel:
    """Mutable per-call work budget.

    Each beta or eliminator step costs 1, and so does each call of `quote`
    or `convert`, so read-back and comparison are bounded too.

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
class Closure(Value):
    """A term with one free variable suspended in its captured environment.

    It is also the value of a lambda, whose body it suspends. `code`, when
    set, is the compiled function of the body left after stripping the
    lambdas that `term` starts with (see `tinytt.codegen`).
    """

    name: str
    env: tuple[Value, ...]
    term: Term
    code: object = None


@dataclass(eq=False, slots=True)
class VUniverse(Value):
    # level None is the checking wildcard that matches any level.
    level: int | None = 0


@dataclass(eq=False, slots=True)
class VPi(Value):
    domain: Value
    codomain: Closure


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
class VConst(Value):
    """The value of a nullary former; each has one shared instance below."""

    term: type


@dataclass(eq=False, slots=True)
class VSucc(Value):
    pred: Value


@dataclass(eq=False, slots=True)
class VNeutral(Value):
    head: int  # free variable as a level, counted from the context root
    # One frame per stuck elimination, innermost first: the eliminator's
    # term class and the values of its fields in FRAME_FIELDS order.
    spine: tuple[tuple[type, tuple[Value, ...]], ...] = ()


# The field each eliminator is stuck on; a frame holds the values of the
# eliminator's other fields, in `FIELDS` order.
SCRUTINEE: dict[type, str] = {
    App: "fn", Fst: "target", Snd: "target", ElimJ: "proof", ElimK: "proof",
    Absurd: "target", NatElim: "target",
}
FRAME_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(name for name, _ in FIELDS[cls] if name != scrutinee)
    for cls, scrutinee in SCRUTINEE.items()
}

V_REFL = VConst(Refl)
V_EMPTY = VConst(Empty)
V_UNIT = VConst(Unit)
V_TT = VConst(TT)
V_NAT = VConst(Nat)
V_ZERO = VConst(Zero)
V_U0 = VUniverse(0)
# The value of each nullary former; eval_term tests Refl early.
_CONSTS = {Zero: V_ZERO, Nat: V_NAT, Unit: V_UNIT, TT: V_TT, Empty: V_EMPTY,
           Refl: V_REFL}


def vvar(level: int) -> VNeutral:
    return VNeutral(level, ())


# The class of a compiled body, which `eval_term` calls.
_CODE = type(vvar)


@dataclass(eq=False, slots=True)
class SigEntry:
    """One checked global. The body evaluates lazily on first use."""

    ty: Value
    body: Term
    cached: Value | None = None


@dataclass(eq=False, slots=True)
class Signature:
    """Ordered store of checked globals; later entries may use earlier ones."""

    entries: dict[str, SigEntry] = field(default_factory=dict)
    # Compiled functions by the body term they evaluate (tinytt.codegen).
    code: dict = field(default_factory=dict)

    def value_of(self, name: str, fuel: Fuel) -> Value:
        entry = self.entries[name]
        if entry.cached is None:
            if type(entry.body) is Lambda:
                # A lambda's value costs no fuel, compiled or not.
                from .codegen import closure
                entry.cached = closure(self, entry.body)
            else:
                entry.cached = eval_term((), entry.body, fuel, self)
        return entry.cached


def _extend(v: Value, cls: type, vals: tuple[Value, ...] = ()) -> Value:
    if type(v) is VNeutral:
        return VNeutral(v.head, v.spine + ((cls, vals),))
    raise AssertionError("eliminator applied to a value of the wrong shape")


def _stuck(env: tuple[Value, ...], t: Term, v: Value, fuel: Fuel,
           sig: Signature) -> Value:
    """Extend `v`, the value of `t`'s scrutinee, with a frame for `t`."""
    vals = []
    for name in FRAME_FIELDS[type(t)]:
        vals.append(eval_term(env, getattr(t, name), fuel, sig))
    return _extend(v, type(t), tuple(vals))


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
            # once the function is the value `fn`; `code` is the compiled
            # function of the body that the last closure bound strips to.
            code = None
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
                    arg = Closure(a.name, env, a.body)
                else:
                    arg = eval_term(env, a, fuel, sig)
                if body is not None:
                    inner = body.body
                elif type(fn) is Closure:
                    benv, inner, code = fn.env, fn.term, fn.code
                else:
                    fn = _extend(fn, App, (arg,))
                    continue
                if code is not None and type(inner) is not Lambda:
                    inner = code
                if fuel.remaining == 0:
                    raise FuelExhausted(fuel.total)
                fuel.remaining -= 1
                benv = (arg,) + benv
                body = inner
            if body is None:
                return fn
            if code is not None and type(body) is Lambda:
                return Closure(body.name, benv, body.body, code)
            # Let go of the spine's values; the tail may run for long.
            fn = arg = args = None
            env = benv
            t = body
            continue
        if cls is _CODE:
            # A compiled body; a tail call comes back as (env, body).
            v = t(env, fuel, sig)
            if type(v) is not tuple:
                return v
            env, t = v
            continue
        if cls is Lambda:
            return Closure(t.name, env, t.body)
        if cls is Var:
            return env[t.index]
        if cls is Global:
            v = entries[t.name].cached
            return sig.value_of(t.name, fuel) if v is None else v
        if cls is Fst or cls is Snd:
            v = eval_term(env, t.target, fuel, sig)
            if type(v) is VPair:
                fuel.spend()
                return v.first if cls is Fst else v.second
            return _extend(v, cls)
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
        if cls is ElimJ or cls is ElimK:
            p = eval_term(env, t.proof, fuel, sig)
            if p is V_REFL:
                fuel.spend()
                t = t.case
                continue
            return _stuck(env, t, p, fuel, sig)
        if cls is NatElim:
            n = eval_term(env, t.target, fuel, sig)
            if n is V_ZERO:
                fuel.spend()
                t = t.zcase
                continue
            motive = eval_term(env, t.motive, fuel, sig)
            zcase = eval_term(env, t.zcase, fuel, sig)
            scase = eval_term(env, t.scase, fuel, sig)
            if type(n) is not VSucc:
                return _extend(n, NatElim, (motive, zcase, scase))
            # Peel the successor spine, then fold upward iteratively.
            preds: list[Value] = []
            while type(n) is VSucc:
                preds.append(n.pred)
                n = n.pred
            if n is V_ZERO:
                fuel.spend()
                acc = zcase
            else:
                acc = _extend(n, NatElim, (motive, zcase, scase))
            for m in reversed(preds):
                fuel.spend()
                acc = vapp(vapp(scase, m, fuel, sig), acc, fuel, sig)
            return acc
        if cls is Absurd:
            return _stuck(env, t, eval_term(env, t.target, fuel, sig), fuel, sig)
        if cls is Universe:
            return V_U0 if t.level == 0 else VUniverse(t.level)
        if cls is Succ:
            return VSucc(eval_term(env, t.arg, fuel, sig))
        const = _CONSTS.get(cls)
        if const is None:
            raise AssertionError(f"cannot evaluate {t!r}")
        return const


def enter(fn: Value, arg: Value, fuel: Fuel):
    """Apply `fn` to `arg` in tail position: the result, or the pair
    (env, body) that `eval_term` evaluates to it, where the body is a term
    or a compiled function."""
    if type(fn) is not Closure:
        return _extend(fn, App, (arg,))
    # Instantiating a suspended body is a beta step wherever it happens,
    # including during quotation and conversion.
    if fuel.remaining == 0:
        raise FuelExhausted(fuel.total)
    fuel.remaining -= 1
    env, term, code = (arg,) + fn.env, fn.term, fn.code
    if code is not None and type(term) is Lambda:
        return Closure(term.name, env, term.body, code)
    return env, term if code is None else code


def vapp(fn: Value, arg: Value, fuel: Fuel, sig: Signature) -> Value:
    """Apply a function value outside tail position."""
    v = enter(fn, arg, fuel)
    return eval_term(v[0], v[1], fuel, sig) if type(v) is tuple else v


# A closure is a function value.
apply_closure = vapp


def vfst(v: Value, fuel: Fuel) -> Value:
    if type(v) is VPair:
        fuel.spend()
        return v.first
    return _extend(v, Fst)


def quote(depth: int, v: Value, fuel: Fuel, sig: Signature) -> Term:
    """Read a value back to a term with `depth` variables in scope.

    Each call costs one fuel, so reading back a value costs one unit per
    node above its neutrals, plus one per value stored in their frames.
    Quotation under a binder also forces the suspended body at a fresh
    variable, which costs its own beta steps.
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
                fields[name] = quote(depth, x, fuel, sig)
            t = ecls(**fields)
        return t
    if cls is Closure:
        body = apply_closure(v, vvar(depth), fuel, sig)
        return Lambda(v.name, quote(depth + 1, body, fuel, sig))
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
    raise AssertionError(f"cannot quote {v!r}")


def convert(depth: int, a: Value, b: Value, fuel: Fuel, sig: Signature,
            seen: set | None = None) -> bool:
    """Definitional equality on values at binder depth `depth`.

    Each call costs one fuel, an identity hit included. Values are
    immutable, so an object equals itself without a walk; shared values,
    such as a global's cached value, compare in O(1). `seen` holds the
    pairs of nodes with two or more children proven equal so far in this
    top-level call, so two copies of a shared value compare once per
    distinct pair of nodes. Neutral heads are levels, so a pair's answer
    does not depend on the depth it is met at.
    """
    if fuel.remaining == 0:
        raise FuelExhausted(fuel.total)
    fuel.remaining -= 1
    if a is b:
        return True
    ca, cb = type(a), type(b)
    if ca is Closure or cb is Closure:
        # Function eta: a lambda equals a neutral when their applications
        # to a fresh variable are equal.
        if not (ca in (Closure, VNeutral) and cb in (Closure, VNeutral)):
            return False
        x = vvar(depth)
        return convert(depth + 1, vapp(a, x, fuel, sig), vapp(b, x, fuel, sig),
                       fuel, sig, seen)
    if ca is not cb or ca is VConst:
        # Each former has one shared VConst instance, and `a is b` failed.
        return False
    if ca is VUniverse:
        return a.level == b.level or a.level is None or b.level is None
    if ca is VSucc:
        return convert(depth, a.pred, b.pred, fuel, sig, seen)
    if ca is VNeutral and (a.head != b.head or len(a.spine) != len(b.spine)):
        return False
    key = (a, b)
    remember = ca is not VNeutral or sum(len(vals) for _, vals in a.spine) > 1
    if remember:
        if seen is None:
            seen = set()
        elif key in seen:
            return True
    if ca is VNeutral:
        for (c1, vals1), (c2, vals2) in zip(a.spine, b.spine):
            if c1 is not c2:
                return False
            for x, y in zip(vals1, vals2):
                if not convert(depth, x, y, fuel, sig, seen):
                    return False
    elif ca is VPi or ca is VSigma:
        # A value field, then a closure compared at a fresh variable.
        first, rest = ca.__slots__
        if not convert(depth, getattr(a, first), getattr(b, first), fuel, sig, seen):
            return False
        x = vvar(depth)
        if not convert(depth + 1, apply_closure(getattr(a, rest), x, fuel, sig),
                       apply_closure(getattr(b, rest), x, fuel, sig), fuel, sig, seen):
            return False
    elif ca is VPair:
        if not (convert(depth, a.first, b.first, fuel, sig, seen)
                and convert(depth, a.second, b.second, fuel, sig, seen)):
            return False
    elif not (convert(depth, a.ty, b.ty, fuel, sig, seen)
              and convert(depth, a.lhs, b.lhs, fuel, sig, seen)
              and convert(depth, a.rhs, b.rhs, fuel, sig, seen)):
        return False
    if remember:
        seen.add(key)
    return True


def normalize(env: tuple[Value, ...], t: Term, fuel: Fuel,
              sig: Signature) -> Term:
    """Quote the value of `t`; `env` must bind each free variable."""
    return quote(len(env), eval_term(env, t, fuel, sig), fuel, sig)
