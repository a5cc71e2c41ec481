"""Evaluation to values, read-back, and definitional equality.

Definitional equality is beta plus eliminator computation plus function
eta; pairs and the unit type have no eta rule. Evaluation is untyped and
policy-free: universe levels only become meaningful when the kernel
compares them, and under type-in-type every term it builds lives at
level 0 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, make_dataclass

from .diagnostics import FUEL, Error
from .syntax import (
    FIELDS, Absurd, App, ElimJ, ElimK, Empty, Fst, Global, Id, Lambda, Nat,
    NatElim, Pair, Pi, Refl, Sigma, Snd, Succ, Term, TT, Unit, Universe, Var,
    Zero,
)


# The fuel an item of a cold run spends before the run tiers up in place
# (see `Signature.tier_up`); `Fuel.budget` reads it when it is called.
TIER_UP_FUEL = 1_000


class FuelExhausted(Error):
    """The reduction budget ran out; `steps` equals the whole budget. It
    has no span: it is reported at the item that spent the budget."""

    def __init__(self, steps: int):
        super().__init__(FUEL, f"fuel exhausted after {steps} steps", None)
        self.steps = steps


@dataclass(slots=True)
class Fuel:
    """Mutable per-call work budget.

    Each beta or eliminator step costs 1, and so does each call of `quote`
    or `convert`, so read-back and comparison are bounded too.

    A Fuel object meters one item or one diagnostic note, whole; it is
    never shared across threads. `tier_at` is the `remaining` value below
    which the next `eval_term` call or the end of a `quote` tiers a cold
    signature up: `budget` puts it `TIER_UP_FUEL` steps in, and the
    default, 0, never tiers up.
    """

    remaining: int
    total: int
    tier_at: int = 0

    @classmethod
    def budget(cls, n: int) -> Fuel:
        return cls(n, n, n - TIER_UP_FUEL)

    def spend(self, n: int = 1) -> None:
        """Charge `n` steps at once; with fewer left, spend what is left
        and raise, as `n` one-step charges would."""
        if self.remaining < n:
            self.remaining = 0
            raise FuelExhausted(self.total)
        self.remaining -= n


class Value:
    """Base class for weak-head values; compared only via `convert`."""

    __slots__ = ()


@dataclass(eq=False, slots=True)
class Closure(Value):
    """A term with one free variable suspended in its captured environment.

    It is also the value of a lambda, whose body it suspends: `body` is
    the body term, or the compiled function that `sig.code` holds for it
    (see `tinytt.codegen`), which `eval_term` runs in its place.
    """

    name: str
    env: tuple[Value, ...]
    body: object


@dataclass(eq=False, slots=True)
class VUniverse(Value):
    # level None is the checking wildcard that matches any level.
    level: int | None = 0


# The term class of each value class made from it: one field per subterm
# field, in `FIELDS` order, where a binding field holds a Closure.
FORMER: dict[type, type] = {
    make_dataclass("V" + term.__name__,
                   [(name, Closure if binds else Value) for name, binds in FIELDS[term]],
                   bases=(Value,), namespace={"__module__": __name__}, eq=False, slots=True): term
    for term in (Pi, Sigma, Pair, Id, Succ)
}
VPi, VSigma, VPair, VId, VSucc = FORMER


@dataclass(eq=False, slots=True)
class VConst(Value):
    """The value of a nullary former; each has one shared instance below."""

    term: type


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
    """Ordered store of checked globals; later entries may use earlier ones.

    A signature starts cold: `eval_term` runs every global until the fuel
    it runs on falls below its `tier_at`. Then the next `eval_term` call,
    or the end of a `quote`, calls `tier_up`, and from then on each lambda
    global is compiled when it is forced (see `tinytt.codegen`)."""

    entries: dict[str, SigEntry] = field(default_factory=dict)
    # Compiled functions by the body term they evaluate (tinytt.codegen).
    code: dict = field(default_factory=dict, init=False)
    # The names of the globals whose value is cached, in the order forced;
    # `quote` reuses no reading that forced one.
    forced: list[str] = field(default_factory=list, init=False)
    hot: bool = field(default=False, init=False)

    def value_of(self, name: str, fuel: Fuel, owed: int = 0) -> Value:
        """The value of global `name`, forced on first use. Compiled code
        passes the `owed` steps it has not charged yet: forcing charges
        them first, so that it sees the fuel the interpreter would, and
        gives them back to be charged with the rest."""
        entry = self.entries[name]
        if entry.cached is None:
            fuel.spend(owed)
            entry.cached = eval_term((), entry.body, fuel, self)
            fuel.remaining += owed
            self.forced.append(name)
            if self.hot:
                self._compile(entry)
        return entry.cached

    def tier_up(self) -> None:
        """Compile every forced lambda global, in the order forced, and
        make the signature hot. Frames already running go on interpreted;
        compiled code does what `eval_term` does step for step, so the run
        spends the same fuel either way."""
        self.hot = True
        for name in self.forced:
            self._compile(self.entries[name])

    def _compile(self, entry: SigEntry) -> None:
        """Compile a forced global if it is a lambda, and give its cached
        closure the function `code` now holds for its body, so that whoever
        enters the closure next runs it compiled. Evaluating a lambda only
        builds its closure, so compiling after the forcing is exact."""
        if type(entry.body) is Lambda:
            from .codegen import compile_lambda
            compile_lambda(self, entry.body)
        v = entry.cached
        if type(v) is Closure:
            v.body = self.code.get(v.body, v.body)


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

    Globals unfold eagerly. An application spine `f a1 ... an` evaluates
    in source order: the head, then each argument, applied as soon as it
    is evaluated; `enter` does every application. The last one is in tail
    position, like the reductions of J, K and natElim on a zero, so it
    loops instead of recursing, and a diverging term burns fuel at
    constant stack depth. This is the reference interpreter: speed lives
    in `tinytt.codegen`, whose compiled bodies it runs.
    """
    if not sig.hot and fuel.remaining < fuel.tier_at:
        sig.tier_up()
    entries = sig.entries
    while True:
        cls = type(t)
        if cls is App:
            args = []
            while type(t) is App:
                args.append(t.arg)
                t = t.fn
            fn = eval_term(env, t, fuel, sig)
            # `args` is last first; every argument but the last applies here.
            for i in range(len(args) - 1, -1, -1):
                a = args[i]
                arg = env[a.index] if type(a) is Var else eval_term(env, a, fuel, sig)
                if i:
                    fn = vapp(fn, arg, fuel, sig)
            v = enter(fn, arg, fuel)
            if type(v) is not tuple:
                return v
            env, t = v
            continue
        if cls is _CODE:
            # A compiled body; a tail call comes back as (env, body).
            v = t(env, fuel, sig)
            if type(v) is not tuple:
                return v
            env, t = v
            continue
        if cls is Lambda:
            # Every closure the interpreter makes finds its compiled body here.
            return Closure(t.name, env, sig.code.get(t.body, t.body))
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
        if cls is Pi or cls is Sigma:
            former = VPi if cls is Pi else VSigma
            return former(eval_term(env, t.domain, fuel, sig), Closure(t.name, env, t.codomain))
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
            # Peel the successor spine, then fold upward iteratively.
            preds: list[Value] = []
            while type(n) is VSucc:
                preds.append(n.arg)
                n = n.arg
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
    return (arg,) + fn.env, fn.body


def vapp(fn: Value, arg: Value, fuel: Fuel, sig: Signature) -> Value:
    """Apply a function value outside tail position."""
    v = enter(fn, arg, fuel)
    return eval_term(v[0], v[1], fuel, sig) if type(v) is tuple else v


def vfst(v: Value, fuel: Fuel) -> Value:
    if type(v) is VPair:
        fuel.spend()
        return v.first
    return _extend(v, Fst)


def quote(depth: int, v: Value, fuel: Fuel, sig: Signature) -> Term:
    """Read a value back to a term with `depth` variables in scope.

    Each node read costs one fuel, so reading back a value costs one unit
    per node above its neutrals, plus one per value stored in their
    frames. Quotation under a binder also forces the suspended body at a
    fresh variable, which costs its own beta steps. A node with two or
    more children is read once per depth in one call: reading it again
    returns the same term and spends, at once, the fuel its first reading
    spent, which a re-walk would spend too. A first reading that forced a
    global is not reused, since a re-walk would find the global cached.
    A read-back that crosses its fuel's `tier_at` tiers a cold run up at
    its end, as an evaluation would at its start.
    """
    t = _quote(depth, v, fuel, sig, {})
    if not sig.hot and fuel.remaining < fuel.tier_at:
        sig.tier_up()
    return t


def _quote(depth: int, v: Value, fuel: Fuel, sig: Signature, memo: dict) -> Term:
    if fuel.remaining == 0:
        raise FuelExhausted(fuel.total)
    fuel.remaining -= 1
    cls = type(v)
    if cls is VConst:
        return v.term()
    if cls is VSucc:
        return Succ(_quote(depth, v.arg, fuel, sig, memo))
    if cls is Closure:
        body = vapp(v, vvar(depth), fuel, sig)
        return Lambda(v.name, _quote(depth + 1, body, fuel, sig, memo))
    if cls is VUniverse:
        return Universe(v.level)
    remember = cls is not VNeutral or sum(len(vals) for _, vals in v.spine) > 1
    if remember:
        hit = memo.get((v, depth))
        if hit is not None:
            t, cost = hit
            fuel.spend(cost)
            return t
        before, forced = fuel.remaining, len(sig.forced)
    if cls is VNeutral:
        t = Var(depth - 1 - v.head)
        for ecls, vals in v.spine:
            fields = {SCRUTINEE[ecls]: t}
            for name, x in zip(FRAME_FIELDS[ecls], vals):
                fields[name] = _quote(depth, x, fuel, sig, memo)
            t = ecls(**fields)
    else:
        # Open every binder before reading the fields, as a tree walk does.
        term, fields = FORMER[cls], {}
        opened = {name: vapp(getattr(v, name), vvar(depth), fuel, sig)
                  for name, binds in FIELDS[term] if binds}
        for name, binds in FIELDS[term]:
            x = getattr(v, name)
            if binds:
                fields["name"], x = x.name, opened[name]
            fields[name] = _quote(depth + binds, x, fuel, sig, memo)
        t = term(**fields)
    if remember and len(sig.forced) == forced:
        # The key holds the value, so its id cannot be reused meanwhile.
        memo[v, depth] = t, before - fuel.remaining
    return t


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
        return convert(depth, a.arg, b.arg, fuel, sig, seen)
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
    else:
        for name, binds in FIELDS[FORMER[ca]]:
            x, y = getattr(a, name), getattr(b, name)
            if binds:
                x, y = vapp(x, vvar(depth), fuel, sig), vapp(y, vvar(depth), fuel, sig)
            if not convert(depth + binds, x, y, fuel, sig, seen):
                return False
    if remember:
        seen.add(key)
    return True


def normalize(env: tuple[Value, ...], t: Term, fuel: Fuel,
              sig: Signature) -> Term:
    """Quote the value of `t`; `env` must bind each free variable."""
    return quote(len(env), eval_term(env, t, fuel, sig), fuel, sig)
