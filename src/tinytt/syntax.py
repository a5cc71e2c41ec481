"""Core terms with de Bruijn indices and their structural operations."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True, slots=True)
class Span:
    """Where a construct starts: file, 1-based line and 1-based column."""

    file: str
    line: int
    col: int


class Term:
    """Base class for core terms.

    Terms are immutable after construction. Binder names are display hints
    only; `alpha_equal` is the equality judgment and ignores both hints and
    spans. Index 0 refers to the innermost binder.
    """

    __slots__ = ()


@dataclass(eq=False, slots=True)
class Universe(Term):
    # level None is an internal checking wildcard (any level); it is never
    # produced by the parser and never inferred.
    level: int | None = 0
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Var(Term):
    index: int
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Global(Term):
    name: str
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Pi(Term):
    name: str
    domain: Term
    codomain: Term  # binds one variable
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Lambda(Term):
    name: str
    body: Term  # binds one variable
    span: Span | None = None


@dataclass(eq=False, slots=True)
class App(Term):
    fn: Term
    arg: Term
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Sigma(Term):
    name: str
    first: Term
    second: Term  # binds one variable
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Pair(Term):
    first: Term
    second: Term
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Fst(Term):
    target: Term
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Snd(Term):
    target: Term
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Id(Term):
    ty: Term
    lhs: Term
    rhs: Term
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Refl(Term):
    span: Span | None = None


@dataclass(eq=False, slots=True)
class ElimJ(Term):
    ty: Term
    base: Term
    motive: Term
    case: Term
    target: Term
    proof: Term
    span: Span | None = None


@dataclass(eq=False, slots=True)
class ElimK(Term):
    ty: Term
    base: Term
    motive: Term
    case: Term
    proof: Term
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Empty(Term):
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Absurd(Term):
    motive: Term
    target: Term
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Unit(Term):
    span: Span | None = None


@dataclass(eq=False, slots=True)
class TT(Term):
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Nat(Term):
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Zero(Term):
    span: Span | None = None


@dataclass(eq=False, slots=True)
class Succ(Term):
    arg: Term
    span: Span | None = None


@dataclass(eq=False, slots=True)
class NatElim(Term):
    motive: Term
    zcase: Term
    scase: Term
    target: Term
    span: Span | None = None


# The subterm fields of each term class, in source order, each with the
# number of variables it binds. Every generic term traversal reads this.
FIELDS: dict[type, tuple[tuple[str, int], ...]] = {
    Universe: (),
    Var: (),
    Global: (),
    Pi: (("domain", 0), ("codomain", 1)),
    Lambda: (("body", 1),),
    App: (("fn", 0), ("arg", 0)),
    Sigma: (("first", 0), ("second", 1)),
    Pair: (("first", 0), ("second", 0)),
    Fst: (("target", 0),),
    Snd: (("target", 0),),
    Id: (("ty", 0), ("lhs", 0), ("rhs", 0)),
    Refl: (),
    ElimJ: (("ty", 0), ("base", 0), ("motive", 0), ("case", 0), ("target", 0),
            ("proof", 0)),
    ElimK: (("ty", 0), ("base", 0), ("motive", 0), ("case", 0), ("proof", 0)),
    Empty: (),
    Absurd: (("motive", 0), ("target", 0)),
    Unit: (),
    TT: (),
    Nat: (),
    Zero: (),
    Succ: (("arg", 0),),
    NatElim: (("motive", 0), ("zcase", 0), ("scase", 0), ("target", 0)),
}

# Term formers written as a keyword followed by one atom per subterm field.
KEYWORDS: dict[str, type] = {
    "U": Universe, "refl": Refl, "tt": TT, "zero": Zero, "Nat": Nat,
    "Unit": Unit, "Empty": Empty, "fst": Fst, "snd": Snd, "succ": Succ,
    "Id": Id, "absurd": Absurd, "natElim": NatElim, "K": ElimK, "J": ElimJ,
}

# Words the surface language reserves; binder hints must avoid them when printed.
RESERVED_WORDS = frozenset(KEYWORDS) | {"def", "fun"}

# The fields besides subterms that `alpha_equal` compares; binder names
# and spans are not among them.
_DATA = {Var: "index", Universe: "level", Global: "name"}


def shift(t: Term, cutoff: int, amount: int) -> Term:
    """Add `amount` to every index at or above `cutoff`; spans are kept."""
    cls = type(t)
    if cls is Var:
        return Var(t.index + amount, t.span) if t.index >= cutoff else t
    fields = FIELDS[cls]
    if not fields:
        return t
    children = {}
    for name, binds in fields:
        children[name] = shift(getattr(t, name), cutoff + binds, amount)
    return replace(t, **children)


def alpha_equal(a: Term, b: Term) -> bool:
    """Structural equality up to binder names; spans never participate."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        cls = type(a)
        if cls is not type(b):
            return False
        data = _DATA.get(cls)
        if data is not None and getattr(a, data) != getattr(b, data):
            return False
        todo.extend((getattr(a, name), getattr(b, name)) for name, _ in FIELDS[cls])
    return True
