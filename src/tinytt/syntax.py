"""Core terms with de Bruijn indices and their structural operations."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace


@dataclass(slots=True)
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


# The subterm fields of each term class, in source order, each with the
# number of variables it binds. Every generic term traversal reads this.
FIELDS: dict[type, tuple[tuple[str, int], ...]] = {}


def _term(cls: type) -> type:
    """Make `cls` a slotted term dataclass and enter its `Term` fields in FIELDS."""
    cls = dataclass(eq=False, slots=True)(cls)
    FIELDS[cls] = tuple((f.name, f.metadata.get("binds", 0))
                        for f in fields(cls) if f.type == "Term")
    return cls


@_term
class Universe(Term):
    # level None is an internal checking wildcard (any level); it is never
    # produced by the parser and never inferred.
    level: int | None = 0
    span: Span | None = None


@_term
class Var(Term):
    index: int
    span: Span | None = None


@_term
class Global(Term):
    name: str
    span: Span | None = None


@_term
class Pi(Term):
    name: str
    domain: Term
    codomain: Term = field(metadata={"binds": 1})
    span: Span | None = None


@_term
class Lambda(Term):
    name: str
    body: Term = field(metadata={"binds": 1})
    span: Span | None = None


@_term
class App(Term):
    fn: Term
    arg: Term
    span: Span | None = None


@_term
class Sigma(Term):
    """Π and Σ share one binder shape: `domain`, then `codomain` under `name`."""

    name: str
    domain: Term
    codomain: Term = field(metadata={"binds": 1})
    span: Span | None = None


@_term
class Pair(Term):
    first: Term
    second: Term
    span: Span | None = None


@_term
class Fst(Term):
    target: Term
    span: Span | None = None


@_term
class Snd(Term):
    target: Term
    span: Span | None = None


@_term
class Id(Term):
    ty: Term
    lhs: Term
    rhs: Term
    span: Span | None = None


@_term
class Refl(Term):
    span: Span | None = None


# ElimJ, ElimK, Absurd, NatElim: field order is the binder order of their kernel.RULES type.
@_term
class ElimJ(Term):
    ty: Term
    base: Term
    motive: Term
    case: Term
    target: Term
    proof: Term
    span: Span | None = None


@_term
class ElimK(Term):
    ty: Term
    base: Term
    motive: Term
    case: Term
    proof: Term
    span: Span | None = None


@_term
class Empty(Term):
    span: Span | None = None


@_term
class Absurd(Term):
    motive: Term
    target: Term
    span: Span | None = None


@_term
class Unit(Term):
    span: Span | None = None


@_term
class TT(Term):
    span: Span | None = None


@_term
class Nat(Term):
    span: Span | None = None


@_term
class Zero(Term):
    span: Span | None = None


@_term
class Succ(Term):
    arg: Term
    span: Span | None = None


@_term
class NatElim(Term):
    motive: Term
    zcase: Term
    scase: Term
    target: Term
    span: Span | None = None


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
    subterms = FIELDS[cls]
    if not subterms:
        return t
    children = {}
    for name, binds in subterms:
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


def uses(t: Term, k: int) -> bool:
    """Does index `k` occur free in `t`?"""
    todo = [(t, k)]
    while todo:
        t, k = todo.pop()
        if type(t) is Var:
            if t.index == k:
                return True
            continue
        for name, binds in FIELDS[type(t)]:
            todo.append((getattr(t, name), k + binds))
    return False
