"""Surface-syntax printer for core terms."""

from __future__ import annotations

from collections.abc import Collection

from .syntax import (
    FIELDS, KEYWORDS, RESERVED_WORDS, App, Global, Lambda, Pair, Pi, Sigma,
    Term, Universe, Var, uses,
)

# Precedence tiers mirroring the grammar: arrow/fun forms, application
# chains, and self-delimited atoms.
_EXPR = 0
_APP = 1
_ATOM = 2

_SPELLING = {cls: word for word, cls in KEYWORDS.items()}
_BRANCHING = frozenset(cls for cls, fields in FIELDS.items() if len(fields) > 1)


def pretty(t: Term, names: tuple[str, ...] = (), avoid: Collection[str] = ()) -> str:
    """Render `t` so it re-parses to an alpha-equal term.

    `names` gives free variables their names, outermost first. `avoid` lists
    extra names (typically globals, passed as the signature's key view, not
    a copy) that freshened binders must not shadow.
    Universe levels above 0 have no surface spelling and render as U1, U2,
    and so on; such terms only appear in diagnostics.
    """
    return _render(t, list(names), avoid, _EXPR, {})


def _render(t: Term, names: list[str], avoid: Collection[str], need: int,
            memo: dict) -> str:
    """Render `t` at precedence `need`. `memo` holds the renderings of
    terms with two or more children in the current binder scope, where
    `names` is fixed, so a shared subterm is rendered once per scope."""
    branching = type(t) in _BRANCHING
    if branching:
        s = memo.get((t, need))
        if s is not None:
            return s
    s, level = _form(t, names, avoid, memo)
    if level < need:
        s = f"({s})"
    if branching:
        memo[t, need] = s
    return s


def _form(t: Term, names: list[str], avoid: Collection[str],
          memo: dict) -> tuple[str, int]:
    cls = type(t)
    if cls is Var:
        i = t.index
        return (names[-1 - i] if 0 <= i < len(names) else f"?v{i}"), _ATOM
    if cls is Global:
        return t.name, _ATOM
    if cls is Universe:
        if t.level is None:
            return "U?", _ATOM
        return ("U" if t.level == 0 else f"U{t.level}"), _ATOM
    if cls is Pi or cls is Sigma:
        op = "->" if cls is Pi else "*"
        if uses(t.codomain, 0):
            n = _fresh(t.name, names, avoid)
            left = f"({n} : {_render(t.domain, names, avoid, _EXPR, memo)})"
            names.append(n)
        else:
            left = _render(t.domain, names, avoid, _APP, memo)
            names.append(t.name or "_")
        right = _render(t.codomain, names, avoid, _EXPR, {})
        names.pop()
        return f"{left} {op} {right}", _EXPR
    if cls is Lambda:
        binders: list[str] = []
        body: Term = t
        while type(body) is Lambda:
            binders.append(_fresh(body.name, names, avoid))
            names.append(binders[-1])
            body = body.body
        s = _render(body, names, avoid, _EXPR, {})
        del names[len(names) - len(binders):]
        return f"fun {' '.join(binders)} => {s}", _EXPR
    if cls is App:
        return (f"{_render(t.fn, names, avoid, _APP, memo)} "
                f"{_render(t.arg, names, avoid, _ATOM, memo)}"), _APP
    if cls is Pair:
        return (f"({_render(t.first, names, avoid, _EXPR, memo)} , "
                f"{_render(t.second, names, avoid, _EXPR, memo)})"), _ATOM
    word = _SPELLING.get(cls)
    if word is None:
        raise AssertionError(f"unprintable term {t!r}")
    fields = FIELDS[cls]
    if not fields:
        return word, _ATOM
    parts = [word]
    for name, _ in fields:
        parts.append(_render(getattr(t, name), names, avoid, _ATOM, memo))
    return " ".join(parts), _APP


def _fresh(hint: str, names: list[str], avoid: Collection[str]) -> str:
    """Pick a printable name for a binder that shadows nothing in scope."""
    cand = hint if hint else "x"
    while cand in RESERVED_WORDS or cand in avoid or cand in names:
        cand += "'"
    return cand

