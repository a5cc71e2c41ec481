"""Concrete syntax: its words, lexing, parsing straight to core terms, and
printing core terms back.

The surface language is a line-oriented sequence of declarations and
pragmas; expressions use named variables, which the parser turns into the
de Bruijn core syntax as it reads them and the printer names again.
"""

from __future__ import annotations

import re
from collections.abc import Collection
from dataclasses import InitVar, dataclass, field

from .diagnostics import SYNTAX, UNBOUND, Error, fail
from .syntax import (
    FIELDS, Absurd, App, ElimJ, ElimK, Empty, Fst, Global, Id, Lambda, Nat,
    NatElim, Pair, Pi, Refl, Sigma, Snd, Span, Succ, Term, TT, Unit, Universe,
    Var, Zero, uses,
)

# Term formers written as a keyword followed by one atom per subterm field.
KEYWORDS: dict[str, type] = {
    "U": Universe, "refl": Refl, "tt": TT, "zero": Zero, "Nat": Nat,
    "Unit": Unit, "Empty": Empty, "fst": Fst, "snd": Snd, "succ": Succ,
    "Id": Id, "absurd": Absurd, "natElim": NatElim, "K": ElimK, "J": ElimJ,
}

# Words the surface language reserves; binder hints must avoid them when printed.
RESERVED_WORDS = frozenset(KEYWORDS) | {"def", "fun"}

_PRAGMAS = ("#normalize", "#check")
# One token per match, with the blanks before it: the groups are the
# blanks, an identifier, a pragma or symbol (its own kind), and any
# character that starts nothing else. A comment matches no token group.
_TOKEN = re.compile(r"([ \t\r]*)(?:--.*|([A-Za-z_][A-Za-z0-9_']*)"
                    r"|(#[A-Za-z0-9_']*|:=|->|=>|[():;*,])|([^ \t\r]))")


# A token is a flat record (kind, text, line, col); kind is "ident", "eof",
# or the literal spelling of a keyword or symbol. Most tokens are
# punctuation that no term keeps, so a `Span` is built only where a
# construct or a diagnostic needs one.
Token = tuple[str, str, int, int]


def lex(text: str, line: int = 1, end: bool = True) -> list[Token]:
    """Tokenize `text`, whose first row is line `line`; a lexical error
    fails with the span it is at. When `end` is true, an eof token follows
    the last row.

    One `findall` per line; only "\\n" ends a line. The blanks at the end
    of a line are cut off first: every run of blanks is then followed by a
    character that ends it, so no match backtracks over a run and the scan
    stays linear."""
    tokens: list[Token] = []
    for line, row in enumerate(text.split("\n"), line):
        col = 1
        for blanks, ident, word, stray in _TOKEN.findall(row.rstrip(" \t\r")):
            col += len(blanks)
            if ident:
                kind = ident if ident in RESERVED_WORDS else "ident"
                tokens.append((kind, ident, line, col))
                col += len(ident)
            elif word:
                if word[0] == "#" and word not in _PRAGMAS:
                    fail(SYNTAX, f"unknown pragma {word!r}", Span(line, col))
                tokens.append((word, word, line, col))
                col += len(word)
            elif stray:
                fail(SYNTAX, f"unexpected character {stray!r}", Span(line, col))
    if end:
        tokens.append(("eof", "", line, len(row) + 1))
    return tokens


@dataclass(frozen=True, slots=True)
class Definition:
    name: str
    name_span: Span
    ty: Term
    body: Term
    span: Span


@dataclass(frozen=True, slots=True)
class NormalizePragma:
    expr: Term
    span: Span


@dataclass(frozen=True, slots=True)
class CheckPragma:
    expr: Term
    ty: Term
    span: Span


Item = Definition | NormalizePragma | CheckPragma


# Tokens that can begin an atom; applications extend while the next token
# is one of these.
_ATOM_STARTS = frozenset({"(", "ident"} | set(KEYWORDS))


def _found(tok: Token) -> str:
    return "end of input" if tok[0] == "eof" else repr(tok[1])


def _span(tok: Token) -> Span:
    return Span(tok[2], tok[3])


@dataclass(eq=False, slots=True)
class Parser:
    """Recursive descent from the tokens of `text` straight to core terms.

    A construct's span is the position of its first token in `text`.
    `scope` lists the bound names, outermost first; the innermost match of
    a name is a variable whose de Bruijn index is its distance from the
    end. A non-dependent arrow or star binds None, which no name matches.
    A name bound nowhere becomes a `Global`; `resolve_expr` checks it.
    The parser lexes one line of `rows` at a time, when the parse reaches
    it, so `tokens` is a lookahead buffer, not the text's token list: it
    holds the current line's tokens, and more only while `peek` looks
    across a line. `head` is always `tokens[pos]`; past the eof token it
    stays eof.
    """

    text: InitVar[str]
    scope: list[str | None] = field(default_factory=list)
    tokens: list[Token] = field(init=False)
    pos: int = field(default=0, init=False)
    head: Token = field(init=False)
    rows: list[str] = field(init=False)
    lexed: int = field(default=0, init=False)

    def __post_init__(self, text: str) -> None:
        self.rows = text.split("\n")
        self.tokens = self.pull()
        self.head = self.tokens[0]

    def pull(self) -> list[Token]:
        """The tokens of the next line that has any; the last line's end
        with eof. `lexed` counts the lines done, and a line whose `lex`
        fails, or runs out of stack, is not done. `lex` is the module's
        global, which `bench/spans.py` wraps to time and count tokens."""
        rows = self.rows
        while True:
            n = self.lexed + 1
            tokens = lex(rows[n - 1], n, n == len(rows))
            self.lexed = n
            if tokens:
                return tokens

    def peek(self, offset: int) -> Token:
        at = self.pos + offset
        tokens = self.tokens
        # A new buffer, since the trace counts each list `lex` returned.
        while at >= len(tokens) and tokens[-1][0] != "eof":
            tokens = self.tokens = tokens[self.pos:] + self.pull()
            at -= self.pos
            self.pos = 0
        return tokens[min(at, len(tokens) - 1)]

    def advance(self) -> Token:
        tok = self.head
        self.pos += 1
        if self.pos == len(self.tokens):
            self.tokens = [tok] if tok[0] == "eof" else self.pull()
            self.pos = 0
        self.head = self.tokens[self.pos]
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.head
        if tok[0] != kind:
            fail(SYNTAX, f"expected {kind!r}, found {_found(tok)}", _span(tok))
        return self.advance()

    def parse_items(self) -> list[Item]:
        items: list[Item] = []
        while self.head[0] != "eof":
            items.append(self.parse_item())
        return items

    def parse_item(self) -> Item:
        tok = self.head
        if tok[0] == "def":
            self.advance()
            name_tok = self.expect("ident")
            self.expect(":")
            ty = self.parse_expr()
            self.expect(":=")
            body = self.parse_expr()
            self.expect(";")
            return Definition(name_tok[1], _span(name_tok), ty, body, _span(tok))
        if tok[0] == "#normalize":
            self.advance()
            expr = self.parse_expr()
            self.expect(";")
            return NormalizePragma(expr, _span(tok))
        if tok[0] == "#check":
            self.advance()
            expr = self.parse_expr()
            self.expect(":")
            ty = self.parse_expr()
            self.expect(";")
            return CheckPragma(expr, ty, _span(tok))
        fail(SYNTAX, f"expected a declaration or pragma, found {_found(tok)}",
             _span(tok))

    def parse_expr(self) -> Term:
        if self.head[0] == "fun":
            span = _span(self.advance())
            binders = [self.expect("ident")[1]]
            while self.head[0] == "ident":
                binders.append(self.advance()[1])
            self.expect("=>")
            self.scope.extend(binders)
            body = self.parse_expr()
            del self.scope[-len(binders):]
            for name in reversed(binders):
                body = Lambda(name, body, span)
            return body
        return self.parse_quant()

    def parse_quant(self) -> Term:
        # "(x : A)" introduces a dependent binder only when followed by an
        # arrow or star; "(e)" and "(a , b)" go through the atom path.
        if (self.head[0] == "("
                and self.peek(1)[0] == "ident"
                and self.peek(2)[0] == ":"):
            start = _span(self.advance())
            name = self.advance()[1]
            self.advance()
            domain = self.parse_expr()
            self.expect(")")
            arrow = self.head
            if arrow[0] not in ("->", "*"):
                fail(SYNTAX, "expected '->' or '*' after a binder, found "
                     f"{_found(arrow)}", _span(arrow))
        else:
            domain = self.parse_app()
            arrow = self.head
            if arrow[0] not in ("->", "*"):
                return domain
            start, name = domain.span, None
        self.advance()
        self.scope.append(name)
        codomain = self.parse_expr()
        self.scope.pop()
        cls = Pi if arrow[0] == "->" else Sigma
        return cls(name or "_", domain, codomain, start)

    def parse_app(self) -> Term:
        expr = self.parse_atom()
        while self.head[0] in _ATOM_STARTS:
            arg = self.parse_atom()
            expr = App(expr, arg, expr.span)
        return expr

    def parse_atom(self) -> Term:
        tok = self.advance()
        kind = tok[0]
        if kind == "ident":
            text = tok[1]
            scope = self.scope
            for i in range(len(scope) - 1, -1, -1):
                if scope[i] == text:
                    return Var(len(scope) - 1 - i, _span(tok))
            return Global(text, _span(tok))
        if kind == "(":
            first = self.parse_expr()
            if self.head[0] == ",":
                self.advance()
                second = self.parse_expr()
                self.expect(")")
                return Pair(first, second, _span(tok))
            self.expect(")")
            return first
        cls = KEYWORDS.get(kind)
        if cls is None:
            fail(SYNTAX, f"expected an expression, found {_found(tok)}",
                 _span(tok))
        args = [self.parse_atom() for _ in FIELDS[cls]]
        return cls(*args, span=_span(tok))


def parse(text: str) -> list[Item]:
    """The items of `text`. A lexical error anywhere in it is reported
    before a parse error or a nesting too deep to parse: on either, the
    lines not yet lexed are lexed before the failure goes on."""
    parser = Parser(text)
    try:
        return parser.parse_items()
    except (Error, RecursionError):
        while parser.lexed < len(parser.rows):
            parser.pull()
        raise


def resolve_expr(term: Term, known: Collection[str]) -> Term:
    """Return `term` once every global it names is in `known`.

    Reports E002 at the first unknown name in source order.
    """
    todo = [term]
    while todo:
        t = todo.pop()
        cls = type(t)
        if cls is Global:
            if t.name not in known:
                fail(UNBOUND, f"unbound name '{t.name}'", t.span)
            continue
        for name, _ in reversed(FIELDS[cls]):
            todo.append(getattr(t, name))
    return term


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
        # A spine `f a1 ... an` renders in a loop, so a long one does not recurse.
        parts = []
        while type(t) is App:
            parts.append(_render(t.arg, names, avoid, _ATOM, memo))
            t = t.fn
        parts.append(_render(t, names, avoid, _APP, memo))
        return " ".join(reversed(parts)), _APP
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

