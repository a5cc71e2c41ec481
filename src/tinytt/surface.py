"""Concrete syntax: lexing, and parsing straight to core terms.

The surface language is a line-oriented sequence of declarations and
pragmas; expressions use named variables, which the parser turns into the
de Bruijn core syntax as it reads them.
"""

from __future__ import annotations

import re
from collections.abc import Collection
from dataclasses import InitVar, dataclass, field

from .diagnostics import SYNTAX, UNBOUND, fail
from .syntax import (
    FIELDS, KEYWORDS, RESERVED_WORDS, App, Global, Lambda, Pair, Pi, Sigma,
    Span, Term, Var,
)

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


def lex(text: str) -> list[Token]:
    """Tokenize `text`; a lexical error fails with the span it is at.

    One `findall` per line; only "\\n" ends a line. The blanks at the end
    of a line are cut off first: every run of blanks is then followed by a
    character that ends it, so no match backtracks over a run and the scan
    stays linear."""
    tokens: list[Token] = []
    for line, row in enumerate(text.split("\n"), 1):
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
    `head` is always `tokens[pos]`.
    """

    text: InitVar[str]
    scope: list[str | None] = field(default_factory=list)
    tokens: list[Token] = field(init=False)
    pos: int = field(default=0, init=False)
    head: Token = field(init=False)

    def __post_init__(self, text: str) -> None:
        self.tokens = lex(text)
        self.head = self.tokens[0]

    def peek(self, offset: int) -> Token:
        at = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[at]

    def advance(self) -> Token:
        tok = self.head
        if tok[0] != "eof":
            self.pos += 1
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
    return Parser(text).parse_items()


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
