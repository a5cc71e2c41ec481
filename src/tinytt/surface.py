"""Concrete syntax: lexing, and parsing straight to core terms.

The surface language is a line-oriented sequence of declarations and
pragmas; expressions use named variables, which the parser turns into the
de Bruijn core syntax as it reads them.
"""

from __future__ import annotations

import re
from collections.abc import Collection
from dataclasses import dataclass, field

from .diagnostics import SYNTAX, UNBOUND, fail
from .syntax import (
    FIELDS, KEYWORDS, RESERVED_WORDS, App, Global, Lambda, Pair, Pi, Sigma,
    Span, Term, Var,
)

_PRAGMAS = ("#normalize", "#check")
# One token or skipped stretch per match; the numbered groups are the
# token classes, and whitespace and comments match no group.
_TOKEN = re.compile(r"(\n)|[ \t\r]+|--[^\n]*|([A-Za-z_][A-Za-z0-9_']*)"
                    r"|(#[A-Za-z0-9_']*)|(:=|->|=>|[():;*,])")
_NEWLINE, _IDENT, _PRAGMA = 1, 2, 3


@dataclass(frozen=True, slots=True)
class SourceFile:
    name: str
    text: str


@dataclass(frozen=True, slots=True)
class Token:
    """kind is "ident", "eof", or the literal spelling of a keyword/symbol."""

    kind: str
    text: str
    span: Span


def lex(src: SourceFile) -> list[Token]:
    tokens: list[Token] = []
    text, name = src.text, src.name
    pos, line, line_start = 0, 1, 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        col = pos - line_start + 1
        if m is None:
            fail(SYNTAX, f"unexpected character {text[pos]!r}",
                 Span(name, line, col))
        end = m.end()
        group = m.lastindex
        if group == _NEWLINE:
            line, line_start = line + 1, end
        elif group is not None:
            word = text[pos:end]
            span = Span(name, line, col)
            if group == _IDENT:
                kind = word if word in RESERVED_WORDS else "ident"
            elif group == _PRAGMA and word not in _PRAGMAS:
                fail(SYNTAX, f"unknown pragma {word!r}", span)
            else:
                kind = word
            tokens.append(Token(kind, word, span))
        pos = end
    col = pos - line_start + 1
    tokens.append(Token("eof", "", Span(name, line, col)))
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


@dataclass(eq=False, slots=True)
class Parser:
    """Recursive descent from tokens straight to core terms.

    `scope` lists the bound names, outermost first; the innermost match of
    a name is a variable whose de Bruijn index is its distance from the
    end. A non-dependent arrow or star binds None, which no name matches.
    A name bound nowhere becomes a `Global`; `resolve_expr` checks it.
    """

    tokens: list[Token]
    pos: int = 0
    scope: list[str | None] = field(default_factory=list)

    @property
    def head(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int) -> Token:
        at = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[at]

    def advance(self) -> Token:
        tok = self.head
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.head
        if tok.kind != kind:
            found = "end of input" if tok.kind == "eof" else repr(tok.text)
            fail(SYNTAX, f"expected {kind!r}, found {found}", tok.span)
        return self.advance()

    def parse_items(self) -> list[Item]:
        items: list[Item] = []
        while self.head.kind != "eof":
            items.append(self.parse_item())
        return items

    def parse_item(self) -> Item:
        tok = self.head
        if tok.kind == "def":
            self.advance()
            name_tok = self.expect("ident")
            self.expect(":")
            ty = self.parse_expr()
            self.expect(":=")
            body = self.parse_expr()
            self.expect(";")
            return Definition(name_tok.text, name_tok.span, ty, body, tok.span)
        if tok.kind == "#normalize":
            self.advance()
            expr = self.parse_expr()
            self.expect(";")
            return NormalizePragma(expr, tok.span)
        if tok.kind == "#check":
            self.advance()
            expr = self.parse_expr()
            self.expect(":")
            ty = self.parse_expr()
            self.expect(";")
            return CheckPragma(expr, ty, tok.span)
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        fail(SYNTAX, f"expected a declaration or pragma, found {found}",
             tok.span)

    def parse_expr(self) -> Term:
        if self.head.kind == "fun":
            fun_tok = self.advance()
            binders = [self.expect("ident").text]
            while self.head.kind == "ident":
                binders.append(self.advance().text)
            self.expect("=>")
            self.scope.extend(binders)
            body = self.parse_expr()
            del self.scope[-len(binders):]
            for name in reversed(binders):
                body = Lambda(name, body, fun_tok.span)
            return body
        return self.parse_quant()

    def parse_quant(self) -> Term:
        # "(x : A)" introduces a dependent binder only when followed by an
        # arrow or star; "(e)" and "(a , b)" go through the atom path.
        if (self.head.kind == "("
                and self.peek(1).kind == "ident"
                and self.peek(2).kind == ":"):
            start = self.advance().span
            name = self.advance().text
            self.advance()
            domain = self.parse_expr()
            self.expect(")")
            arrow = self.head
            if arrow.kind not in ("->", "*"):
                fail(SYNTAX,
                     f"expected '->' or '*' after a binder, found "
                     f"{repr(arrow.text) if arrow.kind != 'eof' else 'end of input'}",
                     arrow.span)
        else:
            domain = self.parse_app()
            arrow = self.head
            if arrow.kind not in ("->", "*"):
                return domain
            start, name = domain.span, None
        self.advance()
        self.scope.append(name)
        codomain = self.parse_expr()
        self.scope.pop()
        cls = Pi if arrow.kind == "->" else Sigma
        return cls(name or "_", domain, codomain, start)

    def parse_app(self) -> Term:
        expr = self.parse_atom()
        while self.head.kind in _ATOM_STARTS:
            arg = self.parse_atom()
            expr = App(expr, arg, expr.span)
        return expr

    def parse_atom(self) -> Term:
        tok = self.advance()
        kind = tok.kind
        if kind == "ident":
            scope = self.scope
            for i in range(len(scope) - 1, -1, -1):
                if scope[i] == tok.text:
                    return Var(len(scope) - 1 - i, tok.span)
            return Global(tok.text, tok.span)
        if kind == "(":
            first = self.parse_expr()
            if self.head.kind == ",":
                self.advance()
                second = self.parse_expr()
                self.expect(")")
                return Pair(first, second, tok.span)
            self.expect(")")
            return first
        cls = KEYWORDS.get(kind)
        if cls is None:
            found = "end of input" if kind == "eof" else repr(tok.text)
            fail(SYNTAX, f"expected an expression, found {found}", tok.span)
        args = [self.parse_atom() for _ in FIELDS[cls]]
        return cls(*args, span=tok.span)


def parse(src: SourceFile) -> list[Item]:
    return Parser(lex(src)).parse_items()


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
