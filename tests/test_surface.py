"""Lexing, parsing, scope resolution, and diagnostic rendering."""

from __future__ import annotations

from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from oracles import reference_lex
from tinytt.diagnostics import Error, render_diagnostic
from tinytt.surface import (
    RESERVED_WORDS, CheckPragma, Definition, NormalizePragma, Parser, lex,
    parse, pretty, resolve_expr,
)
from tinytt.syntax import (
    App, Fst, Global, Lambda, Nat, Pair, Pi, Sigma, Snd, Span, Var, alpha_equal,
)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


# Tokens are flat records (kind, text, line, col).
KIND, TEXT, LINE, COL = 0, 1, 2, 3


def tokens_of(text: str):
    return lex(text)


def span_of(tok) -> Span:
    return Span(*tok[2:])


def parse_expr_text(text: str, scope=()):
    parser = Parser(text, scope=list(scope))
    expr = parser.parse_expr()
    assert parser.head[KIND] == "eof", f"trailing input in {text!r}"
    return expr


def resolve_text(text: str, scope=(), globals_=frozenset()):
    return resolve_expr(parse_expr_text(text, scope), frozenset(globals_))


def code_of(excinfo) -> str:
    return excinfo.value.code


def test_lexer_tracks_lines_and_columns():
    toks = tokens_of("def x : Nat :=\n  zero;")
    kinds = [t[KIND] for t in toks]
    assert kinds == ["def", "ident", ":", "Nat", ":=", "zero", ";", "eof"]
    zero = toks[5]
    assert (zero[LINE], zero[COL]) == (2, 3)
    # A tab is one column wide.
    zero = tokens_of("x\n\t zero")[1]
    assert (zero[LINE], zero[COL]) == (2, 3)


def test_lexer_skips_comments_and_keeps_primes():
    toks = tokens_of("B' -- trailing words => ignored\nB''")
    assert [t[TEXT] for t in toks[:2]] == ["B'", "B''"]
    assert toks[0][LINE] == 1 and toks[1][LINE] == 2


def test_lexer_longest_match_on_punctuation():
    assert [t[KIND] for t in tokens_of(":= : -> => *")][:-1] == \
        [":=", ":", "->", "=>", "*"]


def test_lexer_rejects_stray_characters():
    # Identifiers are ASCII only, so a non-ASCII letter is a stray character.
    for text, char, col in (("def x := @", "@", 10), ("def \u00e9 := x", "\u00e9", 5)):
        with pytest.raises(Error) as exc:
            tokens_of(text)
        assert code_of(exc) == "E001"
        assert exc.value.message == f"unexpected character {char!r}"
        span = exc.value.span
        assert (span.line, span.col) == (1, col)


def test_unknown_pragma_is_rejected():
    with pytest.raises(Error) as exc:
        tokens_of("#frobnicate x;")
    assert code_of(exc) == "E001"


# Every token class, the characters the lexer skips or rejects, and
# pieces that only make a token next to a neighbour ("-" and ">", "-"
# and "-"). Fragments are joined with nothing between them. Only "\n"
# ends a line: the other characters `str.splitlines` breaks on, and the
# no-break space, are stray characters.
LEX_ALPHABET = sorted(RESERVED_WORDS | {
    "#normalize", "#check", "#frob", "#", "(", ")", ":", ";", ":=", "->",
    "=>", "*", ",", "=", ">", "-", "x", "B'", "_1", "0", " ", "\t", "\r",
    "\n", "-- note", "--", "@", "\u00e9", "\x0b", "\x0c", "\x1c", "\x85",
    "\u2028", "\xa0",
})


LEX_FRAGMENTS = st.lists(st.sampled_from(LEX_ALPHABET), max_size=30)


@settings(max_examples=300, deadline=None)
@given(LEX_FRAGMENTS)
@example(["x", "-"])
@example(["#frob"])
@example(["-- note"])
@example(["\n", "\t", "\u00e9"])
@example(["def", " ", "x", "\r", "\n", ":", "\r", "\n", "x", "\r", "\n"])
@example(["x", " ", "\t", " ", "\n", "\t", "x", "\t", "\t", "\n", "x"])
@example(["x", "-- note", " ", "\t", "\n", "x", " ", "\t", " "])
@example([" ", "\n", "\t", " "])
@example([])
def test_lexer_agrees_with_a_character_scanner(fragments):
    text = "".join(fragments)
    expected, error = reference_lex(text)
    try:
        toks = lex(text)
    except Error as exc:
        assert exc.code == "E001"
        assert (exc.message, exc.span.line, exc.span.col) == error
        return
    assert error is None, text
    assert toks == expected


def pulled(text: str):
    """The tokens a `Parser` of `text` steps through, up to eof and once
    past it."""
    parser = Parser(text)
    toks = [parser.advance()]
    while toks[-1][KIND] != "eof":
        toks.append(parser.advance())
    assert parser.advance() == parser.head == toks[-1]
    return toks


@settings(max_examples=300, deadline=None)
@given(LEX_FRAGMENTS)
@example(["x", "\n", "\n", "-- note", "\n", "x"])
@example(["\n", "x", "\n"])
@example(["\n"])
@example([])
def test_the_parser_pulls_the_tokens_that_lex_makes(fragments):
    # The parser lexes a line at a time; the tokens it steps through are
    # those of lexing the whole text at once, and a lexical error is the
    # same error.
    text = "".join(fragments)
    try:
        expected = lex(text)
    except Error as exc:
        with pytest.raises(Error) as pulled_exc:
            pulled(text)
        assert (pulled_exc.value.code, pulled_exc.value.message, pulled_exc.value.span) == \
            (exc.code, exc.message, exc.span)
        return
    assert pulled(text) == expected


@pytest.mark.parametrize("text", ["(x\n: U) -> U", "(\nx : U) -> U", "(x : U)\n->\nU"],
                         ids=["before-colon", "after-paren", "around-arrow"])
def test_a_binder_head_split_across_lines_is_a_binder(text):
    # Telling `(x : A) -> B` from a parenthesised term looks two tokens
    # ahead, which may be on the next line.
    t = parse_expr_text(text)
    assert type(t) is Pi and t.name == "x"
    assert alpha_equal(t, parse_expr_text("(x : U) -> U"))


def test_parse_lexes_each_line_once(monkeypatch):
    calls = []

    def recording(text, line=1, end=True):
        calls.append((text, line, end))
        return lex(text, line, end)
    monkeypatch.setattr("tinytt.surface.lex", recording)
    text = (CORPUS / "russell.tt").read_text() + "\n  \n-- the end\n\n"
    assert len(parse(text)) == 10
    rows = text.split("\n")
    assert calls == [(row, n, n == len(rows)) for n, row in enumerate(rows, 1)]
    assert not any("\n" in row for row, _, _ in calls)


def test_a_line_that_runs_out_of_stack_is_lexed_again(monkeypatch):
    # The stack can run out in any frame of a deep parse, `lex`'s too; a
    # line whose lexing did not finish is lexed before the failure goes
    # on, so a lexical error on it still comes first.
    failed = []

    def out_of_stack_once(text, line=1, end=True):
        if line == 3 and not failed:
            failed.append(line)
            raise RecursionError
        return lex(text, line, end)
    monkeypatch.setattr("tinytt.surface.lex", out_of_stack_once)
    with pytest.raises(Error) as exc:
        parse("#normalize succ (\nsucc (\nzero @));\n")
    assert failed == [3]
    assert (exc.value.code, exc.value.message, exc.value.span) == \
        ("E001", "unexpected character '@'", Span(3, 6))


def test_fun_collects_binders():
    t = resolve_text("fun x y => x")
    assert alpha_equal(t, Lambda("x", Lambda("y", Var(1))))


def test_arrows_are_right_associative():
    t = resolve_text("Nat -> Nat -> Nat")
    assert type(t) is Pi and type(t.codomain) is Pi


def test_dependent_binder_binds():
    t = resolve_text("(A : U) -> A")
    assert type(t) is Pi
    assert alpha_equal(t.codomain, Var(0))


def test_non_dependent_arrow_shifts_the_codomain():
    # In scope [A], the codomain A must still point at the outer binder
    # once it sits under the arrow's anonymous one.
    t = resolve_text("A -> A", scope=("A",))
    assert type(t) is Pi
    assert alpha_equal(t.domain, Var(0))
    assert alpha_equal(t.codomain, Var(1))


def test_star_builds_sigma():
    t = resolve_text("(A : U) * (A -> U)")
    assert type(t) is Sigma
    assert type(t.codomain) is Pi


def test_parens_group_and_pairs_pair():
    grouped = resolve_text("(Nat)")
    assert alpha_equal(grouped, resolve_text("Nat"))
    pair = parse_expr_text("(zero , tt)")
    assert type(pair).__name__ == "Pair"


def test_application_is_left_associative():
    t = resolve_text("f x y", scope=("f", "x", "y"))
    assert alpha_equal(t, App(App(Var(2), Var(1)), Var(0)))


def test_projection_takes_one_atom():
    t = resolve_text("fst s a", scope=("s", "a"))
    assert alpha_equal(t, App(Fst(Var(1)), Var(0)))
    t = resolve_text("snd (fst s)", scope=("s",))
    assert alpha_equal(t, Snd(Fst(Var(0))))


def test_eliminator_arity_and_overflow_app():
    t = resolve_text("J U A (fun B' _ => A -> B') (fun x => x) B h a",
                     scope=("A", "B", "h", "a"))
    assert type(t) is App  # the seventh atom applies the J result
    assert type(t.fn).__name__ == "ElimJ"


def test_resolution_prefers_the_innermost_binding():
    t = resolve_text("fun x => fun x => x")
    assert alpha_equal(t, Lambda("x", Lambda("x", Var(0))))


def test_unbound_names_are_reported():
    with pytest.raises(Error) as exc:
        resolve_text("ghost")
    assert code_of(exc) == "E002"
    assert "ghost" in exc.value.message


def test_globals_resolve_when_known():
    t = resolve_text("coe Nat", globals_={"coe"})
    assert alpha_equal(t, App(Global("coe"), resolve_text("Nat")))


def test_shadowing_beats_globals():
    t = resolve_text("fun coe => coe", globals_={"coe"})
    assert alpha_equal(t, Lambda("coe", Var(0)))


def test_reserved_words_cannot_bind():
    with pytest.raises(Error) as exc:
        parse_expr_text("fun fst => fst")
    assert code_of(exc) == "E001"


def test_missing_pieces_report_expected_tokens():
    for text, fragment in [
        ("def x Nat := zero;", "':'"),
        ("def x : Nat zero;", "':='"),
        ("def x : Nat := zero", "';'"),
    ]:
        with pytest.raises(Error) as exc:
            parse(text)
        assert code_of(exc) == "E001"
        assert fragment in exc.value.message, text
    with pytest.raises(Error) as exc:
        parse_expr_text("(A : U)")
    assert code_of(exc) == "E001"
    assert "'->' or '*'" in exc.value.message


def test_items_parse_into_their_shapes():
    items = parse("def d : Nat := zero;\n#normalize d;\n#check d : Nat;")
    assert [type(i) for i in items] == [Definition, NormalizePragma, CheckPragma]
    assert items[0].name == "d"
    assert items[0].name_span.line == 1
    assert items[1].span.line == 2
    assert items[2].span.line == 3


@pytest.mark.parametrize("text,inner,atom", [
    ("f a b", ("fn",), ("fn", "fn")),
    ("(x : Nat) -> Nat", (), None),
    ("f a -> Nat", ("domain",), ("domain", "fn")),
    ("(x : Nat) * Nat", (), None),
    ("Nat * Nat", (), ("domain",)),
    ("fun x y => x", ("body",), None),
    ("(zero , tt)", (), None),
    ("natElim P z s n", (), ()),
    ("def d : Nat := zero;", (), None),
    ("#check zero : Nat;", (), None),
    ("#normalize f a;", (), None),
    ("\n  def d : Nat :=\n    zero;", (), None),
], ids=["app-spine", "dep-arrow", "arrow", "dep-star", "star", "fun",
        "pair", "natElim", "def", "check", "normalize", "indented-def"])
def test_composite_span_is_its_first_token_span(text, inner, atom):
    # A span is where a construct starts, so a composite term or item
    # shares one span object with its inner nodes and with the atom it
    # starts with (`atom` is the path to it, None when it starts with
    # punctuation or a binder) instead of building one per node.
    toks = tokens_of(text)
    parser = Parser(text)
    node = parser.parse_items()[0] if text.endswith(";") else parser.parse_expr()
    span = node.span
    assert span == span_of(toks[0])
    inner_node = node
    for name in inner:
        inner_node = getattr(inner_node, name)
        assert inner_node.span is span
    if atom is not None:
        for name in atom:
            node = getattr(node, name)
        assert node.span is span


def test_diagnostic_rendering_shape():
    diag = Error("E010", "type mismatch", Span(3, 7),
                 ("expected: Nat", "found:    Unit"))
    assert render_diagnostic(diag, "file.tt") == (
        "file.tt:3:7: error[E010]: type mismatch\n"
        "  expected: Nat\n"
        "  found:    Unit")


def _corpus_declarations():
    for path in sorted(CORPUS.glob("*.tt")):
        known: set[str] = set()
        for item in parse(path.read_text()):
            if not isinstance(item, Definition):
                continue
            ty = resolve_expr(item.ty, frozenset(known))
            body = resolve_expr(item.body, frozenset(known))
            known.add(item.name)
            yield path.name, item.name, ty, body, frozenset(known)


def test_corpus_round_trips_through_the_printer():
    seen = 0
    for fname, name, ty, body, known in _corpus_declarations():
        for term in (ty, body):
            printed = pretty(term, (), known)
            reparsed = resolve_expr(parse_expr_text(printed), known)
            assert alpha_equal(reparsed, term), (fname, name, printed)
            seen += 1
    assert seen >= 50  # every declaration in every corpus file, both halves


def test_a_shared_subterm_prints_each_binder_name():
    # One body object under two binders: the printer renders a shared
    # subterm once per binder scope, so each copy names its own binder.
    body = App(Var(0), Var(0))
    assert pretty(Pair(Lambda("x", body), Lambda("y", body))) == \
        "(fun x => x x , fun y => y y)"
    # A Π or Σ codomain is a scope of its own, apart from the one outside.
    assert pretty(Pair(body, Pair(Pi("x", Nat(), body), Sigma("y", Nat(), body))), ("a",)) == \
        "(a a , ((x : Nat) -> x x , (y : Nat) * y y))"


def test_a_long_application_spine_prints_and_reparses():
    # The printer walks a spine in a loop, as the parser does, so a
    # spine far deeper than the recursion limit prints and parses back.
    term = Global("f")
    for _ in range(10_000):
        term = App(term, Global("T"))
    printed = pretty(term)
    assert printed == "f" + " T" * 10_000
    assert alpha_equal(parse_expr_text(printed), term)


def test_corpus_parsing_is_deterministic():
    # Items and terms print every field, spans included: two parses of
    # the same text must agree exactly.
    for path in sorted(CORPUS.glob("*.tt")):
        text = path.read_text()
        assert repr(parse(text)) == repr(parse(text))
