"""Command line entry point: `tinytt check FILE [flags]`.

Exit codes: 0 when every declaration and pragma goes through, 1 on the
first diagnostic, 2 on usage or I/O problems. Pragma output goes to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import dataclass
from typing import TextIO

from .diagnostics import DEPTH, Error, render_diagnostic
from .kernel import Context, FlagSet, check, check_declaration, check_is_type, infer
from .pretty import pretty
from .semantics import Fuel, Signature, normalize
from .surface import Definition, Item, NormalizePragma, parse, resolve_expr
from .syntax import Span

_TOO_DEEP = "nesting too deep"


@dataclass(frozen=True, slots=True)
class RunConfig:
    path: str
    flags: FlagSet = FlagSet()
    quiet: bool = False


def _process(item: Item, ctx: Context, quiet: bool, out: TextIO) -> None:
    """Check, run or install `item` in `ctx`, whose fuel meters all of it."""
    # Each term is scanned for unknown globals before any of the item is
    # checked, so E002 wins over a type error in the same item.
    known = ctx.sig.entries.keys()
    if isinstance(item, Definition):
        ty = resolve_expr(item.ty, known)
        body = resolve_expr(item.body, known)
        check_declaration(ctx, item.name, ty, body, item.name_span)
        return
    term = resolve_expr(item.expr, known)
    if isinstance(item, NormalizePragma):
        infer(ctx, term)
        head, shown = "NORMAL: ", normalize((), term, ctx.fuel, ctx.sig)
    else:
        ty = resolve_expr(item.ty, known)
        check_is_type(ctx, ty)
        check(ctx, term, ctx.eval(ty))
        # Echo the expression as written, not its normal form: a checked
        # term need not have one.
        head, shown = "CHECKED: ", term
    if not quiet:
        print(head + pretty(shown, (), known), file=out)


def run(config: RunConfig, out: TextIO | None = None,
        err: TextIO | None = None) -> int:
    """Check `config.path` with the cyclic garbage collector paused.

    A run builds trees and values but no reference cycle, so the
    collections its allocations would trigger scan every live object and
    free none. The caller's collector state is restored on every exit.

    Each item is processed once, in a `Context` made for it here: this
    is the one place an item is metered. All items share one `Signature`,
    which tiers up in place once an item gets hot; the item goes on
    compiled with the fuel it has left. Checking is cheap, so most runs
    never compile anything."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            with open(config.path, encoding="utf-8") as handle:
                # A leading byte-order mark is not source text. Decoding with
                # "utf-8-sig" would also drop a mark cut short by the end of
                # the file, and count error offsets from after the mark.
                text = handle.read().removeprefix("\ufeff")
        except OSError as exc:
            print(f"error: cannot read {config.path}: {exc.strerror}", file=err)
            return 2
        except UnicodeDecodeError as exc:
            print(f"error: cannot read {config.path}: not UTF-8 "
                  f"({exc.reason} at byte offset {exc.start})", file=err)
            return 2
        sig, flags = Signature(), config.flags
        # A failure without a span of its own is reported at the start of the
        # file while parsing, then at the item being processed.
        span = Span(1, 1)
        try:
            for item in parse(text):
                span = item.span
                _process(item, Context(sig, flags, Fuel.budget(flags.fuel)),
                         config.quiet, out)
        except RecursionError:
            print(render_diagnostic(Error(DEPTH, _TOO_DEEP, span), config.path), file=err)
            return 1
        except Error as exc:
            # Rendered in the clause, which unbinds `exc`: bound after it, `exc`
            # and its traceback would hold this frame in a reference cycle.
            if exc.span is None:
                exc.span = span
            print(render_diagnostic(exc, config.path), file=err)
            return 1
        return 0
    finally:
        if enabled:
            gc.enable()


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid fuel value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("fuel must be at least 1")
    return value


def parse_flags(argv: list[str] | None = None) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="tinytt",
        description="Check declarations in a .tt file.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    checker = commands.add_parser("check", help="type check a file")
    checker.add_argument("file", help="path to a .tt source file")
    checker.add_argument("--type-in-type", action="store_true",
                         help="collapse all universes into one")
    checker.add_argument("--enable-K", dest="enable_k", action="store_true",
                         help="allow the K eliminator on identity proofs")
    checker.add_argument("--fuel", type=_positive, default=FlagSet().fuel,
                         metavar="N",
                         help="fuel budget per item: reduction steps plus "
                         "read-back and comparison calls")
    checker.add_argument("--quiet", action="store_true",
                         help="suppress pragma output on stdout")
    args = parser.parse_args(argv)
    flags = FlagSet(args.type_in_type, args.enable_k, args.fuel)
    return RunConfig(args.file, flags, args.quiet)


def main(argv: list[str] | None = None) -> int:
    return run(parse_flags(argv))


if __name__ == "__main__":
    sys.exit(main())
