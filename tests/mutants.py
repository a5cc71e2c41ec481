"""The mutant catalogue: faults that the tests must catch, in how fuel is
charged, how an item is metered, how compiled code is found, how a run
tiers up, the read-back, conversion, universe and typing rules, where the
lexer and parser place a span, how the parser's lookahead pulls the next
line and a failed parse lexes the lines it did not reach, how a failure
is reported and how a diagnostic renders it, how a note shows a type too
deep to print and whether its read-back may tier the run up, and how
output that cannot be written ends a run.

Each entry of `MUTANTS` is a file under `src/tinytt`, a text that occurs
in it exactly once, and the text that replaces it. Run

    python tests/mutants.py

to copy `src`, `tests`, `corpus` and `pyproject.toml` to a temporary
directory once for the unchanged code and once per mutant, and to run
`tests/test_semantics.py`, `tests/test_cli.py`, `tests/test_kernel.py` and
`tests/test_surface.py` there with `-x`. The unchanged copy must pass; a
mutant whose copy passes too has survived.
The script exits 0 when every mutant is killed, 1 when one survives, and
2 when the unchanged copy fails or an entry's text is not found exactly
once. pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "corpus", "pyproject.toml")
TESTS = ("tests/test_semantics.py", "tests/test_cli.py", "tests/test_kernel.py",
         "tests/test_surface.py")
# A mutant whose tests run longer than this counts as killed: the copy
# did not pass. Every mutant below is killed within seconds.
TIMEOUT_S = 600

MUTANTS: dict[str, tuple[str, str, str]] = {
    "forcing a global is passed 0 owed steps": (
        "codegen.py",
        "sig.value_of({name!r}, fuel, {self.owed})",
        "sig.value_of({name!r}, fuel, 0)",
    ),
    "the stuck arm of a J, K or projection starts from 0 owed steps": (
        "codegen.py",
        'self.block("else:", owed, keep=self.owed)',
        'self.block("else:", 0, keep=self.owed)',
    ),
    "a nested function starts from its parent's owed count": (
        "codegen.py",
        'self.lines, self.indent, self.owed = [f"    def {name}(e, fuel, sig):"], "        ", 0',
        'self.lines, self.indent = [f"    def {name}(e, fuel, sig):"], "        "',
    ),
    "an applied J or K case evaluates its arguments before the proof": (
        "codegen.py",
        """\
        v = self.value(t.proof if j else t.target)
        owed = self.owed
        # The reducing arm keeps what it owes; the stuck arm gives back what
        # it did not spend of that, a J or K's after its `_stuck` call.
        test = f"if {v} is V_REFL:" if j else f"if type({v}) is VPair:"
        with self.block(test, owed + 1, keep=None):
            if j:
                self.beta(_strip(t.case)[0] if args else t.case, args, self.once, self.env, dest)
            else:
                self.put(dest, f"{v}.{'first' if type(t) is Fst else 'second'}")
        with self.block("else:", owed, keep=self.owed):
            if j:
                stuck = self.temp() if args else dest
                self.put(stuck, f"_stuck({self.scope()}, {self.name(t)}, {v}, fuel, sig)", calls=True)
                self.apply(stuck, args, dest, self.once, stuck=True)""",
        """\
        args = [self.once(a) for a in args]
        v = self.value(t.proof if j else t.target)
        owed = self.owed
        test = f"if {v} is V_REFL:" if j else f"if type({v}) is VPair:"
        with self.block(test, owed + 1, keep=None):
            if j:
                self.beta(_strip(t.case)[0] if args else t.case, args, str, self.env, dest)
            else:
                self.put(dest, f"{v}.{'first' if type(t) is Fst else 'second'}")
        with self.block("else:", owed, keep=self.owed):
            if j:
                stuck = self.temp() if args else dest
                self.put(stuck, f"_stuck({self.scope()}, {self.name(t)}, {v}, fuel, sig)", calls=True)
                self.apply(stuck, args, dest, str, stuck=True)""",
    ),
    "a case body reads the outer variable e[i] for e[i-1]": (
        "codegen.py",
        'f"{rest}[{i - len(front)}]"',
        'f"{rest}[{i}]"',
    ),
    "beta owes no step for an argument": (
        "codegen.py",
        """\
            bound = (self.closure(a) if late else value(a), *bound)
            self.owed += 1""",
        """\
            bound = (self.closure(a) if late else value(a), *bound)""",
    ),
    "beta owes one step per call, not one per argument": (
        "codegen.py",
        """\
            bound = (self.closure(a) if late else value(a), *bound)
            self.owed += 1""",
        """\
            bound = (self.closure(a) if late else value(a), *bound)
        self.owed += bool(args)""",
    ),
    "a global returned in tail position leaves its owed steps uncharged": (
        "codegen.py",
        """\
            if dest is None:
                # The cached path returns at once, so nothing may stay owed.
                self.charge()
""",
        "",
    ),
    "a type former or pair handed to eval_term is not charged for first": (
        "codegen.py",
        'self.put(dest, f"eval_term({self.scope()}, {self.name(t)}, fuel, sig)", calls=True)',
        'self.put(dest, f"eval_term({self.scope()}, {self.name(t)}, fuel, sig)")',
    ),
    "a charge that owes fewer steps than it keeps gives none back": (
        "codegen.py",
        'self.line(f"fuel.remaining += {-n}")',
        "pass",
    ),
    "natElim's literal step owes one beta step, not two": (
        "codegen.py",
        'self.beta(body, [m, acc], str, self.env, acc)',
        'self.owed -= 1\n                    self.beta(body, [m, acc], str, self.env, acc)',
    ),
    "an inlined leaf's stuck arm gets its caller's environment": (
        "codegen.py",
        'f"_stuck({self.scope()}, ',
        'f"_stuck(e, ',
    ),
    "an inlined call does not force its callee first": (
        "codegen.py",
        "            self.value(t)\n",
        "",
    ),
    "a lambda argument's reads ignore a stuck J's own arguments": (
        "codegen.py",
        "arms = max(reduced, 1 + sum(hits))",
        "arms = max(reduced, 1)",
    ),
    "a leaf's J may take an argument that is no variable or constant": (
        "codegen.py",
        """\
        if type(t.arg) is not Var and type(t.arg) not in _CONSTS:
            return None
""",
        "",
    ),
    "a stuck snd is extended with a Fst frame": (
        "codegen.py",
        'self.put(dest, f"_extend({v}, {type(t).__name__})")',
        'self.put(dest, f"_extend({v}, Fst)")',
    ),
    "a global read in a branch stays known after the branch ends": (
        "codegen.py",
        "        self.known = known\n",
        "",
    ),
    "natElim's inline step is taken for a curried step": (
        "codegen.py",
        "if k == 2:",
        "if k >= 2:",
    ),
    "the in-place loop takes a turn with only the owed steps left": (
        "codegen.py",
        "fuel.remaining >= {n} and",
        "fuel.remaining >= {n - 1} and",
    ),
    "the in-place loop charges one step short": (
        "codegen.py",
        "fuel.remaining -= {n}; e =",
        "fuel.remaining -= {n - 1}; e =",
    ),
    "value_of keeps the owed steps it charged": (
        "semantics.py",
        "            fuel.remaining += owed\n",
        "",
    ),
    "a charge of several steps that runs out leaves the fuel it found": (
        "semantics.py",
        """\
        if self.remaining < n:
            self.remaining = 0""",
        """\
        if self.remaining < n:""",
    ),
    "a closure made by eval_term ignores sig.code": (
        "semantics.py",
        "sig.code.get(t.body, t.body)",
        "t.body",
    ),
    "value_of compiles no lambda global": (
        "semantics.py",
        """\
            if self.hot:
                self._compile(entry)""",
        "",
    ),
    "a fresh Signature starts hot": (
        "semantics.py",
        "hot: bool = field(default=False, init=False)",
        "hot: bool = field(default=True, init=False)",
    ),
    "tier_up compiles no global forced before it": (
        "semantics.py",
        """\
        for name in self.forced:
            self._compile(self.entries[name])""",
        "",
    ),
    "tier-up leaves a cached global's closure on its term body": (
        "semantics.py",
        "v.body = self.code.get(v.body, v.body)",
        "pass",
    ),
    "eval_term never tiers a cold run up": (
        "semantics.py",
        """\
    if not sig.hot and fuel.remaining < fuel.tier_at:
        sig.tier_up()
    entries = sig.entries""",
        "    entries = sig.entries",
    ),
    "read-back never tiers a cold run up": (
        "semantics.py",
        """\
    t = _quote(depth, v, fuel, sig, {})
    if not sig.hot and fuel.remaining < fuel.tier_at:
        sig.tier_up()
    return t""",
        "    return _quote(depth, v, fuel, sig, {})",
    ),
    "convert treats Π and Σ as one former": (
        "semantics.py",
        "if ca is not cb or ca is VConst:",
        "if (ca is not cb and {ca, cb} != {VPi, VSigma}) or ca is VConst:",
    ),
    "a quote memo hit spends nothing": (
        "semantics.py",
        "            fuel.spend(cost)\n",
        "",
    ),
    "quote reuses a reading that forced a global": (
        "semantics.py",
        "if remember and len(sig.forced) == forced:",
        "if remember:",
    ),
    "the eliminator telescope skips a premise's check": (
        "kernel.py",
        "check(ctx, arg, _open(ctx, domain, mentioned, args))",
        "_open(ctx, domain, mentioned, args)",
    ),
    "K is allowed without --enable-K": (
        "kernel.py",
        """\
        if cls is ElimK and not ctx.flags.enable_k:
            fail(K_DISABLED, "K eliminator requires --enable-K", t.span)
""",
        "",
    ),
    "type-in-type gives U a universe above it": (
        "kernel.py",
        "return V_U0 if ctx.flags.type_in_type else VUniverse(t.level + 1)",
        "return VUniverse(t.level + 1)",
    ),
    "Id forms in U0 whatever its endpoint type": (
        "kernel.py",
        "return VUniverse(i)\n",
        "return VUniverse(0)\n",
    ),
    "a definition is metered by a budget of its own": (
        "kernel.py",
        "    check_is_type(ctx, ty_term)\n",
        "    ctx = replace(ctx, fuel=Fuel.budget(ctx.fuel.total))\n"
        "    check_is_type(ctx, ty_term)\n",
    ),
    "a token's column skips the blanks before it": (
        "surface.py",
        "            col += len(blanks)\n",
        "",
    ),
    "a parsed span reads its token's line as its column": (
        "surface.py",
        "return Span(tok[2], tok[3])",
        "return Span(tok[2], tok[2])",
    ),
    "a parse error skips the lexer's drain": (
        "surface.py",
        "        while parser.lexed < len(parser.rows):\n            parser.pull()\n",
        "",
    ),
    "a RecursionError skips the drain": (
        "surface.py",
        "    except (Error, RecursionError):\n",
        "    except Error:\n",
    ),
    "a line that runs out of stack while it is lexed counts as lexed": (
        "surface.py",
        """\
            tokens = lex(rows[n - 1], n, n == len(rows))
            self.lexed = n
""",
        """\
            self.lexed = n
            tokens = lex(rows[n - 1], n, n == len(rows))
""",
    ),
    "peek does not pull the next line": (
        "surface.py",
        "while at >= len(tokens) and tokens[-1][0] != \"eof\":",
        "while False:",
    ),
    "a diagnostic renders its column as its line": (
        "diagnostics.py",
        "{d.span.line}:{d.span.col}",
        "{d.span.line}:{d.span.line}",
    ),
    "the failure outlives its handler": (
        "cli.py",
        """\
            if exc.span is None:
                exc.span = span
            print(render_diagnostic(exc, config.path), file=err)
            return 1
        return 0
""",
        """\
            failure = exc
        else:
            return 0
        if failure.span is None:
            failure.span = span
        print(render_diagnostic(failure, config.path), file=err)
        return 1
""",
    ),
    "fuel exhaustion keeps no span": (
        "cli.py",
        "            if exc.span is None:\n                exc.span = span\n",
        "",
    ),
    "show_type's note may tier the run up": (
        "kernel.py",
        "Fuel(_SHOW_FUEL, _SHOW_FUEL)",
        "Fuel.budget(_SHOW_FUEL)",
    ),
    "a note too deep to print escapes show_type": (
        "kernel.py",
        "except (FuelExhausted, RecursionError):",
        "except FuelExhausted:",
    ),
    "an unwritable stdout is caught only when the pipe is closed": (
        "cli.py",
        "    except OSError as exc:\n        # `run` reports its own read errors",
        "    except BrokenPipeError as exc:\n        # `run` reports its own read errors",
    ),
    "stdout stays on the closed pipe": (
        "cli.py",
        "        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n",
        "",
    ),
}


def passes(mutant: tuple[str, str, str] | None) -> bool:
    """Whether the tests pass on a copy of the repository with `mutant`
    applied; raises ValueError if its text is not found exactly once."""
    with tempfile.TemporaryDirectory(prefix="tinytt-mutant-") as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp) / name
            if source.is_dir():
                shutil.copytree(source, target,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy(source, target)
        if mutant is not None:
            file, old, new = mutant
            path = Path(tmp) / "src" / "tinytt" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise ValueError(f"{file}: found {text.count(old)} times: {old!r}")
            path.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
        try:
            done = subprocess.run(command, cwd=tmp, env=env, timeout=TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return False
        return done.returncode == 0


def main() -> int:
    if not passes(None):
        print("error: the tests fail on the unchanged copy", file=sys.stderr)
        return 2
    survived = 0
    for name, mutant in MUTANTS.items():
        start = time.perf_counter()
        try:
            alive = passes(mutant)
        except ValueError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        survived += alive
        print(f"{'SURVIVED' if alive else 'killed  '} {time.perf_counter() - start:6.1f} s  {name}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
