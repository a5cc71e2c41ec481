"""The mutant catalogue: faults that the tests must catch, in how fuel is
charged, how an item is metered, how compiled code is found, how a run
tiers up, the read-back, conversion, universe and typing rules, where the
lexer and parser place a span, how a failure is reported and how a
diagnostic renders it, and how a note shows a type too deep to print.

Each entry of `MUTANTS` is a file under `src/tinytt`, a text that occurs
in it exactly once, and the text that replaces it. Run

    python tests/mutants.py

to copy `src`, `tests`, `corpus` and `pyproject.toml` to a temporary
directory once for the unchanged code and once per mutant, and to run
`tests/test_semantics.py`, `tests/test_cli.py` and `tests/test_kernel.py`
there with `-x`. The unchanged copy must pass; a mutant whose copy passes
too has survived.
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
TESTS = ("tests/test_semantics.py", "tests/test_cli.py", "tests/test_kernel.py")
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
        # The reducing arm keeps what it owes; the stuck arm, which
        # charges before its call, gives that count back.
        test = f"if {v} is V_REFL:" if j else f"if type({v}) is VPair:"
        with self.block(test, owed + 1, keep=None):
            if j:
                self.beta(_strip(t.case)[0] if args else t.case, args, self.once, "e", dest)
            else:
                self.put(dest, f"{v}.{'first' if type(t) is Fst else 'second'}")
        with self.block("else:", owed, keep=self.owed):
            stuck = self.temp() if args else dest
            self.put(stuck, f"_stuck(e, {self.name(t)}, {v}, fuel, sig)", calls=True)
            self.apply(stuck, args, dest, self.once)""",
        """\
        args = [self.once(a) for a in args]
        v = self.value(t.proof if j else t.target)
        owed = self.owed
        test = f"if {v} is V_REFL:" if j else f"if type({v}) is VPair:"
        with self.block(test, owed + 1, keep=None):
            if j:
                self.beta(_strip(t.case)[0] if args else t.case, args, str, "e", dest)
            else:
                self.put(dest, f"{v}.{'first' if type(t) is Fst else 'second'}")
        with self.block("else:", owed, keep=self.owed):
            stuck = self.temp() if args else dest
            self.put(stuck, f"_stuck(e, {self.name(t)}, {v}, fuel, sig)", calls=True)
            self.apply(stuck, args, dest, str)""",
    ),
    "a case body reads the outer variable e[i] for e[i-1]": (
        "codegen.py",
        'f"{env}[{i - n}]"',
        'f"{env}[{i}]"',
    ),
    "beta owes no step for an argument": (
        "codegen.py",
        """\
            bound.append(value(a))
            self.owed += 1""",
        """\
            bound.append(value(a))""",
    ),
    "beta owes one step per call, not one per argument": (
        "codegen.py",
        """\
            bound.append(value(a))
            self.owed += 1""",
        """\
            bound.append(value(a))
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
        'self.put(dest, f"eval_term(e, {self.name(t)}, fuel, sig)", calls=True)',
        'self.put(dest, f"eval_term(e, {self.name(t)}, fuel, sig)")',
    ),
    "a charge that owes fewer steps than it keeps gives none back": (
        "codegen.py",
        'self.line(f"fuel.remaining += {-n}")',
        "pass",
    ),
    "natElim's literal step owes one beta step, not two": (
        "codegen.py",
        'self.beta(body, [m, acc], str, "e", acc)',
        'self.owed -= 1\n                    self.beta(body, [m, acc], str, "e", acc)',
    ),
    "natElim's inline step is taken for a curried step": (
        "codegen.py",
        "if k == 2:",
        "if k >= 2:",
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
    if not sig.hot and fuel.total - fuel.remaining > TIER_UP_FUEL:
        sig.tier_up()
    entries = sig.entries""",
        "    entries = sig.entries",
    ),
    "read-back never tiers a cold run up": (
        "semantics.py",
        """\
    t = _quote(depth, v, fuel, sig, {})
    if not sig.hot and fuel.total - fuel.remaining > TIER_UP_FUEL:
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
    "a note too deep to print escapes show_type": (
        "kernel.py",
        "except (FuelExhausted, RecursionError):",
        "except FuelExhausted:",
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
