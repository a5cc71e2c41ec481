"""The same-behaviour differential: this tree's `tinytt check` against REV's.

Run

    python tests/differential.py REV [--allow CODE]...

to extract `src` at git revision `REV` with `git archive` into a temporary
directory, and to run `tinytt check` from that tree and from this one, each
tree in one child process of its own, over one input set: the corpus
files, the `ARITHMETIC`, `BATCHED`, `APPLIED`, `FORMERS`, `INLINED`,
`JOINED` and `FST_COE` texts of `tests/test_semantics.py` with a
`#normalize` of every global appended, and the dup towers of
`tests/test_robustness.py` at each depth in `TOWERS` with a
`#normalize` of the top value, each under the four
flag sets, at the default fuel and at every budget in `FUELS`; and the inputs
of `tests/test_kernel.py` (every input of `REJECTED`, each eliminator
definition of `WRAPPED_ELIMINATORS` after `_WRAPPERS`, and `ABSURD`),
each under the flag sets its test uses, at the default fuel and at every
budget in `KERNEL_FUELS`; and the inputs of `LEXICAL_LAST` in
`tests/test_cli.py`, whose lexical error comes after a syntax error or a
nesting too deep to parse, under the four flag sets at the default fuel.
To these it adds `MUTATIONS` token mutations of the corpus files, made by
`corpus_mutations` of `tests/test_robustness.py` (drop, double, swap, or
replace from its `VOCAB`), and as many identifier mutations, each of
which replaces one identifier that this tree's `lex` finds in a corpus
file with another of the same file; each mutation runs once, under a
flag set and a budget in `MUTATION_FUELS` drawn from a generator seeded
with `SEED`. Two more children run this tree with `semantics.TIER_UP_FUEL`
set to each value in `TIER_UPS`: one compiles from the first step, the
other never compiles, so where a run tiers up must change no output.
Each run whose stdout, stderr or exit code differs between this tree and
another leg is printed; a run that raises an uncaught exception is a
difference like any other, shown by its exception. A change that alters
output on purpose names each diagnostic code it changes with `--allow
CODE`: a run that differs from `REV`'s and whose stderr carries
`error[CODE]` in either tree is printed as allowed and does not count.
The script exits 0 when no run differs but allowed ones, 1 when one
does, and 2 when `REV` cannot be extracted or a child fails or takes
longer than `TIMEOUT` seconds. pytest does not collect this file.
"""

from __future__ import annotations

import ast
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from tinytt.surface import RESERVED_WORDS, lex  # noqa: E402

TEXTS = ("ARITHMETIC", "BATCHED", "APPLIED", "FORMERS", "INLINED", "JOINED", "FST_COE")
FLAGS = ((), ("--type-in-type",), ("--enable-K",), ("--type-in-type", "--enable-K"))
# Budgets that run out early; in `russell_loop.tt`, inside charges of
# several steps that compiled code makes when a run compiles from the
# first step, as on the tier-up fuel 0 leg (43, 379, 387, 388); on either
# side of the fuel at which a run tiers up (999, 1000, 1001); on every
# leg, inside the charge of 20 steps in `lemma1`, which runs coe, subst
# and coe_eq in place, right after the tier-up: its first, a middle and
# its last budget (1009, 1017, 1028), and a later charge of the compiled
# loop (1388); and late.
FUELS = (None, 1, 7, 43, 379, 387, 388, 999, 1000, 1001, 1009, 1017, 1028, 1388, 100_000)
# The depths of the dup towers whose top value is read back: from 9 on,
# the read-back crosses the tier-up fuel after the last evaluation.
TOWERS = range(25)
# The budgets at which `test_kernel`'s inputs run, besides the default:
# each ends at a different step of a definition's or a pragma's check.
KERNEL_FUELS = range(1, 201)
# The tier-up fuels of the extra legs of this tree: compile at once, never.
TIER_UPS = (0, 10**9)
# Token mutations of the corpus, and as many identifier mutations.
MUTATIONS = 1000
SEED = 25
# The least and the greatest budget a mutation may draw. At the default
# of 1M, one mutated paradox loop takes about 1.3 s on the never-compile
# leg.
MUTATION_FUELS = (1, 20_000)
# All four legs together take about 50 seconds on two cores; a hang in
# any is an error.
TIMEOUT = 300

# Runs each command line of stdin through `tinytt.cli.main`, importing
# `tinytt` from the `src` directory named by argv[1], with the tier-up
# fuel argv[2] when given, and prints the
# stdout, stderr and exit code of each as JSON. An uncaught exception ends
# its run's stderr, without the traceback's paths, which differ by tree,
# and stands in for the exit code.
CHILD = """\
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from tinytt import semantics
from tinytt.cli import main
if len(sys.argv) > 2:
    semantics.TIER_UP_FUEL = int(sys.argv[2])
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
            code = "uncaught exception"
    results.append((out.getvalue(), err.getvalue(), code))
json.dump(results, sys.stdout)
"""


class _Seeded:
    """Stands in for `hypothesis.strategies` in `corpus_mutations`: a
    strategy is a function of the seeded generator that `draw` gives it."""

    @staticmethod
    def sampled_from(values):
        return lambda rng: rng.choice(list(values))

    @staticmethod
    def integers(low, high):
        return lambda rng: rng.randint(low, high)


def _defined(node: ast.stmt) -> str | None:
    if isinstance(node, ast.Assign):
        return getattr(node.targets[0], "id", None)
    return getattr(node, "name", None)


def definitions(file: str, names: set[str], **scope) -> dict:
    """Run only the definitions of `names` in `tests/FILE`, undecorated, in
    `scope`, so that nothing else of that module runs."""
    tree = ast.parse((ROOT / "tests" / file).read_text(encoding="utf-8"))
    nodes = [node for node in tree.body if _defined(node) in names]
    for node in nodes:
        if isinstance(node, ast.FunctionDef):
            node.decorator_list = []
    exec(compile(ast.Module(nodes, []), file, "exec"), scope)
    return scope


def rename(text: str, rng: random.Random) -> str:
    """`text` with one identifier that `lex` finds in it replaced by another."""
    idents = [tok for tok in lex(text) if tok[0] == "ident"]
    _, old, line, col = rng.choice(idents)
    new = rng.choice(sorted({tok[1] for tok in idents} - {old}))
    rows = text.split("\n")
    row = rows[line - 1]
    rows[line - 1] = row[:col - 1] + new + row[col - 1 + len(old):]
    return "\n".join(rows)


def inputs(directory: Path) -> list[list[str]]:
    """Write the input files into `directory`; the command line of each run,
    with paths relative to it."""
    (directory / "corpus").mkdir()
    corpus = {path.name: path.read_text(encoding="utf-8")
              for path in sorted((ROOT / "corpus").glob("*.tt"))}
    names = []
    for name, text in corpus.items():
        names.append(f"corpus/{name}")
        (directory / names[-1]).write_text(text, encoding="utf-8")
    tree = ast.parse((ROOT / "tests" / "test_semantics.py").read_text(encoding="utf-8"))
    texts = {_defined(node): ast.literal_eval(node.value) for node in tree.body
             if _defined(node) in TEXTS}
    for name in TEXTS:
        text = texts[name] + "".join(f"#normalize {g};\n"
                                     for g in re.findall(r"^def (\w+)", texts[name], re.M))
        names.append(f"{name.lower()}.tt")
        (directory / names[-1]).write_text(text, encoding="utf-8")
    scope = definitions("test_robustness.py", {"dup_tower", "VOCAB", "_WORDS", "corpus_mutations"},
                        re=re, st=_Seeded, RESERVED_WORDS=RESERVED_WORDS, CORPUS_TEXTS=corpus)
    for depth in TOWERS:
        text = scope["dup_tower"](depth, []) + f"#normalize v{depth};\n"
        names.append(f"dup_tower_{depth}.tt")
        (directory / names[-1]).write_text(text, encoding="utf-8")
    runs = [["check", name, *flags, *(() if fuel is None else ("--fuel", str(fuel)))]
            for name in names for flags in FLAGS for fuel in FUELS]
    kernel = definitions("test_kernel.py", {"_F", "_J", "_K", "_N", "_T13", "_mismatch",
                                            "REJECTED", "_WRAPPERS", "WRAPPED_ELIMINATORS",
                                            "ABSURD"})
    options = {"type_in_type": "--type-in-type", "enable_k": "--enable-K"}
    cases = [(text, tuple(options[key] for key, on in flags.items() if on))
             for text, flags, _ in kernel["REJECTED"]]
    cases += [(kernel["_WRAPPERS"] + item + "\n", FLAGS[3])
              for item, _ in kernel["WRAPPED_ELIMINATORS"]]
    cases += [(kernel["ABSURD"], flags) for flags in FLAGS[:2]]
    for i, (text, flags) in enumerate(cases):
        name = f"kernel_{i}.tt"
        (directory / name).write_text(text, encoding="utf-8")
        runs += [["check", name, *flags, *(() if fuel is None else ("--fuel", str(fuel)))]
                 for fuel in (None, *KERNEL_FUELS)]
    lexical = definitions("test_cli.py", {"_PARENS", "LEXICAL_LAST"})["LEXICAL_LAST"]
    for i, (text, _) in enumerate(lexical):
        name = f"lexical_{i}.tt"
        (directory / name).write_text(text, encoding="utf-8")
        runs += [["check", name, *flags] for flags in FLAGS]
    rng = random.Random(SEED)
    mutants = [scope["corpus_mutations"](lambda strategy: strategy(rng))
               for _ in range(MUTATIONS)]
    mutants += [rename(rng.choice(list(corpus.values())), rng) for _ in range(MUTATIONS)]
    for i, text in enumerate(mutants):
        name = f"mutation_{i}.tt"
        (directory / name).write_text(text, encoding="utf-8")
        runs.append(["check", name, *rng.choice(FLAGS),
                     "--fuel", str(rng.randint(*MUTATION_FUELS))])
    return runs


def main(argv: list[str]) -> int:
    allow = argv[2::2]
    if len(argv) % 2 == 0 or argv[1::2] != ["--allow"] * len(allow):
        print("usage: python tests/differential.py REV [--allow CODE]...", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="tinytt-differential-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                                  rev, "src"], capture_output=True)
        if archive.returncode != 0:
            print(f"error: cannot extract {rev}: {archive.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive.stdout, check=True)
        (tmp / "inputs").mkdir()
        runs = inputs(tmp / "inputs")
        legs = {"this tree": [ROOT / "src"], rev: [tmp / "rev" / "src"]}
        for fuel in TIER_UPS:
            legs[f"tier-up fuel {fuel}"] = [ROOT / "src", fuel]
        children = {leg: subprocess.Popen(
            [sys.executable, "-c", CHILD, *map(str, args)], cwd=tmp / "inputs",
            env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for leg, args in legs.items()}
        deadline = time.monotonic() + TIMEOUT
        outputs = {}
        try:
            for leg, child in children.items():
                outputs[leg] = child.communicate(
                    json.dumps(runs), timeout=max(deadline - time.monotonic(), 0))[0]
        except subprocess.TimeoutExpired:
            print(f"error: the child running {leg} took longer than {TIMEOUT} s",
                  file=sys.stderr)
            return 2
        finally:
            for child in children.values():
                child.kill()
                child.wait()
    for leg, child in children.items():
        if child.returncode != 0:
            print(f"error: the child running {leg} exited {child.returncode}", file=sys.stderr)
            return 2
    results = {leg: json.loads(out) for leg, out in outputs.items()}
    here = results.pop("this tree")
    total = 0
    for leg, got in results.items():
        # Only REV's tree may differ on purpose.
        codes_allowed = allow if leg == rev else []
        differ = allowed = 0
        for run, a, b in zip(runs, got, here):
            if a == b:
                continue
            codes = [code for code in codes_allowed if f"error[{code}]" in a[1] + b[1]]
            if codes:
                allowed += 1
                print(f"allowed ({', '.join(codes)}): tinytt " + " ".join(run))
            else:
                differ += 1
                print(f"differs from {leg}: tinytt " + " ".join(run))
            for stream, x, y in zip(("stdout", "stderr", "exit code"), a, b):
                if x != y:
                    print(f"  {stream} at {leg}: {x!r}\n  {stream} here: {y!r}")
        print(f"{leg}: {differ} differ, {allowed} allowed")
        total += differ
    codes = Counter(code for r in here for code in re.findall(r"error\[(E\d+)\]", r[1]))
    print("diagnostics here: " + ", ".join(f"{code} {n}" for code, n in sorted(codes.items())))
    print(f"{len(runs)} runs per leg, {sum(r[2] == 0 for r in here)} exit 0 here, "
          f"{total} differ")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
