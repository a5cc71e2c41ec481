"""Seeded inputs for the tinytt benchmark, with verdicts known in advance.

Each workload is a list of `Case`s: one `tinytt check` invocation on a
file this module writes, plus the verdict that invocation must reach. No
expected verdict comes from running tinytt. The corpus cells take theirs
from `corpus/manifest.json`; the generated files carry verdicts that the
generator computes arithmetically (a numeral's `succ` count, a pair tree
of 2^k leaves).

Why each workload exists:

- `paradox`: `russell_loop.tt` under `--type-in-type --enable-K` at the
  CLI's default fuel of 1,000,000. Checking the nine definitions is cheap;
  `#normalize falsum` then spends the whole budget in the evaluator and
  global unfolding. It is the paper's centrepiece and a pure evaluator
  loop, so front-end and quote changes must leave it unchanged.
- `defs_scale`: thousands of small well-typed definitions with strict
  universes. It loads the lexer, parser, resolver, the driver's per-item
  loop and the kernel, with little evaluation; its cost grows faster than
  the definition count today.
- `normal_forms`: a short file whose work is read-back, printing and
  conversion: `add`/`mul` results of up to about 300 `succ`, a `dup` pair
  tower whose normal form has 2^k leaves, and `refl` checks between
  shared values.
- `corpus_matrix`: the 20 cells of the outcome matrix at `--fuel 100000`,
  the README's example budget, which keeps the diverging cell from
  drowning the other 19. It is the only workload with rejections.

Generator rules:

- `defs_scale` definitions refer only to a fixed set of base globals and
  never to each other. A definition that composes earlier definitions
  makes evaluation exponential in the file length and runs into E030.
- Nesting stays below the depths at which tinytt raises `RecursionError`
  today: the parser fails near 200 nested parentheses, `infer`/`check`
  and `pretty` near 500 nested `succ`. Source numerals here nest at most
  30 deep and printed numerals at most 300. Those depths are regression
  cases of their own, not benchmark inputs.
- The seed varies which numerals, factor pairs, templates and orders
  appear, never how much work a pass does, so runs with different seeds
  are comparable.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("paradox", "defs_scale", "normal_forms", "corpus_matrix")

# One line per workload on why it is here; BENCHMARK.json repeats these.
WHY = {
    "paradox": "the paper's centrepiece: russell_loop.tt spends 1M fuel in the evaluator and global unfolding, with no front-end or quote work",
    "defs_scale": "thousands of small definitions with strict universes: lexer, parser, resolver, driver loop and kernel, little evaluation",
    "normal_forms": "a tiny source whose normal forms are large: quote, pretty and convert on numerals and a dup pair tower",
    "corpus_matrix": "the paper's own 5x4 outcome matrix at fuel 100000, the only workload with rejections and diagnostics",
}

PARADOX_FUEL = 1_000_000
MATRIX_FUEL = 100_000
DEFS_COUNT = 2_000
DEFS_CHECKS = 8
TOWER_DEPTH = 13
TOWER_NORMALS = 4
PRODUCTS = (60, 84, 96, 120, 144, 180, 192, 240, 252, 300)
MAX_SOURCE_NUMERAL = 30


@dataclass(frozen=True, slots=True)
class Case:
    """One `tinytt check` run and the verdict it must reach.

    `items` counts the definitions and pragmas that reach a verdict,
    the failing one included.
    """

    path: str
    flags: tuple[str, ...]
    exit_code: int
    stdout: tuple[str, ...]
    items: int
    code: str | None = None
    line: int | None = None
    fuel_steps: int | None = None

    @property
    def argv(self) -> list[str]:
        return ["check", self.path, *self.flags]


_HEAD = re.compile(r"^.*:(\d+):\d+: error\[(E\d+)\]: (.*)$")
_STEPS = re.compile(r"after (\d+) steps")


def verdict_error(case: Case, exit_code: int, out: str, err: str) -> str | None:
    """Describe how a run's verdict differs from `case`, or None if it matches."""
    if exit_code != case.exit_code:
        return f"exit {exit_code}, expected {case.exit_code}: {err[-300:]!r}"
    lines = tuple(out.splitlines())
    if lines != case.stdout:
        return f"stdout {len(lines)} lines differ from the {len(case.stdout)} expected"
    if case.code is None:
        return None if err == "" else f"unexpected stderr {err[:300]!r}"
    m = _HEAD.match(err.splitlines()[0]) if err else None
    if m is None:
        return f"no diagnostic head in {err[:300]!r}"
    line, code, message = int(m.group(1)), m.group(2), m.group(3)
    if (code, line) != (case.code, case.line):
        return f"{code} on line {line}, expected {case.code} on line {case.line}"
    if case.fuel_steps is not None:
        steps = _STEPS.search(message)
        if steps is None or int(steps.group(1)) != case.fuel_steps:
            return f"{message!r}, expected after {case.fuel_steps} steps"
    return None


def build(name: str, seed: int, corpus: Path, directory: Path) -> list[Case]:
    """Write the inputs of workload `name` into `directory`."""
    rng = random.Random(f"{name}:{seed}")
    if name == "paradox":
        return [_paradox(corpus, directory)]
    if name == "defs_scale":
        return [_defs_scale(rng, directory)]
    if name == "normal_forms":
        return [_normal_forms(rng, directory)]
    if name == "corpus_matrix":
        return _corpus_matrix(rng, corpus, directory)
    raise ValueError(f"unknown workload {name!r}")


def numeral(k: int) -> str:
    """Source text of the numeral k, as tinytt's printer spells it."""
    if k == 0:
        return "zero"
    return "succ (" * (k - 1) + "succ zero" + ")" * (k - 1)


def pair_tree(depth: int, leaf: str) -> str:
    """Printed normal form of a full pair tree with 2^depth leaves."""
    text = leaf
    for _ in range(depth):
        text = f"({text} , {text})"
    return text


# Items start at the beginning of a line in every corpus file.
_ITEM_START = re.compile(r"^\s*(def|#normalize|#check)\b")


def _item_lines(text: str) -> list[tuple[int, str]]:
    return [(n, m.group(1)) for n, line in enumerate(text.splitlines(), 1)
            if (m := _ITEM_START.match(line))]


def _corpus_case(source: Path, target: Path, flags: tuple[str, ...],
                 outcome: dict, outputs: list[str], fuel: int) -> Case:
    items = _item_lines(source.read_text(encoding="utf-8"))
    shutil.copyfile(source, target)
    if outcome["result"] == "accept":
        return Case(str(target), flags, 0, tuple(outputs), len(items))
    line = outcome["line"]
    # Pragmas before the failing item have already printed their output.
    printed = sum(1 for n, kind in items if n < line and kind != "def")
    return Case(str(target), flags, 1, tuple(outputs[:printed]),
                sum(1 for n, _ in items if n <= line), outcome["code"], line,
                fuel if outcome["code"] == "E030" else None)


def _flags(type_in_type: bool, enable_k: bool, fuel: int) -> tuple[str, ...]:
    return ((("--type-in-type",) if type_in_type else ())
            + (("--enable-K",) if enable_k else ()) + ("--fuel", str(fuel)))


def _manifest(corpus: Path) -> list[dict]:
    return json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))["files"]


def _paradox(corpus: Path, directory: Path) -> Case:
    for entry in _manifest(corpus):
        if entry["path"] != "russell_loop.tt":
            continue
        outcome = next(o for o in entry["outcomes"]
                       if o["type_in_type"] and o["enable_k"])
        return _corpus_case(corpus / entry["path"], directory / entry["path"],
                            _flags(True, True, PARADOX_FUEL), outcome,
                            entry["outputs"], PARADOX_FUEL)
    raise FileNotFoundError("russell_loop.tt is not in the corpus manifest")


def _corpus_matrix(rng: random.Random, corpus: Path, directory: Path) -> list[Case]:
    cases = []
    for entry in _manifest(corpus):
        for outcome in entry["outcomes"]:
            cases.append(_corpus_case(
                corpus / entry["path"], directory / entry["path"],
                _flags(outcome["type_in_type"], outcome["enable_k"], MATRIX_FUEL),
                outcome, entry["outputs"], MATRIX_FUEL))
    rng.shuffle(cases)
    return cases


_BASE = """\
def id : (A : U) -> A -> A := fun A x => x;
def const : (A : U) -> (B : U) -> A -> B -> A := fun A B x y => x;
def comp : (A : U) -> (B : U) -> (C : U) -> (B -> C) -> (A -> B) -> A -> C := fun A B C g f x => g (f x);
def add : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) n (fun _ r => succ r) m;
def swap : (A : U) -> (B : U) -> (A * B) -> B * A := fun A B p => (snd p , fst p);
def sym : (A : U) -> (x : A) -> (y : A) -> Id A x y -> Id A y x := fun A x y p => J A x (fun y' _ => Id A y' x) refl y p;
"""


def _definition(rng: random.Random) -> tuple[str, str]:
    """A (type, body) pair drawn from templates over the base globals only."""
    a, b = rng.randint(0, 6), rng.randint(0, 6)
    na, nb = numeral(a), numeral(b)
    return rng.choice((
        ("Nat -> Nat", f"fun x => add x ({na})"),
        ("(A : U) -> A -> A", "fun A x => id A (id A x)"),
        ("Nat * Nat", f"({na} , add ({nb}) ({na}))"),
        (f"Id Nat (add ({na}) ({nb})) ({numeral(a + b)})", "refl"),
        ("Nat -> Nat", f"comp Nat Nat Nat (add ({na})) (const Nat Nat ({nb}))"),
        ("(A : U) -> (B : U) -> (A * B) -> B * A", "fun A B p => swap A B p"),
        (f"Id Nat ({na}) ({na})", f"sym Nat ({na}) ({na}) refl"),
        ("Unit -> Nat * Unit", f"fun u => ({na} , u)"),
    ))


def _defs_scale(rng: random.Random, directory: Path) -> Case:
    lines = _BASE.splitlines()
    types = []
    outputs = []
    check_every = DEFS_COUNT // DEFS_CHECKS
    for i in range(DEFS_COUNT):
        ty, body = _definition(rng)
        types.append(ty)
        lines.append(f"def d{i} : {ty} := {body};")
        if (i + 1) % check_every == 0:
            j = rng.randrange(i + 1)
            lines.append(f"#check d{j} : {types[j]};")
            outputs.append(f"CHECKED: d{j}")
    path = directory / "defs_scale.tt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Case(str(path), (), 0, tuple(outputs), len(lines))


_ARITH = """\
def add : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) n (fun _ r => succ r) m;
def mul : Nat -> Nat -> Nat := fun m n => natElim (fun _ => Nat) zero (fun _ r => add n r) m;
def dup : (A : U) -> A -> A * A := fun A x => (x , x);
def T0 : U := Nat;
def v0 : T0 := zero;
"""


def _normal_forms(rng: random.Random, directory: Path) -> Case:
    lines = _ARITH.splitlines()
    for i in range(1, TOWER_DEPTH + 1):
        lines.append(f"def T{i} : U := T{i - 1} * T{i - 1};")
        lines.append(f"def v{i} : T{i} := dup T{i - 1} v{i - 1};")
    factors = []
    for product in PRODUCTS:
        pairs = [(a, product // a) for a in range(2, MAX_SOURCE_NUMERAL + 1)
                 if product % a == 0 and product // a <= MAX_SOURCE_NUMERAL]
        factors.append(rng.choice(pairs))
    for k in sorted({n for pair in factors for n in pair}):
        lines.append(f"def n{k} : Nat := {numeral(k)};")
    pragmas = []
    for k in range(TOWER_DEPTH - TOWER_NORMALS + 1, TOWER_DEPTH + 1):
        pragmas += [(f"#normalize v{k};", f"NORMAL: {pair_tree(k, 'zero')}"),
                    (f"#check refl : Id T{k} v{k} (dup T{k - 1} v{k - 1});", "CHECKED: refl")]
    for a, b in factors:
        pragmas += [
            (f"#normalize mul n{a} n{b};", f"NORMAL: {numeral(a * b)}"),
            (f"#normalize add n{a} n{b};", f"NORMAL: {numeral(a + b)}"),
            (f"#check refl : Id Nat (mul n{a} n{b}) (mul n{b} n{a});", "CHECKED: refl"),
        ]
    rng.shuffle(pragmas)
    lines += [text for text, _ in pragmas]
    path = directory / "normal_forms.tt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Case(str(path), (), 0, tuple(out for _, out in pragmas), len(lines))
