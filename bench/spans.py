"""Spans at tinytt's layer boundaries, recorded from outside the program.

`Tracer.install` replaces, in the importing module's namespace, each
function that `tinytt.cli` and `tinytt.kernel` import from the layers
below them, plus `tinytt.surface.lex`, with a wrapper that records one
span per call. Calls a layer makes to its own functions stay unwrapped,
so recursion inside a layer runs at full speed and a span costs one
wrapper call per boundary crossing. `Tracer.remove` restores the
originals.

A span is (name, start_ns, end_ns, parent id, fuel spent, exception
name, kept result). Spans stay in memory until the pass is over. Counts
that walk a result (normal-form nodes, printed characters) are taken
after the pass, outside every span.

The `Fuel` and `Signature` classes that `tinytt.cli` and `tinytt.kernel`
use are replaced by recorders that keep every instance made, so that fuel
spent and globals forced can be read once the pass is over.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# (importing module, imported name, span name). A name missing from its
# module stops the benchmark: a layer that silently costs 0 is worse
# than no number.
WRAPPED = (
    ("tinytt.cli", "parse", "surface.parse"),
    ("tinytt.cli", "resolve_expr", "surface.resolve"),
    ("tinytt.cli", "check_declaration", "kernel.decl"),
    ("tinytt.cli", "check_is_type", "kernel.pragma"),
    ("tinytt.cli", "check", "kernel.pragma"),
    ("tinytt.cli", "infer", "kernel.pragma"),
    ("tinytt.cli", "normalize", "semantics.normalize"),
    ("tinytt.cli", "pretty", "pretty"),
    ("tinytt.cli", "render_diagnostic", "diagnostics.render"),
    ("tinytt.surface", "lex", "surface.lex"),
    ("tinytt.kernel", "eval_term", "semantics.eval"),
    ("tinytt.kernel", "apply_closure", "semantics.eval"),
    ("tinytt.kernel", "vapp", "semantics.eval"),
    ("tinytt.kernel", "vfst", "semantics.eval"),
    ("tinytt.kernel", "vvar", "semantics.vvar"),
    ("tinytt.kernel", "convert", "semantics.convert"),
    ("tinytt.kernel", "quote", "semantics.quote"),
    ("tinytt.kernel", "pretty", "pretty"),
    ("tinytt.kernel", "shift", "syntax.shift"),
    ("tinytt.kernel", "fail", "diagnostics.fail"),
)

# `normalize` is eval then quote inside tinytt.semantics. During one
# normalize span, the first call of each of these names becomes a child
# span; the original is put back before it runs, so the recursion inside
# stays unwrapped.
SPLIT = {
    "semantics.normalize": (("tinytt.semantics", "eval_term", "semantics.eval"),
                            ("tinytt.semantics", "quote", "semantics.quote")),
}

# Classes whose instances the tracer keeps, and the list it keeps them in.
RECORDED = (
    ("tinytt.cli", "Fuel", "fuels"),
    ("tinytt.cli", "Signature", "signatures"),
    ("tinytt.kernel", "Fuel", "fuels"),
)

# Spans that spend fuel, read from their `fuel` argument. Every unit a
# recorded Fuel object spends must be spent inside one of them.
FUEL_SPANS = frozenset({"semantics.eval", "semantics.quote", "semantics.convert"})

# Spans whose results are measured once the pass is over.
KEPT = frozenset({"surface.lex", "surface.parse", "semantics.normalize", "pretty"})

NAME, START, END, PARENT, FUEL, ERROR, RESULT = range(7)


class TraceError(RuntimeError):
    """The program no longer has the shape the trace table describes."""


def _lookup(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    try:
        return module, getattr(module, attr)
    except AttributeError:
        raise TraceError(f"{module_name}.{attr} no longer exists; "
                         "update the trace table in bench/spans.py") from None


class _Recorder:
    """Stands in for a class and keeps every instance that it, or an
    alternative constructor such as `Fuel.budget`, returns."""

    def __init__(self, cls: type, made: list):
        self._cls = cls
        self._made = made

    def __call__(self, *args, **kwargs):
        obj = self._cls(*args, **kwargs)
        self._made.append(obj)
        return obj

    def __getattr__(self, attr: str):
        value = getattr(self._cls, attr)
        if not callable(value):
            return value

        def make(*args, **kwargs):
            obj = value(*args, **kwargs)
            if isinstance(obj, self._cls):
                self._made.append(obj)
            return obj
        return make


class Tracer:
    """Records spans at layer boundaries between `install` and `remove`."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.fuels: list = []
        self.signatures: list = []
        self._saved: list = []

    def install(self) -> None:
        try:
            for module_name, attr, name in WRAPPED:
                module, original = _lookup(module_name, attr)
                if name in SPLIT:
                    wrapper = self._split(name, original, SPLIT[name])
                else:
                    wrapper = self.span(name, original, module_name, attr)
                self._replace(module, attr, wrapper)
            for module_name, attr, sink in RECORDED:
                module, cls = _lookup(module_name, attr)
                self._replace(module, attr, _Recorder(cls, getattr(self, sink)))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _replace(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def span(self, name: str, fn, module_name: str = "", attr: str = ""):
        """Wrap `fn` so that each call records a span called `name`."""
        spans, stack = self.spans, self.stack
        keep = name in KEPT
        at = None
        if name in FUEL_SPANS:
            params = list(inspect.signature(fn).parameters)
            if "fuel" not in params:
                raise TraceError(f"{module_name}.{attr} no longer takes a "
                                 "'fuel' argument; update bench/spans.py")
            at = params.index("fuel")

        def wrapper(*args, **kwargs):
            fuel = before = None
            if at is not None:
                fuel = args[at] if len(args) > at else kwargs["fuel"]
                before = fuel.remaining
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            result = error = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spent = before - fuel.remaining if fuel is not None else 0
                spans[sid] = (name, start, end, parent, spent, error,
                              result if keep else None)
        return wrapper

    def _split(self, name: str, fn, children):
        inner = self.span(name, fn)
        parts = []
        for module_name, attr, child in children:
            module, original = _lookup(module_name, attr)
            parts.append((module, attr, original,
                          self.span(child, original, module_name, attr)))

        def wrapper(*args, **kwargs):
            fired: list[str] = []
            for module, attr, original, span in parts:
                def first_call(*a, _m=module, _at=attr, _o=original, _s=span, **k):
                    setattr(_m, _at, _o)
                    fired.append(_at)
                    return _s(*a, **k)
                setattr(module, attr, first_call)
            try:
                result = inner(*args, **kwargs)
            finally:
                for module, attr, original, _ in parts:
                    setattr(module, attr, original)
            if len(fired) != len(parts):
                missing = [attr for _, attr, _, _ in parts if attr not in fired]
                raise TraceError(f"{name} no longer calls {missing} through "
                                 "its module; update SPLIT in bench/spans.py")
            return result
        return wrapper

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: id, parent, name, start, end,
        fuel spent, exception."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, s in enumerate(self.spans):
                handle.write(json.dumps([sid, s[PARENT], s[NAME], s[START], s[END],
                                         s[FUEL], s[ERROR]]) + "\n")


_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


def count_nodes(term, term_class: type) -> int:
    """Number of term nodes in `term`, walked iteratively."""
    count = 0
    todo = [term]
    while todo:
        t = todo.pop()
        count += 1
        cls = type(t)
        names = _CHILD_FIELDS.get(cls)
        if names is None:
            names = _CHILD_FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls))
        for attr in names:
            value = getattr(t, attr)
            if isinstance(value, term_class):
                todo.append(value)
    return count


def layer_metrics(tracer: Tracer, root: str) -> tuple[dict, dict]:
    """Per-layer times and counts of one traced pass.

    Returns (times in seconds, counts). A layer's time is its spans' self
    time: duration minus the part covered by their direct children.
    """
    from tinytt.syntax import Term

    spans = tracer.spans
    covered = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    for sid, s in enumerate(spans):
        self_ns[s[NAME]] += s[END] - s[START] - covered[sid]
        calls[s[NAME]] += 1

    def parent_name(s) -> str:
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""

    fuel_spans = [s for s in spans if s[NAME] in FUEL_SPANS]
    spent = sum(f.total - f.remaining for f in tracer.fuels)
    if spent != sum(s[FUEL] for s in fuel_spans):
        raise TraceError(f"{spent} fuel spent, but {sum(s[FUEL] for s in fuel_spans)} "
                         "inside the traced spans; a fuel-spending call is untraced")
    normal_fuel = sum(s[FUEL] for s in fuel_spans
                      if parent_name(s) == "semantics.normalize")
    defined = forced = 0
    for sig in tracer.signatures:
        for entry in sig.entries.values():
            defined += 1
            forced += entry.cached is not None

    def results(name: str) -> list:
        return [s[RESULT] for s in spans if s[NAME] == name and s[ERROR] is None]

    nf_nodes = sum(count_nodes(t, Term) for t in results("semantics.normalize"))
    counts = {
        "surface.tokens": sum(len(r) for r in results("surface.lex")),
        "surface.items": sum(len(r) for r in results("surface.parse")),
        "kernel.fuel_steps": sum(s[FUEL] for s in fuel_spans
                                 if parent_name(s).startswith("kernel.")),
        "semantics.eval_calls": calls["semantics.eval"],
        "semantics.fuel_steps": spent,
        "semantics.globals_forced": forced,
        "semantics.globals_defined": defined,
        "semantics.convert_calls": calls["semantics.convert"],
        "semantics.nf_nodes": nf_nodes,
        "semantics.normalize_fuel": normal_fuel,
        "pretty.chars": sum(len(r) for r in results("pretty")),
        "diagnostics.count": calls["diagnostics.render"],
        "semantics.fuel_exhausted": sum(1 for s in fuel_spans if s[ERROR] == "FuelExhausted"),
        "spans": len(spans),
    }
    times = {
        "surface.lex_s": self_ns["surface.lex"],
        "surface.parse_s": self_ns["surface.parse"],
        "surface.resolve_s": self_ns["surface.resolve"],
        "cli.self_s": self_ns[root],
        "kernel.decl_s": self_ns["kernel.decl"],
        "kernel.pragma_s": self_ns["kernel.pragma"],
        "semantics.eval_s": self_ns["semantics.eval"],
        "semantics.convert_s": self_ns["semantics.convert"],
        "semantics.quote_s": self_ns["semantics.quote"],
        "pretty.s": self_ns["pretty"],
        "diagnostics.s": self_ns["diagnostics.render"] + self_ns["diagnostics.fail"],
        "other_s": sum(self_ns[n] for n in ("semantics.normalize", "semantics.vvar",
                                            "syntax.shift")),
    }
    return {k: v / 1e9 for k, v in times.items()}, counts
