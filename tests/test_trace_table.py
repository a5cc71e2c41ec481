"""The benchmark's layer tracer still fits the program.

`bench/spans.py` wraps functions by module and name. A refactor that
renames or moves one of them should fail here, not only when the traced
benchmark runs.
"""

from __future__ import annotations

import ast
import importlib
from io import StringIO
from pathlib import Path

from tinytt.cli import RunConfig, run
from tinytt.kernel import FlagSet

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
SRC = ROOT / "src" / "tinytt"


def test_tracer_installs_records_and_removes(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    targets = [(importlib.import_module(module), attr)
               for module, attr, _ in spans.WRAPPED + spans.RECORDED]
    originals = [getattr(module, attr, None) for module, attr in targets]
    tracer = spans.Tracer()
    tracer.install()  # raises TraceError naming a function that is gone
    try:
        traced_run = tracer.span("cli.run", run)
        for name, flags, status in [
            ("prelude_coe.tt", FlagSet(), 0),   # normalize: eval and quote
            ("sets.tt", FlagSet(), 1),          # a diagnostic
            ("russell_loop.tt", FlagSet(True, True, 1000), 1),  # fuel runs out
        ]:
            config = RunConfig(str(CORPUS / name), flags)
            assert traced_run(config, StringIO(), StringIO()) == status, name
    finally:
        tracer.remove()
    assert [getattr(module, attr) for module, attr in targets] == originals
    _, counts = spans.layer_metrics(tracer, "cli.run")  # checks fuel is all traced
    assert counts["surface.items"] > 0
    assert counts["semantics.nf_nodes"] > 0
    assert counts["diagnostics.count"] == 2
    assert counts["semantics.fuel_exhausted"] == 1


def test_every_import_is_used_or_traced(monkeypatch):
    # A name a module imports but never uses is dead, unless the tracer
    # wraps or records it in that module's namespace.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    traced = {(module, attr) for module, attr, _ in spans.WRAPPED + spans.RECORDED}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and (f"tinytt.{path.stem}", name) not in traced:
                        unused.append(f"{path.name}: {name}")
    assert unused == []
