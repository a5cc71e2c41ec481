"""The manifest of the `.tt` corpus in the source checkout.

The manifest records, for every corpus file, the expected outcome under
each of the four flag combinations and the stdout lines a successful run
prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True, slots=True)
class Outcome:
    """Expected result of one (file, flags) run.

    `result` is "accept" or "reject"; rejections name the diagnostic code
    and the 1-based source line it points at.
    """

    type_in_type: bool
    enable_k: bool
    result: str
    code: str | None = None
    line: int | None = None


@dataclass(frozen=True, slots=True)
class CorpusFile:
    path: Path
    outcomes: tuple[Outcome, ...]
    outputs: tuple[str, ...]

    @property
    def name(self) -> str:
        return self.path.name

    def outcome_for(self, type_in_type: bool, enable_k: bool) -> Outcome:
        for o in self.outcomes:
            if o.type_in_type == type_in_type and o.enable_k == enable_k:
                return o
        raise KeyError((type_in_type, enable_k))


CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def load_manifest() -> tuple[CorpusFile, ...]:
    raw = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))
    files = []
    for entry in raw["files"]:
        outcomes = tuple(
            Outcome(o["type_in_type"], o["enable_k"], o["result"],
                    o.get("code"), o.get("line"))
            for o in entry["outcomes"]
        )
        files.append(CorpusFile(CORPUS / entry["path"], outcomes,
                                tuple(entry["outputs"])))
    return tuple(files)
