"""Structured diagnostics and their fixed rendering format."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Span

# Stable error codes. E001/E002 are surface errors, E0xx kernel errors,
# E030 is fuel exhaustion anywhere, E031 input nested deeper than the
# interpreter's stack allows.
SYNTAX = "E001"
UNBOUND = "E002"
DUPLICATE = "E003"
MISMATCH = "E010"
CANNOT_INFER = "E011"
NOT_FUNCTION = "E012"
NOT_PAIR = "E013"
REFL_ENDPOINTS = "E014"
UNIVERSE = "E020"
K_DISABLED = "E021"
FUEL = "E030"
DEPTH = "E031"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One reported failure; severity is always error in this version."""

    code: str
    message: str
    span: Span | None
    notes: tuple[str, ...] = ()


def render_diagnostic(d: Diagnostic) -> str:
    """Render as ``FILE:LINE:COL: error[CODE]: MESSAGE`` plus indented notes.

    The span must be present by the time a diagnostic is rendered; callers
    fill in a fallback span for errors raised on synthesized terms.
    """
    assert d.span is not None, "diagnostic rendered without a span"
    head = f"{d.span.file}:{d.span.line}:{d.span.col}: error[{d.code}]: {d.message}"
    if not d.notes:
        return head
    return "\n".join([head, *(f"  {note}" for note in d.notes)])


class Error(Exception):
    """A checking failure carrying one structured diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


def fail(code: str, message: str, span: Span | None, notes: tuple[str, ...] = ()):
    raise Error(Diagnostic(code, message, span, notes))
