"""Structured diagnostics and their fixed rendering format."""

from __future__ import annotations

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


class Error(Exception):
    """One reported failure, which is its own diagnostic; severity is always
    error in this version. The caller that renders it fills in a missing span."""

    def __init__(self, code: str, message: str, span: Span | None,
                 notes: tuple[str, ...] = ()):
        super().__init__(message)
        self.code, self.message, self.span, self.notes = code, message, span, notes


def render_diagnostic(d: Error, file: str) -> str:
    """Render as ``FILE:LINE:COL: error[CODE]: MESSAGE`` plus indented notes.

    A span is a position in the text; `file` names the text it is in. The
    span must be present by the time a diagnostic is rendered.
    """
    assert d.span is not None, "diagnostic rendered without a span"
    head = f"{file}:{d.span.line}:{d.span.col}: error[{d.code}]: {d.message}"
    if not d.notes:
        return head
    return "\n".join([head, *(f"  {note}" for note in d.notes)])


def fail(code: str, message: str, span: Span | None, notes: tuple[str, ...] = ()):
    raise Error(code, message, span, notes)
