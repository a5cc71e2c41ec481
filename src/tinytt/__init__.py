"""A minimal proof checker for a dependent type theory with identity types."""

from .diagnostics import Error, render_diagnostic
from .kernel import Context, FlagSet, check, check_declaration, check_is_type, infer
from .semantics import (
    Fuel, FuelExhausted, Signature, convert, eval_term, normalize, quote,
)
from .surface import lex, parse, pretty, resolve_expr
from .syntax import Span, Term, alpha_equal, shift

__version__ = "0.1.0"

__all__ = [
    "Context", "Error", "FlagSet", "Fuel", "FuelExhausted",
    "Signature", "Span", "Term", "alpha_equal", "check",
    "check_declaration", "check_is_type", "convert", "eval_term", "infer",
    "lex", "normalize", "parse", "pretty", "quote", "render_diagnostic",
    "resolve_expr", "shift", "__version__",
]
