"""Exact calculator for K-classes and splitting types of jet bundles on P^N.

The package root exports the entry points behind each CLI subcommand and the
types they return; a class in K(P^N) is a ``TruncPoly`` modulo t^(N+1).
Everything else is importable from its own module.
"""

from .exact_arith import TruncPoly
from .jetcalc import prove_non_isomorphic, verify_ktheory_equality
from .p1lab import (
    LaurentMatrix,
    SplittingType,
    birkhoff_split,
    jet_transition,
    matrix_from_text,
    splitting_via_h0,
    verify_corr_p1,
)
from .report import INAPPLICABLE, REFUTED, VERIFIED, Report, Step
from .sheafdsl import ParseError, RangeError, evaluate, parse, print_expr

__all__ = [
    "parse", "evaluate", "print_expr", "ParseError", "RangeError", "TruncPoly",
    "verify_ktheory_equality", "prove_non_isomorphic",
    "verify_corr_p1", "jet_transition", "matrix_from_text", "birkhoff_split",
    "splitting_via_h0", "SplittingType", "LaurentMatrix",
    "Report", "Step", "VERIFIED", "REFUTED", "INAPPLICABLE",
]
