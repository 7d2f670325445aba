"""Brute-force semantics: the ground truth every elimination result is
checked against.  Never consults the elimination engines."""

from .fo_oracle import (
    Counterexample,
    FiniteInterpretation,
    Valuation,
    counterexample,
    equiv_fo_finite,
    eval_fo,
    eval_prop,
    eval_so,
)
from .kernel import BACKEND
from .prop_oracle import (
    MAX_TT_VARS,
    equiv_prop,
    implies_prop,
    taut_prop,
    truth_table,
)

__all__ = [
    "BACKEND",
    "Counterexample",
    "FiniteInterpretation",
    "MAX_TT_VARS",
    "Valuation",
    "counterexample",
    "equiv_fo_finite",
    "equiv_prop",
    "eval_fo",
    "eval_prop",
    "eval_so",
    "implies_prop",
    "taut_prop",
    "truth_table",
]
