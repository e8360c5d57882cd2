"""Operator-splitting solvers with exact linear-rate verification.

Relaxed Douglas-Rachford iteration and ADMM for composite problems whose
smooth part is a two-band separable quadratic, together with the closed-form
instances, contraction-rate formulas, and parameter-region classifier that
make the linear convergence bounds checkable to machine precision.
"""

from .functions import CompositeProblem, DiagOperator, DiagQuadratic, GFunction, dual_function
from .hilbert import Vec, basis_rows, random_basis_map
from .prox import prox_oracle
from .rates import (
    RateConstants,
    TightnessCase,
    alpha_upper_bound,
    classify_tightness,
    dual_rate_constants,
    optimal_params,
    psi,
    theoretical_rate,
)
from .splitting import (
    DivergenceError,
    IterateTrace,
    RowRuns,
    SplitParams,
    fit_rate,
    fit_rates,
    run_admm,
    run_dr,
    run_rows,
)
from .worstcase import (
    default_dual_instance,
    default_primal_instance,
    make_dual_instance,
    make_primal_instance,
    predict_iterate,
    worst_coordinates,
)

__version__ = "0.1.0"

__all__ = [
    "CompositeProblem",
    "DiagOperator",
    "DiagQuadratic",
    "DivergenceError",
    "GFunction",
    "IterateTrace",
    "RateConstants",
    "RowRuns",
    "SplitParams",
    "TightnessCase",
    "Vec",
    "alpha_upper_bound",
    "basis_rows",
    "classify_tightness",
    "default_dual_instance",
    "default_primal_instance",
    "dual_function",
    "dual_rate_constants",
    "fit_rate",
    "fit_rates",
    "make_dual_instance",
    "make_primal_instance",
    "optimal_params",
    "predict_iterate",
    "prox_oracle",
    "psi",
    "random_basis_map",
    "run_admm",
    "run_dr",
    "run_rows",
    "theoretical_rate",
    "worst_coordinates",
]
