"""Operator-splitting solvers with exact linear-rate verification.

Relaxed Douglas-Rachford iteration and ADMM for composite problems whose
smooth part is a two-band separable quadratic, together with the closed-form
instances, contraction-rate formulas, and parameter-region classifier that
make the linear convergence bounds checkable to machine precision.
"""

from .functions import (
    CompositeProblem,
    DiagOperator,
    DiagQuadratic,
    GFunction,
    SpectrumSpec,
    apply_operator,
    check_smoothness,
    check_strong_convexity,
    dual_function,
    eval_f,
    grad_f,
)
from .hilbert import (
    BasisMap,
    Vec,
    basis_vector,
    change_basis,
    inner,
    norm,
    random_basis_map,
    zeros,
)
from .prox import prox_diag, prox_g, prox_oracle, refl_prox_diag, refl_prox_g
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
    dr_step,
    fit_rate,
    fit_rates,
    run_admm,
    run_dr,
    run_dual_dr,
    run_rows,
)
from .worstcase import (
    default_dual_instance,
    default_primal_instance,
    make_dual_instance,
    make_primal_instance,
    predict_iterate,
    step_multiplier,
    worst_direction,
    worst_start_vector,
)

__version__ = "0.1.0"

__all__ = [
    "BasisMap",
    "CompositeProblem",
    "DiagOperator",
    "DiagQuadratic",
    "DivergenceError",
    "GFunction",
    "IterateTrace",
    "RateConstants",
    "RowRuns",
    "SpectrumSpec",
    "SplitParams",
    "TightnessCase",
    "Vec",
    "alpha_upper_bound",
    "apply_operator",
    "basis_vector",
    "change_basis",
    "check_smoothness",
    "check_strong_convexity",
    "classify_tightness",
    "default_dual_instance",
    "default_primal_instance",
    "dr_step",
    "dual_function",
    "dual_rate_constants",
    "eval_f",
    "fit_rate",
    "fit_rates",
    "grad_f",
    "inner",
    "make_dual_instance",
    "make_primal_instance",
    "norm",
    "optimal_params",
    "predict_iterate",
    "prox_diag",
    "prox_g",
    "prox_oracle",
    "psi",
    "random_basis_map",
    "refl_prox_diag",
    "refl_prox_g",
    "run_admm",
    "run_dr",
    "run_dual_dr",
    "run_rows",
    "step_multiplier",
    "theoretical_rate",
    "worst_direction",
    "worst_start_vector",
    "zeros",
]
