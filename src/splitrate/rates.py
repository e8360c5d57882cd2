"""Contraction-rate formulas, feasible relaxation intervals, optimal
parameters, dual constants, and the classifier for the parameter regions
where the bound is attained exactly.

The bound, the relaxation limit and the classifier take one point or many:
floats, or equal-shape arrays of points, worked on elementwise as numpy
functions are. One point gives a numpy float or a :class:`TightnessCase`,
many give an array."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "psi",
    "theoretical_rate",
    "alpha_upper_bound",
    "optimal_params",
    "RateConstants",
    "dual_rate_constants",
    "TightnessCase",
    "TIGHT_CASES",
    "classify_tightness",
]


def psi(x: float) -> float:
    """(1 - x) / (1 + x); strictly decreasing on x > -1, with
    psi(x) <= -psi(y) exactly when x * y >= 1 (for x > 0)."""
    if not x > -1.0:
        raise ValueError(f"psi requires x > -1, got {x!r}")
    return _psi(x)


def _psi(x):
    """:func:`psi` without its domain check, for a float or an array."""
    return (1.0 - x) / (1.0 + x)


def _check_positive(**values: float) -> None:
    for name, v in values.items():
        if not (v > 0.0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")


def _positive_rows(**values) -> list[np.ndarray]:
    """Each value as a float array, checked positive and finite."""
    arrays = []
    for name, v in values.items():
        a = np.asarray(v, dtype=float)
        if not np.all((a > 0.0) & np.isfinite(a)):
            raise ValueError(f"{name} must be positive and finite")
        arrays.append(a)
    return arrays


def _check_spectrum(sigma: float, beta: float) -> None:
    _check_positive(sigma=sigma)
    if not (sigma <= beta and math.isfinite(beta)):
        raise ValueError(f"need 0 < sigma <= beta, got sigma={sigma!r}, beta={beta!r}")


def _max_terms(gamma: np.ndarray, sigma: float, beta: float) -> np.ndarray:
    """max((1 - g*sigma)/(1 + g*sigma), (g*beta - 1)/(g*beta + 1)) per step
    size; in [0, 1). Ties keep the first term, as Python's ``max`` does
    (``np.maximum`` need not keep the same signed zero). Raises ValueError
    where ``g*beta`` overflows, which would make its term NaN."""
    with np.errstate(over="ignore"):
        scaled = gamma * beta
    if not np.isfinite(scaled).all():
        raise ValueError(f"gamma * beta must be finite, got an overflow at beta={beta!r}")
    first, second = _psi(gamma * sigma), -_psi(scaled)
    return np.where(second > first, second, first)


def theoretical_rate(alpha, gamma, sigma: float, beta: float):
    """Per-step contraction bound
    ``|1 - alpha| + alpha * max((1 - g*s)/(1 + g*s), (g*b - 1)/(g*b + 1))``
    at each point ``(alpha, gamma)``.

    Below 1 exactly when alpha lies inside the feasible interval
    ``(0, alpha_upper_bound(gamma, sigma, beta))``.
    """
    alpha, gamma = _positive_rows(alpha=alpha, gamma=gamma)
    _check_spectrum(sigma, beta)
    return (np.abs(1.0 - alpha) + alpha * _max_terms(gamma, sigma, beta))[()]


def alpha_upper_bound(gamma, sigma: float, beta: float):
    """Supremum of relaxations with contraction bound below 1, per step
    size; always in (1, 2]."""
    (gamma,) = _positive_rows(gamma=gamma)
    _check_spectrum(sigma, beta)
    return (2.0 / (1.0 + _max_terms(gamma, sigma, beta)))[()]


def optimal_params(sigma: float, beta: float) -> tuple[float, float, float]:
    """Bound-minimizing (alpha, gamma, rate):
    alpha = 1, gamma = 1/sqrt(sigma*beta), rate = (sqrt(beta/sigma) - 1)/(sqrt(beta/sigma) + 1)."""
    _check_spectrum(sigma, beta)
    ratio = math.sqrt(beta / sigma)
    return 1.0, 1.0 / math.sqrt(beta * sigma), (ratio - 1.0) / (ratio + 1.0)


@dataclass(frozen=True)
class RateConstants:
    """Primal constants plus the induced dual envelope constants.

    The dual objective is ``theta**2 / beta`` strongly convex and
    ``zeta**2 / sigma`` smooth; ``kappa`` is their ratio.
    """

    sigma: float
    beta: float
    theta: float
    zeta: float

    def __post_init__(self) -> None:
        _check_spectrum(self.sigma, self.beta)
        if not (0.0 < self.theta <= self.zeta) or not math.isfinite(self.zeta):
            raise ValueError(f"need 0 < theta <= zeta, got theta={self.theta!r}, zeta={self.zeta!r}")

    @property
    def sigma_hat(self) -> float:
        return self.theta**2 / self.beta

    @property
    def beta_hat(self) -> float:
        return self.zeta**2 / self.sigma

    @property
    def kappa(self) -> float:
        return self.beta_hat / self.sigma_hat

    def optimal_dual_params(self) -> tuple[float, float, float]:
        """(alpha, gamma, rate) minimizing the dual contraction bound; the
        rate is (sqrt(kappa) - 1)/(sqrt(kappa) + 1)."""
        return optimal_params(self.sigma_hat, self.beta_hat)


def dual_rate_constants(sigma: float, beta: float, theta: float, zeta: float) -> RateConstants:
    """Bundle the primal and coupling constants and derive the dual pair."""
    return RateConstants(float(sigma), float(beta), float(theta), float(zeta))


class TightnessCase(enum.Enum):
    """Label for a parameter point: one of the regions where the bound is
    attained exactly, the feasible remainder, or infeasible.

    The paper's fourth region (gamma = 1/sqrt(sigma*beta), any feasible alpha)
    is the union of its parts in the first three: alpha = 1 is Case I,
    alpha < 1 is Case II and 1 < alpha < alpha_upper_bound is Case III.
    """

    CASE_I = "CaseI"
    CASE_II = "CaseII"
    CASE_III = "CaseIII"
    FEASIBLE_NOT_CLASSIFIED = "FeasibleNotClassified"
    INFEASIBLE = "Infeasible"


TIGHT_CASES = frozenset({TightnessCase.CASE_I, TightnessCase.CASE_II, TightnessCase.CASE_III})


#: the labels in definition order, which is the order in which
#: :func:`classify_tightness` tries their regions
_CASE_ORDER = np.array(list(TightnessCase), dtype=object)


def _isclose(a, b) -> np.ndarray:
    """``math.isclose(a, b, rel_tol=1e-12)`` elementwise, for finite a and b.
    ``np.isclose`` differs: it adds an absolute tolerance of 1e-8."""
    diff = np.abs(b - a)
    return (diff <= np.abs(1e-12 * b)) | (diff <= np.abs(1e-12 * a))


def classify_tightness(alpha, gamma, sigma: float, beta: float):
    """Label of each point ``(alpha, gamma)``: the first matching region,
    checked in order:

    I.   alpha = 1, any gamma > 0
    II.  alpha in (0, 1], gamma in (0, 1/sqrt(sigma*beta)]
    III. alpha in [1, alpha_upper_bound), gamma in [1/sqrt(sigma*beta), inf)

    Boundary equalities are matched to 1e-12 relative tolerance. Many points
    give an object array of labels.
    """
    alpha, gamma = _positive_rows(alpha=alpha, gamma=gamma)
    _check_spectrum(sigma, beta)
    gamma_star = 1.0 / math.sqrt(sigma * beta)
    at_one = _isclose(alpha, 1.0)
    at_star = _isclose(gamma, gamma_star)
    feasible = alpha < alpha_upper_bound(gamma, sigma, beta)
    regions = [
        at_one,
        (alpha < 1.0) & ((gamma <= gamma_star) | at_star),
        (1.0 < alpha) & feasible & ((gamma >= gamma_star) | at_star),
        feasible,
    ]
    return _CASE_ORDER[np.select(regions, [0, 1, 2, 3], 4)]
