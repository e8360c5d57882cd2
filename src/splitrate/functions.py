"""Two-band separable quadratics, simple nonsmooth terms, and diagonal couplings.

The smooth objectives handled here are ``f(x) = sum_i w_i x_i^2 / 2`` whose
per-coordinate curvatures take two levels, sigma on one index band and beta
on the other. Paired with a nonsmooth term that is either identically zero or
the indicator of the origin, and with a two-level diagonal coupling operator,
this family is rich enough to make splitting methods contract at exactly
their worst-case linear rate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GFunction",
    "DiagQuadratic",
    "DiagOperator",
    "CompositeProblem",
    "dual_function",
]


class GFunction(enum.Enum):
    """Supported nonsmooth terms: identically zero, or the indicator of {0}."""

    ZERO = "zero"
    ZERO_INDICATOR = "zero_indicator"


@dataclass(frozen=True, eq=False)
class DiagQuadratic:
    """Separable quadratic ``x -> sum_i weights_i * x_i^2 / 2``.

    ``sigma``/``beta`` report the extreme curvatures, i.e. the largest valid
    strong-convexity constant and the smallest valid smoothness constant.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size

    @property
    def sigma(self) -> float:
        return float(self.weights.min())

    @property
    def beta(self) -> float:
        return float(self.weights.max())


@dataclass(frozen=True, eq=False)
class DiagOperator:
    """Self-adjoint diagonal coupling whose gains take two levels theta <= zeta.

    Satisfies ``theta * |x| <= |A x| <= zeta * |x|`` with both bounds attained
    on basis vectors of the corresponding gain band, and has operator norm
    zeta.
    """

    weights: np.ndarray
    theta: float
    zeta: float

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if not (0.0 < self.theta <= self.zeta) or not math.isfinite(self.zeta):
            raise ValueError(f"need 0 < theta <= zeta, got theta={self.theta!r}, zeta={self.zeta!r}")
        if not np.all((w == self.theta) | (w == self.zeta)):
            raise ValueError("every gain must equal theta or zeta")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @classmethod
    def two_level(cls, dim: int, theta: float, zeta: float, idx_theta) -> "DiagOperator":
        """Gains zeta everywhere except theta on the given 0-based indices."""
        idx = frozenset(int(i) for i in idx_theta)
        if not all(0 <= i < dim for i in idx):
            raise ValueError(f"idx_theta indices must lie in [0, {dim})")
        w = np.full(int(dim), float(zeta))
        w[sorted(idx)] = float(theta)
        return cls(w, float(theta), float(zeta))

    @property
    def dim(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class CompositeProblem:
    """Objective ``f(x) + g(A x)``; ``a = None`` means the identity coupling."""

    f: DiagQuadratic
    g: GFunction
    a: DiagOperator | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.g, GFunction):
            raise ValueError(f"g must be a GFunction, got {self.g!r}")
        if self.a is not None and self.a.dim != self.f.dim:
            raise ValueError(f"operator dimension {self.a.dim} != objective dimension {self.f.dim}")

    @property
    def dim(self) -> int:
        return self.f.dim


def dual_function(problem: CompositeProblem) -> DiagQuadratic:
    """Smooth part of the dual problem, again a separable quadratic.

    For ``min f(x) + g(A x)`` with g the indicator of the origin and A an
    explicit diagonal coupling, the dual objective has per-coordinate
    curvature ``a.weights_i**2 / f.weights_i``. Its extreme curvatures are
    bounded by theta**2/beta from below and zeta**2/sigma from above.
    """
    if problem.g is not GFunction.ZERO_INDICATOR:
        raise ValueError("dual function requires g to be the indicator of the origin")
    if problem.a is None:
        raise ValueError("dual function requires an explicit diagonal coupling operator")
    return DiagQuadratic(problem.a.weights**2 / problem.f.weights)
