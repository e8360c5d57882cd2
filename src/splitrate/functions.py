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

from .hilbert import Vec

__all__ = [
    "GFunction",
    "SpectrumSpec",
    "DiagQuadratic",
    "DiagOperator",
    "CompositeProblem",
    "eval_f",
    "grad_f",
    "check_strong_convexity",
    "check_smoothness",
    "apply_operator",
    "dual_function",
]


class GFunction(enum.Enum):
    """Supported nonsmooth terms: identically zero, or the indicator of {0}."""

    ZERO = "zero"
    ZERO_INDICATOR = "zero_indicator"


@dataclass(frozen=True)
class SpectrumSpec:
    """Two-level curvature layout over 0-based coordinates.

    ``idx_sigma`` carries the sigma level and its complement ``idx_beta``
    carries the beta level; both bands must be non-empty.
    """

    dim: int
    sigma: float
    beta: float
    idx_sigma: frozenset
    idx_beta: frozenset | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if not (0.0 < self.sigma <= self.beta) or not math.isfinite(self.beta):
            raise ValueError(f"need 0 < sigma <= beta, got sigma={self.sigma!r}, beta={self.beta!r}")
        idx_s = frozenset(int(i) for i in self.idx_sigma)
        if not idx_s:
            raise ValueError("idx_sigma must be non-empty")
        if not all(0 <= i < self.dim for i in idx_s):
            raise ValueError(f"idx_sigma indices must lie in [0, {self.dim})")
        complement = frozenset(range(self.dim)) - idx_s
        if not complement:
            raise ValueError("idx_sigma must be a proper subset: the beta band must be non-empty")
        if self.idx_beta is not None and frozenset(int(i) for i in self.idx_beta) != complement:
            raise ValueError("idx_beta must be exactly the complement of idx_sigma")
        object.__setattr__(self, "idx_sigma", idx_s)
        object.__setattr__(self, "idx_beta", complement)

    @property
    def weights(self) -> np.ndarray:
        w = np.full(self.dim, float(self.beta))
        w[sorted(self.idx_sigma)] = float(self.sigma)
        return w


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

    @classmethod
    def from_spectrum(cls, spec: SpectrumSpec) -> "DiagQuadratic":
        return cls(spec.weights)

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


def _check_dim(dim: int, x: Vec) -> None:
    if dim != x.dim:
        raise ValueError(f"dimension mismatch: {dim} vs {x.dim}")


def eval_f(f: DiagQuadratic, x: Vec) -> float:
    """Value of the separable quadratic at x."""
    _check_dim(f.dim, x)
    return 0.5 * float(np.dot(f.weights, x.coeffs**2))


def grad_f(f: DiagQuadratic, x: Vec) -> Vec:
    """Gradient: coordinate i is weights_i * x_i."""
    _check_dim(f.dim, x)
    return Vec(f.weights * x.coeffs)


def _sampled_envelope_gap(f: DiagQuadratic, constant: float, n_samples: int, seed: int) -> np.ndarray:
    """For seeded random pairs (x, y), the values of
    f(x) - f(y) - <grad f(y), x - y> - constant/2 * |x - y|^2."""
    if n_samples < 1:
        raise ValueError("need at least one sample pair")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-10.0, 10.0, size=(n_samples, f.dim))
    ys = rng.uniform(-10.0, 10.0, size=(n_samples, f.dim))
    w = f.weights
    fx = 0.5 * (xs**2) @ w
    fy = 0.5 * (ys**2) @ w
    lin = np.einsum("ij,ij->i", ys * w, xs - ys)
    quad = 0.5 * constant * ((xs - ys) ** 2).sum(axis=1)
    return fx - fy - lin - quad


def check_strong_convexity(
    f: DiagQuadratic, sigma: float, n_samples: int = 1000, seed: int = 0, slack: float = 1e-10
) -> bool:
    """Sampled test of the lower quadratic envelope with modulus sigma.

    True when ``f(x) >= f(y) + <grad f(y), x-y> + sigma/2 |x-y|^2`` holds up
    to the additive slack on every seeded sample pair.
    """
    return bool(np.all(_sampled_envelope_gap(f, sigma, n_samples, seed) >= -slack))


def check_smoothness(
    f: DiagQuadratic, beta: float, n_samples: int = 1000, seed: int = 0, slack: float = 1e-10
) -> bool:
    """Sampled test of the upper quadratic envelope with modulus beta (the
    reversed inequality of :func:`check_strong_convexity`)."""
    return bool(np.all(_sampled_envelope_gap(f, beta, n_samples, seed) <= slack))


def apply_operator(a: DiagOperator, x: Vec) -> Vec:
    """Apply the diagonal coupling: coordinate i is weights_i * x_i."""
    _check_dim(a.dim, x)
    return Vec(a.weights * x.coeffs)


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
