"""Generators for the instances whose contraction exactly attains the rate
bound, the closed-form iterate predictor used as the exactness oracle, and the
slowest-contracting start, for one point or many."""

from __future__ import annotations

import math

import numpy as np

from .functions import CompositeProblem, DiagOperator, DiagQuadratic, GFunction
from .rates import _check_positive, _positive_rows, _psi, psi

__all__ = [
    "make_primal_instance",
    "make_dual_instance",
    "predict_iterate",
    "worst_coordinates",
    "default_primal_instance",
    "default_dual_instance",
    "PAIRINGS",
    "DEFAULT_DIM",
    "DEFAULT_IDX_SIGMA",
    "DEFAULT_SIGMA",
    "DEFAULT_BETA",
    "DEFAULT_THETA",
    "DEFAULT_ZETA",
]

# default instance: small, well conditioned, both curvature bands populated
DEFAULT_DIM = 8
DEFAULT_IDX_SIGMA = frozenset(range(4))
DEFAULT_SIGMA = 1.0
DEFAULT_BETA = 10.0
DEFAULT_THETA = 1.0
DEFAULT_ZETA = 3.0

PAIRINGS = ("aligned", "crossed")


def _two_band(sigma: float, beta: float, dim: int, idx_sigma) -> tuple:
    """``(weights, idx_beta)``: the curvature ``sigma`` on the 0-based
    coordinates ``idx_sigma`` and ``beta`` on the others, which form
    ``idx_beta``. Both bands must be non-empty."""
    dim, sigma, beta = int(dim), float(sigma), float(beta)
    if dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if not (0.0 < sigma <= beta) or not math.isfinite(beta):
        raise ValueError(f"need 0 < sigma <= beta, got sigma={sigma!r}, beta={beta!r}")
    idx_s = frozenset(int(i) for i in idx_sigma)
    if not idx_s:
        raise ValueError("idx_sigma must be non-empty")
    if not all(0 <= i < dim for i in idx_s):
        raise ValueError(f"idx_sigma indices must lie in [0, {dim})")
    idx_beta = frozenset(range(dim)) - idx_s
    if not idx_beta:
        raise ValueError("idx_sigma must be a proper subset: the beta band must be non-empty")
    weights = np.full(dim, beta)
    weights[sorted(idx_s)] = sigma
    return weights, idx_beta


def make_primal_instance(sigma: float, beta: float, dim: int, idx_sigma) -> CompositeProblem:
    """Two-band quadratic with zero nonsmooth term and identity coupling.

    Both index bands must be non-empty; sigma = beta is allowed (isotropic)
    as long as the partition still has two sides.
    """
    weights, _ = _two_band(sigma, beta, dim, idx_sigma)
    return CompositeProblem(f=DiagQuadratic(weights), g=GFunction.ZERO, a=None)


def make_dual_instance(
    sigma: float,
    beta: float,
    theta: float,
    zeta: float,
    dim: int,
    idx_sigma,
    pairing: str = "aligned",
) -> CompositeProblem:
    """Two-band quadratic with the origin-indicator nonsmooth term and a
    two-level diagonal coupling (theta < zeta strictly).

    ``pairing`` fixes which curvature band carries which coupling gain:

    - "aligned": theta on the sigma band and zeta on the beta band, giving
      dual curvatures theta**2/sigma and zeta**2/beta;
    - "crossed": gains swapped, giving dual curvatures zeta**2/sigma and
      theta**2/beta, which are exactly the extreme dual envelope constants
      beta_hat and sigma_hat.

    Only the crossed pairing makes the dual contraction bound attained; the
    aligned dual curvatures sit strictly inside [sigma_hat, beta_hat]
    whenever sigma < beta and theta < zeta.
    """
    if not float(theta) < float(zeta):
        raise ValueError(f"need theta < zeta strictly, got theta={theta!r}, zeta={zeta!r}")
    if pairing not in PAIRINGS:
        raise ValueError(f"pairing must be one of {PAIRINGS}, got {pairing!r}")
    idx_sigma = frozenset(idx_sigma)
    weights, idx_beta = _two_band(sigma, beta, dim, idx_sigma)
    idx_theta = idx_sigma if pairing == "aligned" else idx_beta
    op = DiagOperator.two_level(weights.size, float(theta), float(zeta), idx_theta)
    return CompositeProblem(f=DiagQuadratic(weights), g=GFunction.ZERO_INDICATOR, a=op)


def _relaxed_factor(alpha, reflection):
    """``1 - alpha + alpha * reflection``: the factor of one relaxed step on a
    coordinate whose reflected proximal maps scale it by ``reflection``; for
    floats or arrays."""
    return 1.0 - alpha + alpha * reflection


def predict_iterate(lambda_i: float, alpha: float, gamma: float, k: int) -> float:
    """Coefficient of the k-th iterate started from a unit vector on a
    coordinate with curvature ``lambda_i``: the k-th power of the factor of
    one step, ``1 - alpha + alpha * (1 - gamma*lambda) / (1 + gamma*lambda)``."""
    if k < 0:
        raise ValueError("k must be non-negative")
    _check_positive(gamma=gamma)
    return _relaxed_factor(alpha, psi(gamma * lambda_i)) ** k


def _band_coordinates(quad: DiagQuadratic) -> tuple[int, int]:
    """The first coordinates of ``quad`` with curvature ``quad.sigma`` and
    with curvature ``quad.beta``."""
    weights = quad.weights
    return tuple(int(np.argmin(np.abs(weights - target))) for target in (quad.sigma, quad.beta))


def worst_coordinates(quad: DiagQuadratic, alpha, gamma):
    """The coordinate of the slowest-contracting unit start of ``quad`` at
    each point ``(alpha, gamma)``: the first coordinate of the curvature band
    whose step factor is larger in magnitude. Ties (e.g. at gamma =
    1/sqrt(sigma*beta), where the two factors agree up to rounding) go to the
    sigma band. Many points give one coordinate each, for
    :func:`splitrate.hilbert.basis_rows`."""
    alpha, gamma = _positive_rows(alpha=alpha, gamma=gamma)
    c_sigma = _relaxed_factor(alpha, _psi(gamma * quad.sigma))
    c_beta = _relaxed_factor(alpha, _psi(gamma * quad.beta))
    on_sigma, on_beta = _band_coordinates(quad)
    return np.where(np.abs(c_sigma) >= np.abs(c_beta) * (1.0 - 1e-12), on_sigma, on_beta)[()]


def default_primal_instance() -> CompositeProblem:
    """The default two-band instance: dim 8, sigma 1 and beta 10 on four
    coordinates each."""
    return make_primal_instance(DEFAULT_SIGMA, DEFAULT_BETA, DEFAULT_DIM, DEFAULT_IDX_SIGMA)


def default_dual_instance(pairing: str = "aligned") -> CompositeProblem:
    """The default coupled instance: the default spectrum with gains theta 1
    and zeta 3."""
    return make_dual_instance(
        DEFAULT_SIGMA, DEFAULT_BETA, DEFAULT_THETA, DEFAULT_ZETA, DEFAULT_DIM, DEFAULT_IDX_SIGMA, pairing
    )
