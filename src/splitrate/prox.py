"""A search-based proximal oracle: the prox of a separable function by
per-coordinate scalar search, which never sees a closed form. The battery
checks one relaxed DR half-step of the engine against it (the engines' own
proximal arithmetic is the reflection factor in :mod:`splitrate.splitting`).
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .rates import _check_positive

__all__ = ["prox_oracle"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def prox_oracle(
    coord_objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    gamma,
    y: np.ndarray,
    halfwidth: float = 10.0,
    tol: float = 1e-12,
) -> np.ndarray:
    """Proximal map computed by per-coordinate scalar search, run on every
    element of ``y`` at once.

    The last axis of ``y`` runs over the coordinates; ``gamma`` is a scalar
    or an array that broadcasts against ``y``. ``coord_objective(i, t)`` is
    the share of the function of the coordinates ``i`` at the values ``t``,
    elementwise: ``i`` is ``arange(y.shape[-1])`` and ``t`` has the shape of
    ``y``. For each element the oracle minimizes ``coord_objective(i, t) +
    (t - y_i)^2 / (2 gamma)`` over ``[y_i - halfwidth, y_i + halfwidth]`` by
    golden-section search, then sharpens the bracket to ``tol`` by bisecting
    the sign of a central-difference slope (plain golden section stalls on
    the float plateau around the minimum once the objective's constant part
    dominates). Each element keeps its own bracket and stops moving once
    that bracket is narrow enough, so it follows the scalar search's steps
    exactly. The search never sees the closed-form shrinkage factors, so it
    is an independent cross-check for the engines' proximal step.

    Raises ValueError if the objective is not finite at the bracket ends.
    """
    gamma = np.asarray(gamma, dtype=float)
    # the smallest and the largest step size are bad if any is (NaN is both)
    for extreme in (gamma.min(), gamma.max()):
        _check_positive(gamma=float(extreme))
    y = np.asarray(y, dtype=float)
    index = np.arange(y.shape[-1])
    twice = 2.0 * gamma

    def h(t: np.ndarray) -> np.ndarray:
        d = t - y
        return coord_objective(index, t) + d * d / twice

    lo, hi = y - halfwidth, y + halfwidth
    bad = ~(np.isfinite(h(lo)) & np.isfinite(h(hi)))
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)[-1]
        raise ValueError(f"objective not finite on the search bracket for coordinate {i}")
    lo, hi = _golden_shrink(h, lo, hi, width=1e-4)
    return _slope_bisect(h, lo - 1e-3, hi + 1e-3, tol=tol)


def _golden_shrink(h, lo: np.ndarray, hi: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section interval reduction for unimodal functions, one bracket
    per element; a bracket no wider than ``width`` stays as it is."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    h1, h2 = h(x1), h(x2)
    active = hi - lo > width
    while active.any():
        # the lower probe is the better one: the bracket keeps [lo, x2]
        left = h1 <= h2
        lo, hi = np.where(active & ~left, x1, lo), np.where(active & left, x2, hi)
        probe = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        h_probe = h(probe)
        x1, x2, h1, h2 = (
            np.where(active, np.where(left, probe, x2), x1),
            np.where(active, np.where(left, x1, probe), x2),
            np.where(active, np.where(left, h_probe, h2), h1),
            np.where(active, np.where(left, h1, h_probe), h2),
        )
        active = hi - lo > width
    return lo, hi


def _slope_bisect(h, lo: np.ndarray, hi: np.ndarray, tol: float, dt: float = 1e-4) -> np.ndarray:
    """Bisect on the sign of a central-difference slope of convex functions,
    one bracket per element.

    The offset ``dt`` is kept fairly wide: the slope noise floor is
    eps*|h|/dt, and a narrow offset lets it swamp the slope signal near the
    minimum when the objective's constant part is large. Central differences
    are exact for quadratics, so widening costs nothing on this package's
    function classes.
    """

    def slope(t: np.ndarray) -> np.ndarray:
        return (h(t + dt) - h(t - dt)) / (2.0 * dt)

    s_lo, s_hi = slope(lo), slope(hi)
    # where the slope does not straddle zero, the minimum sits at (or within
    # slope noise of) a bracket end
    end = np.where(s_lo > 0.0, lo, hi)
    at_end = (s_lo > 0.0) | (s_hi < 0.0)
    active = ~at_end & (hi - lo > tol)
    while active.any():
        mid = 0.5 * (lo + hi)
        down = slope(mid) <= 0.0
        lo, hi = np.where(active & down, mid, lo), np.where(active & ~down, mid, hi)
        active &= hi - lo > tol
    return np.where(at_end, end, 0.5 * (lo + hi))
