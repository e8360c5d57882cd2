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
    coord_objective: Callable[[int, float], float],
    gamma: float,
    y: np.ndarray,
    halfwidth: float = 10.0,
    tol: float = 1e-12,
) -> np.ndarray:
    """Proximal map computed by per-coordinate scalar search.

    ``coord_objective(i, t)`` is coordinate i's share of the function; the
    oracle minimizes ``coord_objective(i, t) + (t - y_i)^2 / (2 gamma)`` over
    ``[y_i - halfwidth, y_i + halfwidth]`` by golden-section search, then
    sharpens the bracket to ``tol`` by bisecting the sign of a
    central-difference slope (plain golden section stalls on the float
    plateau around the minimum once the objective's constant part dominates).
    The search never sees the closed-form shrinkage factors, so it is an
    independent cross-check for the engines' proximal step.

    Raises ValueError if the objective is not finite at the bracket ends.
    """
    _check_positive(gamma=gamma)
    out = np.empty(y.size)
    for i, b in enumerate(y):

        def h(t: float, _i: int = i, _b: float = b) -> float:
            return coord_objective(_i, t) + (t - _b) ** 2 / (2.0 * gamma)

        lo, hi = b - halfwidth, b + halfwidth
        if not (math.isfinite(h(lo)) and math.isfinite(h(hi))):
            raise ValueError(f"objective not finite on the search bracket for coordinate {i}")
        lo, hi = _golden_shrink(h, lo, hi, width=1e-4)
        out[i] = _slope_bisect(h, lo - 1e-3, hi + 1e-3, tol=tol)
    return out


def _golden_shrink(h, lo: float, hi: float, width: float) -> tuple[float, float]:
    """Golden-section interval reduction for a unimodal scalar function."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    h1, h2 = h(x1), h(x2)
    while hi - lo > width:
        if h1 <= h2:
            hi, x2, h2 = x2, x1, h1
            x1 = hi - _GOLDEN * (hi - lo)
            h1 = h(x1)
        else:
            lo, x1, h1 = x1, x2, h2
            x2 = lo + _GOLDEN * (hi - lo)
            h2 = h(x2)
    return lo, hi


def _slope_bisect(h, lo: float, hi: float, tol: float, dt: float = 1e-4) -> float:
    """Bisect on the sign of a central-difference slope of a convex function.

    The offset ``dt`` is kept fairly wide: the slope noise floor is
    eps*|h|/dt, and a narrow offset lets it swamp the slope signal near the
    minimum when the objective's constant part is large. Central differences
    are exact for quadratics, so widening costs nothing on this package's
    function classes.
    """

    def slope(t: float) -> float:
        return (h(t + dt) - h(t - dt)) / (2.0 * dt)

    s_lo, s_hi = slope(lo), slope(hi)
    if s_lo > 0.0 or s_hi < 0.0:
        # slope does not straddle zero: the minimum sits at (or within slope
        # noise of) a bracket end
        return lo if s_lo > 0.0 else hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slope(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
