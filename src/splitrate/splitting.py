"""Relaxed Douglas-Rachford iteration, its dual-problem form, an ADMM engine
matched to it, and contraction-trace capture."""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .functions import CompositeProblem, GFunction, dual_function
from .hilbert import Vec, zeros

__all__ = [
    "SplitParams",
    "IterateTrace",
    "DivergenceError",
    "dr_step",
    "run_dr",
    "run_dual_dr",
    "run_admm",
    "fit_rate",
    "RATIO_FLOOR",
]

#: distances below this count as "at the fixed point"; contraction ratios past
#: that point are recorded as NaN
RATIO_FLOOR = 1e-14

#: a run is declared divergent once its distance to the fixed point exceeds
#: this multiple of the starting distance
DIVERGENCE_FACTOR = 10.0


class DivergenceError(RuntimeError):
    """Iterates moved away from the fixed point instead of contracting.

    Carries the partial trace gathered before the guard tripped.
    """

    def __init__(self, message: str, trace: "IterateTrace | None" = None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SplitParams:
    """Relaxation ``alpha`` and proximal step size ``gamma``.

    Relaxations above 1 are accepted (they stay contractive up to an
    instance-dependent limit, see :func:`splitrate.rates.alpha_upper_bound`)
    but get a warning since that limit cannot be checked here.
    """

    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if self.alpha > 1.0:
            warnings.warn(
                f"alpha = {self.alpha} is above 1; whether the iteration still contracts "
                "depends on the instance (see rates.alpha_upper_bound)",
                stacklevel=2,
            )


@dataclass
class IterateTrace:
    """Iterate history with distances to the fixed point and per-step ratios.

    The fixed point is the origin for every engine. ``step_ratios[k]`` is
    ``distances[k+1] / distances[k]``, or NaN once ``distances[k]`` drops
    below :data:`RATIO_FLOOR`. For the ADMM engine the iterates are the scaled
    dual sequence and ``final_x`` holds the last primal iterate; it is None
    for the other engines.
    """

    iterates: list[Vec]
    fixed_point: Vec
    distances: np.ndarray
    step_ratios: np.ndarray
    converged: bool
    final_x: Vec | None = None

    @property
    def n_steps(self) -> int:
        return len(self.iterates) - 1


def _norm(z: np.ndarray) -> float:
    return math.sqrt(float(np.dot(z, z)))


def _check_dim(name: str, v: Vec, dim: int) -> None:
    if v.dim != dim:
        raise ValueError(f"{name} dimension {v.dim} != problem dimension {dim}")


def _iterate(
    step: Callable[[tuple], tuple],
    state: tuple,
    start: Vec,
    max_iter: int,
    tol: float,
    params: str,
    final_x: Callable[[tuple], np.ndarray] | None = None,
) -> IterateTrace:
    """Run ``step`` from ``state`` and build the trace: the loop of every engine.

    ``state`` is a tuple of float arrays whose recorded vector is ``start``;
    ``step(state)`` returns ``(next_state, recorded, step_norm)``. Stopping,
    the fixed-point check and the divergence guard are as described for
    :func:`run_dr`. ``final_x(state)``, if given, becomes the trace's
    ``final_x``; ``params`` describes the run in the divergence message. Each
    kept iterate becomes a :class:`Vec` once, when it is appended.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    iterates = [start]
    dists = [_norm(start.coeffs)]
    converged = diverged = False
    for k in range(max_iter):
        next_state, recorded, step_norm = step(state)
        if k == 0 and all(map(np.array_equal, next_state, state)):
            state, converged = next_state, True
            break
        state = next_state
        iterates.append(Vec(recorded))
        dists.append(_norm(recorded))
        if dists[0] > 0.0 and dists[-1] > DIVERGENCE_FACTOR * dists[0]:
            diverged = True
            break
        if step_norm <= tol:
            converged = True
            break
    distances = np.array(dists)
    ratios = np.full(distances.size - 1, np.nan)
    measured = distances[:-1] >= RATIO_FLOOR
    ratios[measured] = distances[1:][measured] / distances[:-1][measured]
    last_x = None if final_x is None else Vec(final_x(state))
    trace = IterateTrace(iterates, zeros(start.dim), distances, ratios, converged, last_x)
    if diverged:
        raise DivergenceError(
            f"diverged after {trace.n_steps} steps: distance grew past {DIVERGENCE_FACTOR:g}x "
            f"its starting value ({params})",
            trace,
        )
    return trace


def _dr_map(problem: CompositeProblem, params: SplitParams) -> Callable[[np.ndarray], np.ndarray]:
    """One relaxed splitting step on plain arrays.

    Both reflected proximal maps are diagonal: ``R_f`` scales coordinate i by
    ``(1 - gamma*w_i) / (1 + gamma*w_i)`` and ``R_g`` is the identity or a
    negation. So ``R_g(R_f(z))`` is one per-coordinate reflection factor,
    computed here once, and the step is ``(1 - alpha) z + alpha * refl * z``.
    """
    if problem.a is not None:
        raise ValueError("dr_step requires the identity coupling (problem.a must be None)")
    gw = params.gamma * problem.f.weights
    refl = (1.0 - gw) / (1.0 + gw)
    if problem.g is GFunction.ZERO_INDICATOR:
        refl = -refl
    elif problem.g is not GFunction.ZERO:
        raise ValueError(f"unsupported nonsmooth term: {problem.g!r}")
    alpha = params.alpha
    return lambda z: z * (1.0 - alpha) + refl * z * alpha


def dr_step(problem: CompositeProblem, params: SplitParams, z: Vec) -> Vec:
    """One relaxed splitting step ``(1 - alpha) z + alpha R_g(R_f(z))``.

    Requires the identity coupling (``problem.a is None``); problems with an
    explicit coupling are handled on the dual side by :func:`run_dual_dr`.
    """
    step = _dr_map(problem, params)
    _check_dim("z", z, problem.dim)
    return Vec(step(z.coeffs))


def run_dr(
    problem: CompositeProblem,
    params: SplitParams,
    z0: Vec,
    max_iter: int = 200,
    tol: float = 1e-13,
) -> IterateTrace:
    """Iterate :func:`dr_step` from ``z0`` and record the contraction trace.

    Stops when the step norm ``|z_{k+1} - z_k|`` drops to ``tol`` or after
    ``max_iter`` steps. If the very first step leaves ``z0`` exactly
    unchanged the trace has length 1 (already at a fixed point). Distances
    are measured from the origin, which is exact for every problem this
    package can represent: the smooth part is minimized at 0 and both
    supported nonsmooth terms vanish there.

    Raises
    ------
    DivergenceError
        When the distance to the fixed point exceeds 10x its starting value,
        which is how an infeasible relaxation fails.
    """
    dr = _dr_map(problem, params)
    _check_dim("z0", z0, problem.dim)

    def step(state):
        (z,) = state
        z_next = dr(z)
        return (z_next,), z_next, _norm(z_next - z)

    described = f"alpha={params.alpha:g}, gamma={params.gamma:g}"
    return _iterate(step, (z0.coeffs,), z0, max_iter, tol, described)


def run_dual_dr(
    problem: CompositeProblem,
    params: SplitParams,
    mu0: Vec,
    max_iter: int = 200,
    tol: float = 1e-13,
) -> IterateTrace:
    """Run the splitting iteration on the dual of ``min f(x) + g(A x)``.

    Needs ``g`` equal to the indicator of the origin and an explicit diagonal
    coupling. The dual objective is the separable quadratic from
    :func:`splitrate.functions.dual_function` and the conjugate of the
    indicator vanishes, so the dual problem is again in the identity-coupling
    form handled by :func:`run_dr`.
    """
    if problem.g is not GFunction.ZERO_INDICATOR or problem.a is None:
        raise ValueError(
            "dual iteration needs g = indicator of the origin and an explicit diagonal coupling"
        )
    dual_problem = CompositeProblem(f=dual_function(problem), g=GFunction.ZERO, a=None)
    return run_dr(dual_problem, params, mu0, max_iter=max_iter, tol=tol)


def run_admm(
    problem: CompositeProblem,
    rho: float,
    alpha: float,
    x0: Vec | None = None,
    z0: Vec | None = None,
    u0: Vec | None = None,
    max_iter: int = 200,
    tol: float = 1e-13,
) -> IterateTrace:
    """Scaled-form alternating updates for ``min f(x) + g(w)  s.t.  A x = w``.

    Per iteration, with penalty ``rho`` and over-relaxation ``2 * alpha``::

        x  <- argmin_x f(x) + rho/2 |A x - w + u|^2        (closed form,
                                                            coordinate-wise)
        v  <- 2*alpha * A x + (1 - 2*alpha) * w
        w  <- prox of g at (v + u), i.e. 0 for the origin indicator
        u  <- u + v - w

    ``alpha`` means the same relaxation as in :func:`run_dual_dr`: with the
    updates over-relaxed by ``2 * alpha`` the scaled dual sequence
    ``mu_k = rho * u_k`` contracts with exactly the factor of the dual
    splitting iterate run at step size ``gamma = rho`` and the same alpha
    (``alpha = 1/2`` recovers the classic unrelaxed method). The trace records
    ``mu_k``; the final primal iterate is kept on ``final_x``. The step norm
    compared with ``tol`` is ``rho * |u_{k+1} - u_k|``.

    ``z0`` is the starting value of the second block variable ``w``. ``x0``
    only seeds the recorded primal state; the first x-update overwrites it.
    """
    if problem.g is not GFunction.ZERO_INDICATOR or problem.a is None:
        raise ValueError(
            "run_admm needs g = indicator of the origin and an explicit diagonal coupling"
        )
    if not (rho > 0.0 and math.isfinite(rho)):
        raise ValueError(f"rho must be positive and finite, got {rho!r}")
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    dim = problem.dim
    for name, v in (("x0", x0), ("z0", z0), ("u0", u0)):
        if v is not None:
            _check_dim(name, v, dim)
    nu = problem.a.weights
    scale = rho * nu
    denom = problem.f.weights + rho * nu**2
    relax = 2.0 * alpha
    w_zero = np.zeros(dim)  # prox of the origin indicator

    def step(state):
        x, w, u = state
        x_new = scale * (w - u) / denom
        v = relax * (nu * x_new) + (1.0 - relax) * w
        u_new = u + v - w_zero
        return (x_new, w_zero, u_new), rho * u_new, rho * float(np.linalg.norm(u_new - u))

    x = np.zeros(dim) if x0 is None else x0.coeffs
    w = np.zeros(dim) if z0 is None else z0.coeffs
    u = np.zeros(dim) if u0 is None else u0.coeffs
    described = f"alpha={alpha:g}, rho={rho:g}"
    return _iterate(step, (x, w, u), Vec(rho * u), max_iter, tol, described, final_x=lambda s: s[0])


def fit_rate(trace: IterateTrace) -> float:
    """Asymptotic contraction factor: geometric mean of the last
    ``ceil(n/2)`` valid step ratios. Needs at least 5 valid ratios."""
    valid = trace.step_ratios[np.isfinite(trace.step_ratios)]
    if valid.size < 5:
        raise ValueError(f"trace too short: {valid.size} valid step ratios, need at least 5")
    tail = valid[-math.ceil(valid.size / 2) :]
    if np.any(tail == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(tail))))
