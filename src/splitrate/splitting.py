"""Relaxed Douglas-Rachford iteration, its dual-problem form, an ADMM engine
matched to it, and contraction-trace capture, for one run or for a batch of
independent rows."""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .functions import CompositeProblem, GFunction, dual_function
from .hilbert import Vec, zeros

__all__ = [
    "SplitParams",
    "IterateTrace",
    "DivergenceError",
    "RowRuns",
    "MODES",
    "dr_step",
    "run_dr",
    "run_dual_dr",
    "run_admm",
    "run_rows",
    "fit_rate",
    "fit_rates",
    "RATIO_FLOOR",
]

#: distances below this count as "at the fixed point"; contraction ratios past
#: that point are recorded as NaN
RATIO_FLOOR = 1e-14

#: a run is declared divergent once its distance to the fixed point exceeds
#: this multiple of the starting distance
DIVERGENCE_FACTOR = 10.0

#: a rate fit needs at least this many valid step ratios
MIN_FIT_RATIOS = 5

#: engines of :func:`run_rows`: :func:`run_dr`, :func:`run_dual_dr` and
#: :func:`run_admm`
MODES = ("primal-dr", "dual-dr", "admm")

#: most ``rows x dim`` state elements one block of :func:`run_rows` holds; a
#: block always holds at least one row
BLOCK_ELEMENTS = 1 << 18


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

    Relaxations above 1 are accepted silently: the iteration stays
    contractive up to the instance's limit
    :func:`splitrate.rates.alpha_upper_bound`, which cannot be checked here.
    """

    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")


@dataclass
class IterateTrace:
    """Iterate history with distances to the fixed point and per-step ratios.

    The fixed point is the origin for every engine. ``step_ratios[k]`` is
    ``distances[k+1] / distances[k]``, or NaN once ``distances[k]`` drops
    below :data:`RATIO_FLOOR`. For the ADMM engine the iterates are the scaled
    dual sequence and ``final_x`` holds the last primal iterate; it is None
    for the other engines.

    The engines keep no iterate while they run: their ``iterates`` are
    recomputed, bit for bit, when first read (see :class:`_Replay`), so a
    run holds O(dim) memory, not O(steps x dim). ``len(iterates)`` and
    :attr:`n_steps` recompute nothing.
    """

    iterates: Sequence[Vec]
    fixed_point: Vec
    distances: np.ndarray
    step_ratios: np.ndarray
    converged: bool
    final_x: Vec | None = None

    @property
    def n_steps(self) -> int:
        return len(self.iterates) - 1


@dataclass
class RowRuns:
    """Per-row outcome of :func:`run_rows`.

    ``distances`` has one row per run and one column per iterate, NaN past
    each row's last step; ``steps`` counts the steps each row took and
    ``diverged`` marks the rows stopped by the divergence guard.
    """

    distances: np.ndarray
    steps: np.ndarray
    diverged: np.ndarray

    @property
    def step_ratios(self) -> np.ndarray:
        """Per-row contraction ratios, as :attr:`IterateTrace.step_ratios`."""
        return _step_ratios(self.distances)


def _norms(z: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit for bit ``sqrt(np.dot(row, row))``."""
    return np.sqrt(np.vecdot(z, z))


def _step_ratios(distances: np.ndarray) -> np.ndarray:
    before, after = distances[:, :-1], distances[:, 1:]
    return np.divide(after, before, out=np.full(before.shape, np.nan), where=before >= RATIO_FLOOR)


def _check_dim(name: str, v: Vec, dim: int) -> None:
    if v.dim != dim:
        raise ValueError(f"{name} dimension {v.dim} != problem dimension {dim}")


def _check_positive(name: str, values: np.ndarray) -> None:
    if not np.all((values > 0.0) & np.isfinite(values)):
        raise ValueError(f"{name} must be positive and finite")


def _iterate(step: Callable, params: tuple, state: tuple, start: np.ndarray, max_iter: int, tol: float):
    """Run ``step`` on a batch of rows: the loop of every engine.

    ``state`` is a tuple of ``(rows, dim)`` float arrays whose recorded
    vectors are the rows of ``start``; ``params`` holds the per-row
    parameters, as ``(rows, ...)`` arrays or, for a single row, as scalars
    and shared arrays. ``step(params, state)`` returns ``(next_state,
    recorded, step_norms)``. A row stops when its first step leaves its
    state exactly unchanged (it started at a fixed point), when its distance
    to the origin exceeds ``DIVERGENCE_FACTOR`` times its starting distance
    (diverged), or when its step norm drops to ``tol``. A stopped row leaves
    the active set, with its state and parameters.

    Returns ``(distances, steps, converged, diverged, state)``: ``distances``
    as in :class:`RowRuns` and ``state`` the state the loop ended with.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    rows = start.shape[0]
    first = _norms(start)
    distances = np.full((rows, min(max_iter, 63) + 1), np.nan)  # widened as needed
    distances[:, 0] = first
    # the guard needs a positive starting distance
    limit = np.where(first > 0.0, DIVERGENCE_FACTOR * first, np.inf)
    steps = np.full(rows, max_iter)
    converged = np.zeros(rows, dtype=bool)
    diverged = np.zeros(rows, dtype=bool)
    live = np.arange(rows)
    for k in range(max_iter):
        next_state, recorded, step_norm = step(params, state)
        if k == 0:
            # a row whose first step leaves its state exactly unchanged started
            # at a fixed point: it stops there, after no step
            fixed = np.logical_and.reduce([np.all(a == b, axis=1) for a, b in zip(next_state, state)])
        state = next_state
        dist = _norms(recorded)
        grew = dist > limit
        done = grew | (step_norm <= tol)
        if k == 0:
            dist[fixed] = np.nan
            grew &= ~fixed
            done |= fixed
        if k + 1 == distances.shape[1]:
            distances = np.concatenate([distances, np.full(distances.shape, np.nan)], axis=1)
        distances[live, k + 1] = dist
        if not done.any():
            continue
        steps[live[done]] = k + 1
        if k == 0:
            steps[live[fixed]] = 0
        diverged[live[grew]] = True
        converged[live[done & ~grew]] = True
        if done.all():
            break
        going = ~done
        live, limit = live[going], limit[going]
        state = tuple(s[going] for s in state)
        params = tuple(p[going] for p in params)
    return distances[:, : steps.max(initial=0) + 1], steps, converged, diverged, state


class _Replay(Sequence):
    """The iterates of a one-row run, recomputed when first read.

    ``build()`` returns the run's engine ``(step, params, state)`` afresh.
    Applying its step map for the ``steps`` steps the run took gives the
    run's iterates bit for bit: the step map is deterministic and never
    writes into its start state. The length needs no replay.
    """

    def __init__(self, build: Callable[[], tuple], start: Vec, steps: int):
        self._build, self._start, self._steps = build, start, steps
        self._vecs: list[Vec] | None = None

    def __len__(self) -> int:
        return self._steps + 1

    def __getitem__(self, index):
        return self._replayed()[index]

    def __iter__(self):
        return iter(self._replayed())

    def _replayed(self) -> list[Vec]:
        if self._vecs is None:
            step, params, state = self._build()
            vecs = [self._start]
            for _ in range(self._steps):
                state, recorded, _ = step(params, state)
                vecs.append(Vec(recorded[0]))
            self._vecs, self._build = vecs, None
        return self._vecs


def _run_one(
    build: Callable[[], tuple], start: Vec, max_iter: int, tol: float, described: str, final_x: bool = False
) -> IterateTrace:
    """One row through :func:`_iterate`, as an :class:`IterateTrace` whose
    first iterate is ``start``; ``build()`` returns the engine ``(step,
    params, state)`` and is called again when the iterates are first read."""
    distances, steps, converged, diverged, state = _iterate(*build(), start.coeffs[None], max_iter, tol)
    last_x = Vec(state[0][0]) if final_x else None
    trace = IterateTrace(
        _Replay(build, start, int(steps[0])),
        zeros(start.dim),
        distances[0],
        _step_ratios(distances)[0],
        bool(converged[0]),
        last_x,
    )
    if diverged[0]:
        raise DivergenceError(
            f"diverged after {trace.n_steps} steps: distance grew past {DIVERGENCE_FACTOR:g}x "
            f"its starting value ({described})",
            trace,
        )
    return trace


def _reflection(weights: np.ndarray, g: GFunction, gamma) -> np.ndarray:
    """Per-coordinate factor of ``R_g(R_f(z))`` at step size ``gamma`` (a
    scalar, or one per row as a column).

    Both reflected proximal maps are diagonal: ``R_f`` scales coordinate i by
    ``(1 - gamma*w_i) / (1 + gamma*w_i)`` and ``R_g`` is the identity or a
    negation.
    """
    gw = gamma * weights
    refl = (1.0 - gw) / (1.0 + gw)
    if g is GFunction.ZERO_INDICATOR:
        return -refl
    if g is not GFunction.ZERO:
        raise ValueError(f"unsupported nonsmooth term: {g!r}")
    return refl


def _identity_coupled(problem: CompositeProblem) -> CompositeProblem:
    if problem.a is not None:
        raise ValueError("dr_step requires the identity coupling (problem.a must be None)")
    return problem


def _dual_of(problem: CompositeProblem) -> CompositeProblem:
    if problem.g is not GFunction.ZERO_INDICATOR or problem.a is None:
        raise ValueError(
            "dual iteration needs g = indicator of the origin and an explicit diagonal coupling"
        )
    return CompositeProblem(f=dual_function(problem), g=GFunction.ZERO, a=None)


def _admm_coupled(problem: CompositeProblem) -> None:
    if problem.g is not GFunction.ZERO_INDICATOR or problem.a is None:
        raise ValueError(
            "run_admm needs g = indicator of the origin and an explicit diagonal coupling"
        )


def _relaxed(alpha, refl: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One relaxed splitting step ``(1 - alpha) z + alpha * refl * z``."""
    return z * (1.0 - alpha) + refl * z * alpha


def _dr_step(params: tuple, state: tuple) -> tuple:
    alpha, refl = params
    (z,) = state
    z_next = _relaxed(alpha, refl, z)
    return (z_next,), z_next, _norms(z_next - z)


def _dr_engine(problem: CompositeProblem, alpha, gamma, z: np.ndarray) -> tuple:
    """Step, parameters and state of relaxed DR from the rows ``z`` of an
    identity-coupled problem; the recorded start is ``z``."""
    refl = _reflection(problem.f.weights, problem.g, gamma)
    return _dr_step, (alpha, refl), (z,)


def _admm_engine(problem: CompositeProblem, alpha, rho, x: np.ndarray, w: np.ndarray, u: np.ndarray) -> tuple:
    """Step, parameters and state of the scaled ADMM updates (see
    :func:`run_admm`); ``alpha`` and ``rho`` are scalars or columns, and the
    recorded start is ``rho * u``."""
    nu = problem.a.weights
    # per-engine scratch; rows only ever leave, so a prefix of each fits.
    # w_zero is the prox of the origin indicator; v and u_new take turns in
    # the pair, so that a step never writes into the u it reads
    w_zero = np.zeros(u.shape)
    x_buf, tmp_buf, rec_buf = (np.empty(u.shape) for _ in range(3))
    pair = (np.empty(u.shape), np.empty(u.shape))

    def step(params, state):
        rho, relax, scale, denom = params
        _, w, u = state
        rows = u.shape[0]
        x_new = np.subtract(w, u, out=x_buf[:rows])
        np.multiply(scale, x_new, out=x_new)
        np.divide(x_new, denom, out=x_new)
        v = np.multiply(nu, x_new, out=pair[u.base is pair[0]][:rows])
        np.multiply(relax, v, out=v)
        tmp = np.multiply(1.0 - relax, w, out=tmp_buf[:rows])
        np.add(v, tmp, out=v)
        # u + v - w_new with w_new = +0.0, and x - (+0.0) == x for every float
        u_new = np.add(u, v, out=v)
        recorded = np.multiply(rho, u_new, out=rec_buf[:rows])
        step_norm = np.ravel(rho) * _norms(np.subtract(u_new, u, out=tmp))
        return (x_new, w_zero[:rows], u_new), recorded, step_norm

    scale, denom = rho * nu, problem.f.weights + rho * nu**2
    params = (rho, 2.0 * alpha, scale, denom)
    return step, params, (x, w, u)


def dr_step(problem: CompositeProblem, params: SplitParams, z: Vec) -> Vec:
    """One relaxed splitting step ``(1 - alpha) z + alpha R_g(R_f(z))``.

    Requires the identity coupling (``problem.a is None``); problems with an
    explicit coupling are handled on the dual side by :func:`run_dual_dr`.
    """
    refl = _reflection(_identity_coupled(problem).f.weights, problem.g, params.gamma)
    _check_dim("z", z, problem.dim)
    return Vec(_relaxed(params.alpha, refl, z.coeffs))


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
    _identity_coupled(problem)
    _check_dim("z0", z0, problem.dim)
    described = f"alpha={params.alpha:g}, gamma={params.gamma:g}"
    build = lambda: _dr_engine(problem, params.alpha, params.gamma, z0.coeffs[None])
    return _run_one(build, z0, max_iter, tol, described)


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
    return run_dr(_dual_of(problem), params, mu0, max_iter=max_iter, tol=tol)


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
    _admm_coupled(problem)
    if not (rho > 0.0 and math.isfinite(rho)):
        raise ValueError(f"rho must be positive and finite, got {rho!r}")
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    dim = problem.dim
    for name, v in (("x0", x0), ("z0", z0), ("u0", u0)):
        if v is not None:
            _check_dim(name, v, dim)
    x, w, u = (np.zeros((1, dim)) if v is None else v.coeffs[None] for v in (x0, z0, u0))
    mu0 = rho * u[0]
    # one scan and no copy, unless rho * u0 overflowed (Vec then raises)
    start = Vec._adopt(mu0) if np.isfinite(mu0).all() else Vec(mu0)
    described = f"alpha={alpha:g}, rho={rho:g}"
    build = lambda: _admm_engine(problem, alpha, rho, x, w, u)
    return _run_one(build, start, max_iter, tol, described, final_x=True)


def run_rows(
    problem: CompositeProblem,
    mode: str,
    alphas,
    gammas,
    starts: Callable[[slice], np.ndarray],
    max_iter: int = 200,
    tol: float = 1e-13,
) -> RowRuns:
    """Many independent runs of one engine as rows of one array program.

    Row i runs ``mode`` at relaxation ``alphas[i]`` and step size
    ``gammas[i]``: :func:`run_dr` ("primal-dr"), :func:`run_dual_dr`
    ("dual-dr") or :func:`run_admm` with ``rho = gammas[i]`` and ``u0 =
    start / gammas[i]`` ("admm"). Its distances, step count and divergence
    flag are bit for bit those of that single run; a diverged row is one
    whose single run raises :class:`DivergenceError`. No iterate is kept.

    ``starts(rows)`` returns the start rows for the row slice ``rows`` as a
    ``(rows, dim)`` array. Rows run in blocks of at most
    ``BLOCK_ELEMENTS // dim`` rows (at least one), and ``starts`` is called
    once per block, in order, so starts can be drawn as they are needed.
    """
    if mode == "primal-dr":
        dr_problem = _identity_coupled(problem)
    elif mode == "dual-dr":
        dr_problem = _dual_of(problem)
    elif mode == "admm":
        _admm_coupled(problem)
    else:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    alphas = np.asarray(alphas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    if alphas.ndim != 1 or alphas.shape != gammas.shape:
        raise ValueError("alphas and gammas must be 1-d and of equal length")
    _check_positive("alphas", alphas)
    _check_positive("gammas", gammas)
    rows, dim = alphas.size, problem.dim
    block = max(1, BLOCK_ELEMENTS // dim)
    steps = np.zeros(rows, dtype=int)
    diverged = np.zeros(rows, dtype=bool)
    blocks = []
    for lo in range(0, rows, block):
        part = slice(lo, min(lo + block, rows))
        z = np.asarray(starts(part), dtype=float)
        if z.shape != (part.stop - part.start, dim):
            raise ValueError(f"start rows have shape {z.shape}, expected {(part.stop - part.start, dim)}")
        alpha, gamma = alphas[part, None], gammas[part, None]
        if mode == "admm":
            empty, u = np.zeros(z.shape), z * (1.0 / gamma)
            engine, start = _admm_engine(problem, alpha, gamma, empty, empty, u), gamma * u
        else:
            engine, start = _dr_engine(dr_problem, alpha, gamma, z), z
        dist, steps[part], _, diverged[part], _ = _iterate(*engine, start, max_iter, tol)
        blocks.append(dist)
    distances = np.full((rows, max((d.shape[1] for d in blocks), default=1)), np.nan)
    for lo, dist in zip(range(0, rows, block), blocks):
        distances[lo : lo + len(dist), : dist.shape[1]] = dist
    return RowRuns(distances, steps, diverged)


def fit_rates(step_ratios: np.ndarray) -> np.ndarray:
    """Row form of :func:`fit_rate`: one fit per row of a ``(rows, steps)``
    ratio array whose non-finite entries are not valid ratios, NaN for a row
    with fewer than 5 valid ones.

    Rows with the same number of valid ratios are fitted as one array, and a
    fit is bit for bit what :func:`fit_rate` gives for that row alone.
    """
    step_ratios = np.asarray(step_ratios, dtype=float)
    valid = np.isfinite(step_ratios)
    counts = np.count_nonzero(valid, axis=1)
    fits = np.full(step_ratios.shape[0], np.nan)
    for n in np.unique(counts[counts >= MIN_FIT_RATIOS]):
        group = np.flatnonzero(counts == n)
        tail = step_ratios[group][valid[group]].reshape(group.size, n)[:, -math.ceil(n / 2) :]
        with np.errstate(divide="ignore"):
            fit = np.exp(np.mean(np.log(tail), axis=1))
        fits[group] = np.where(np.any(tail == 0.0, axis=1), 0.0, fit)
    return fits


def fit_rate(trace: IterateTrace) -> float:
    """Asymptotic contraction factor: geometric mean of the last
    ``ceil(n/2)`` valid step ratios. Needs at least 5 valid ratios."""
    valid = np.count_nonzero(np.isfinite(trace.step_ratios))
    if valid < MIN_FIT_RATIOS:
        raise ValueError(f"trace too short: {valid} valid step ratios, need at least {MIN_FIT_RATIOS}")
    return float(fit_rates(trace.step_ratios[None])[0])
