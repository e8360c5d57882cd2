"""Relaxed Douglas-Rachford iteration, on a problem or on its dual, an ADMM
engine matched to it, and contraction-trace capture, for one run or for a
batch of independent rows."""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .functions import CompositeProblem, GFunction, dual_function
from .hilbert import Vec
from .rates import _check_positive, _positive_rows

__all__ = [
    "SplitParams",
    "IterateTrace",
    "DivergenceError",
    "RowRuns",
    "MODES",
    "run_dr",
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

#: engines of :func:`run_rows`: relaxed DR on the problem (:func:`run_dr`)
#: or on its dual, and :func:`run_admm`
MODES = ("primal-dr", "dual-dr", "admm")

#: most ``rows x dim`` state elements one block of :func:`run_rows` holds; a
#: block always holds at least one row
BLOCK_ELEMENTS = 1 << 18

#: rows longer than this are normed chunk by chunk (see :func:`_norms`)
NORM_CHUNK = 8192


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
        _check_positive(gamma=self.gamma, alpha=self.alpha)


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
    """Euclidean norm of each row of a ``(rows, dim)`` array.

    Rows of up to :data:`NORM_CHUNK` elements give bit for bit
    ``sqrt(np.dot(row, row))``. A longer row is the sum, in a fixed order, of
    the dots of its consecutive ``NORM_CHUNK``-element chunks and of its
    shorter tail: BLAS may split one dot that long over threads, and its
    last bit would then depend on the thread count. The chunks are one
    strided view of ``z``, not a copy.
    """
    rows, dim = z.shape
    if dim <= NORM_CHUNK:
        return np.sqrt(np.vecdot(z, z))
    full = dim // NORM_CHUNK
    row_stride, stride = z.strides
    chunks = np.lib.stride_tricks.as_strided(
        z, (rows, full, NORM_CHUNK), (row_stride, NORM_CHUNK * stride, stride), writeable=False
    )
    tail = z[:, full * NORM_CHUNK :]
    return np.sqrt(np.vecdot(chunks, chunks).sum(axis=1) + np.vecdot(tail, tail))


def _step_ratios(distances: np.ndarray) -> np.ndarray:
    before, after = distances[:, :-1], distances[:, 1:]
    return np.divide(after, before, out=np.full(before.shape, np.nan), where=before >= RATIO_FLOOR)


def _iterate(step: Callable, params: tuple, state: tuple, start: np.ndarray, max_iter: int, tol: float):
    """Run ``step`` on a batch of rows: the loop of every engine.

    ``state`` is a tuple of ``(rows, dim)`` float arrays whose recorded
    vectors are the rows of ``start``; ``params`` holds the per-row
    parameters, as ``(rows, ...)`` arrays or, for a single row, as scalars
    and shared arrays. ``step(params, state)`` returns ``(next_state,
    recorded, step_norms)``. A row stops when its first step leaves its
    state exactly unchanged (it started at a fixed point), when its distance
    to the origin exceeds ``DIVERGENCE_FACTOR`` times its starting distance
    (diverged), or when its step norm drops to ``tol``.

    A stopped row is stepped on with the others until at most half of the
    array rows are live; only then are the state, the parameters and the
    bookkeeping gathered down to the live rows. Until that point the
    stopped row's row of the last state array is NaN. Each step map carries
    that NaN into the row's recorded vector and step norm, so its distance
    reads NaN and it meets no stop test again; NaN arithmetic raises no
    floating-point warning.

    Returns ``(distances, steps, converged, diverged, state)``: ``distances``
    as in :class:`RowRuns` and ``state`` the state the loop ended with (a
    single row's final state).
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
    # the batch row of each array row, and which array rows still run
    index = np.arange(rows)
    live = np.ones(rows, dtype=bool)
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
        distances[index, k + 1] = dist
        if not done.any():
            continue
        steps[index[done]] = k + 1
        if k == 0:
            steps[index[fixed]] = 0
        diverged[index[grew]] = True
        converged[index[done & ~grew]] = True
        live &= ~done
        left = np.count_nonzero(live)
        if left == 0:
            break
        if 2 * left > live.size:
            state[-1][done] = np.nan
            continue
        index, limit = index[live], limit[live]
        state = tuple(s[live] for s in state)
        params = tuple(p[live] for p in params)
        live = np.ones(left, dtype=bool)
    return distances[:, : steps.max(initial=0) + 1], steps, converged, diverged, state


class _Replay(Sequence):
    """The iterates of a one-row run, recomputed when first read.

    ``build()`` returns the run's engine (see :func:`_engine`) afresh.
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
            step, params, state, _ = self._build()
            vecs = [self._start]
            for _ in range(self._steps):
                state, recorded, _ = step(params, state)
                vecs.append(Vec(recorded[0]))
            self._vecs, self._build = vecs, None
        return self._vecs


def _run_one(
    problem: CompositeProblem, mode: str, alpha, gamma, v: Vec, max_iter: int, tol: float,
    step_name: str = "gamma", rows_are_u: bool = False,
) -> IterateTrace:
    """One run of ``mode`` from ``v`` through :func:`_iterate`, as an
    :class:`IterateTrace`: ``v`` is the one start row of :func:`_engine`
    (``rows_are_u`` as there), and the engine is built again when the
    iterates are first read. ``step_name`` names ``gamma`` in the message of
    a :class:`DivergenceError`."""
    rows = v.coeffs[None]
    build = lambda: _engine(problem, mode, alpha, gamma, rows, rows_are_u)
    step, params, state, start = build()
    if v.dim != problem.dim:
        raise ValueError(f"start dimension {v.dim} != problem dimension {problem.dim}")
    if start is rows:  # DR records v itself
        first = v
    else:  # ADMM records rho * u0, which may overflow (Vec then raises)
        first = Vec._adopt(start[0]) if np.isfinite(start).all() else Vec(start[0])
    distances, steps, converged, diverged, state = _iterate(step, params, state, start, max_iter, tol)
    # ADMM's state is (x, w, u): its trace keeps the last primal iterate
    last_x = Vec(state[0][0]) if len(state) > 1 else None
    trace = IterateTrace(
        _Replay(build, first, int(steps[0])),
        Vec._adopt(np.zeros(problem.dim)),
        distances[0],
        _step_ratios(distances)[0],
        bool(converged[0]),
        last_x,
    )
    if diverged[0]:
        raise DivergenceError(
            f"diverged after {trace.n_steps} steps: distance grew past {DIVERGENCE_FACTOR:g}x "
            f"its starting value (alpha={alpha:g}, {step_name}={gamma:g})",
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
    return -refl if g is GFunction.ZERO_INDICATOR else refl


def _relaxed_step(params: tuple, state: tuple) -> tuple:
    """One relaxed DR step ``(1 - alpha) z + alpha * refl * z``, with
    ``refl`` the factor of :func:`_reflection`."""
    alpha, refl = params
    (z,) = state
    z_next = z * (1.0 - alpha) + refl * z * alpha
    return (z_next,), z_next, _norms(z_next - z)


def _admm_engine(f_weights: np.ndarray, nu: np.ndarray, alpha, rho, u: np.ndarray) -> tuple:
    """Step, parameters and state of the scaled ADMM updates (see
    :func:`run_admm`) from the rows ``u``, with ``x`` and ``w`` at the
    origin; ``alpha`` and ``rho`` are scalars or columns."""
    # per-engine scratch; rows only ever leave, so a prefix of each fits.
    # zero is the start of x and w and the prox of the origin indicator (no
    # step writes into it); v and u_new take turns in the pair, so that a
    # step never writes into the u it reads
    zero = np.zeros(u.shape)
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
        return (x_new, zero[:rows], u_new), recorded, step_norm

    scale, denom = rho * nu, f_weights + rho * nu**2
    params = (rho, 2.0 * alpha, scale, denom)
    return step, params, (zero, zero, u)


def _engine(problem: CompositeProblem, mode: str, alpha, gamma, rows: np.ndarray, rows_are_u: bool = False) -> tuple:
    """The engine ``mode`` runs on ``problem`` from the start rows ``rows``:
    ``(step, params, state, start)`` for :func:`_iterate`, with ``start`` the
    recorded start rows. The one place that checks the mode and the problem
    it needs.

    ``alpha`` and ``gamma`` (``rho`` for ADMM) are scalars or ``(rows, 1)``
    columns. Relaxed DR runs on ``problem`` itself ("primal-dr", identity
    coupling only) or on its dual ("dual-dr") and records ``rows``. ADMM
    starts from ``u = rows * (1 / gamma)``, or from ``u = rows`` with
    ``rows_are_u``, and records ``gamma * u``. Dual DR and ADMM need ``g``
    the indicator of the origin and an explicit diagonal coupling.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "primal-dr":
        if problem.a is not None:
            raise ValueError("primal DR requires the identity coupling (problem.a must be None)")
        return _relaxed_step, (alpha, _reflection(problem.f.weights, problem.g, gamma)), (rows,), rows
    if problem.g is not GFunction.ZERO_INDICATOR or problem.a is None:
        raise ValueError(f"{mode} needs g = indicator of the origin and an explicit diagonal coupling")
    if mode == "dual-dr":
        # the conjugate of the origin indicator vanishes: the dual's g is zero
        refl = _reflection(dual_function(problem).weights, GFunction.ZERO, gamma)
        return _relaxed_step, (alpha, refl), (rows,), rows
    u = rows if rows_are_u else rows * (1.0 / gamma)
    return (*_admm_engine(problem.f.weights, problem.a.weights, alpha, gamma, u), gamma * u)


def run_dr(
    problem: CompositeProblem,
    params: SplitParams,
    z0: Vec,
    max_iter: int = 200,
    tol: float = 1e-13,
) -> IterateTrace:
    """Iterate the relaxed splitting step ``z <- (1 - alpha) z + alpha
    R_g(R_f(z))`` from ``z0`` and record the contraction trace. Needs the
    identity coupling (``problem.a is None``). A problem with an explicit
    coupling runs on the dual side: the dual of ``min f(x) + g(A x)`` with
    ``g`` the origin indicator is ``CompositeProblem(dual_function(problem),
    GFunction.ZERO)``, since the conjugate of the indicator vanishes.

    ``R_f = 2 prox_{gamma f} - id`` scales coordinate i by ``(1 -
    gamma*w_i) / (1 + gamma*w_i)`` and ``R_g`` is the identity or a
    negation, so one step at ``alpha = 1/2`` is ``prox_{gamma f}`` itself
    when ``g`` is zero.

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
    return _run_one(problem, "primal-dr", params.alpha, params.gamma, z0, max_iter, tol)


def run_admm(
    problem: CompositeProblem,
    rho: float,
    alpha: float,
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

    ``alpha`` means the same relaxation as in :func:`run_dr` on the dual
    problem: with the updates over-relaxed by ``2 * alpha`` the scaled dual
    sequence ``mu_k = rho * u_k`` contracts with exactly the factor of the
    dual splitting iterate run at step size ``gamma = rho`` and the same alpha
    (``alpha = 1/2`` recovers the classic unrelaxed method). The trace records
    ``mu_k``; the final primal iterate is kept on ``final_x``. The step norm
    compared with ``tol`` is ``rho * |u_{k+1} - u_k|``.

    ``x`` and ``w`` start at the origin, and ``u`` at ``u0`` (the origin
    when None); the trace starts at ``rho * u0``.
    """
    _check_positive(rho=rho, alpha=alpha)
    u0 = Vec._adopt(np.zeros(problem.dim)) if u0 is None else u0
    return _run_one(problem, "admm", alpha, rho, u0, max_iter, tol, step_name="rho", rows_are_u=True)


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
    ``gammas[i]``: :func:`run_dr` on ``problem`` ("primal-dr") or on its
    dual ``CompositeProblem(dual_function(problem), GFunction.ZERO)``
    ("dual-dr"), or :func:`run_admm` with ``rho = gammas[i]`` and ``u0 =
    start / gammas[i]`` ("admm"). Its distances, step count and divergence
    flag are bit for bit those of that single run; a diverged row is one
    whose single run raises :class:`DivergenceError`. No iterate is kept.

    ``starts(rows)`` returns the start rows for the row slice ``rows`` as a
    ``(rows, dim)`` array. Rows run in blocks of at most
    ``BLOCK_ELEMENTS // dim`` rows (at least one), and ``starts`` is called
    once per block, in order, so starts can be drawn as they are needed.
    """
    # a bad mode or problem fails here, even for a batch of no rows
    _engine(problem, mode, 1.0, 1.0, np.empty((0, problem.dim)))
    alphas, gammas = _positive_rows(alphas=alphas, gammas=gammas)
    if alphas.ndim != 1 or alphas.shape != gammas.shape:
        raise ValueError("alphas and gammas must be 1-d and of equal length")
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
        dist, steps[part], _, diverged[part], _ = _iterate(
            *_engine(problem, mode, alphas[part, None], gammas[part, None], z), max_iter, tol
        )
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
    # a set, not np.unique: the first np.unique call in a process imports
    # numpy.ma, about 13 ms that every CLI sweep would pay
    for n in sorted(set(counts[counts >= MIN_FIT_RATIOS].tolist())):
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
