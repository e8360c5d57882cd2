"""Verification battery: every advertised exactness and bound property is
rechecked at its stated tolerance, with wall-clock budgets where speed is part
of the contract. ``splitrate verify`` runs this; the test suite asserts it.
"""

from __future__ import annotations

import io
import marshal
import os
import tempfile
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import splitting
from .functions import CompositeProblem, GFunction, dual_function
from .hilbert import basis_rows, random_basis_map
from .prox import prox_oracle
from .rates import (
    TIGHT_CASES,
    _psi,
    alpha_upper_bound,
    classify_tightness,
    dual_rate_constants,
    optimal_params,
    theoretical_rate,
)
from .splitting import _engine, _norms, _stepped, fit_rates, run_rows
from .worstcase import (
    DEFAULT_BETA,
    DEFAULT_SIGMA,
    DEFAULT_THETA,
    DEFAULT_ZETA,
    default_dual_instance,
    default_primal_instance,
    make_dual_instance,
    make_primal_instance,
    predict_iterate,
    worst_coordinates,
)

__all__ = ["CriterionResult", "conjugate_oracle", "CRITERIA", "run_criterion", "run_all"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.elapsed:.2f}s)"


#: the conjugate oracle stops once its gradient norm has fallen by this
#: factor from the start; the value is then off by at most this squared times
#: the condition number of ``f``, relative to the value
_CG_RTOL = 1e-10
_CG_MAX_STEPS = 50


def conjugate_oracle(problem: CompositeProblem, mu: np.ndarray) -> float | np.ndarray:
    """Numeric value of ``-inf_x { f(x) + <A mu, x> }`` by nonlinear conjugate
    gradients from the origin; never touches the closed-form dual curvatures.

    ``mu`` is one point of shape ``(dim,)``, which gives a float, or many as
    the rows of a ``(rows, dim)`` array, which gives one value per row.

    Each direction ``d`` (Fletcher-Reeves) gets the secant step
    ``t = -<g, d> / <H d, d>``, with the curvature ``<H d, d>`` read from the
    gradient at a probe point ``x + s d``, ``s`` large enough that the probe
    is not lost in the rounding of ``x``. A row stops, and keeps its ``x``,
    when its gradient norm is below ``_CG_RTOL`` times its value at the
    origin, when a probe shows no positive curvature, or after
    ``_CG_MAX_STEPS`` steps. Only the primal ``f`` and its gradient are
    evaluated, and a row's value is bit for bit its value alone.
    """
    if problem.a is None:
        raise ValueError("the conjugate oracle needs an explicit coupling operator, got problem.a = None")
    mu = np.asarray(mu, dtype=float)
    if mu.ndim not in (1, 2) or mu.shape[-1] != problem.dim:
        raise ValueError(
            f"mu must have shape ({problem.dim},) or (rows, {problem.dim}) for a problem of dimension "
            f"{problem.dim}, got shape {mu.shape}"
        )
    amu = problem.a.weights * np.atleast_2d(mu)
    w = problem.f.weights

    def jac(x: np.ndarray) -> np.ndarray:
        return w * x + amu

    x = np.zeros(amu.shape)
    g = jac(x)
    gg = np.vecdot(g, g)
    stop = _CG_RTOL**2 * gg
    d = -g
    live = np.ones(gg.shape, dtype=bool)
    # a stopped row keeps stepping in the arithmetic below, and its results
    # are thrown away, so its divisions by zero are not reported
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_CG_MAX_STEPS):
            live &= ~(gg <= stop)
            if not live.any():
                break
            # fmax, as Python's max, keeps 1 over a NaN
            s = np.fmax(1.0, np.sqrt(np.vecdot(x, x) / np.vecdot(d, d)))
            curv = np.vecdot(jac(x + s[:, None] * d) - g, d) / s
            live &= curv > 0.0
            x = np.where(live[:, None], x - (np.vecdot(g, d) / curv)[:, None] * d, x)
            # a stopped row's x is unchanged, and so are its g and gg
            g = jac(x)
            gg, gg_old = np.vecdot(g, g), gg
            d = np.where(live[:, None], -g + (gg / gg_old)[:, None] * d, d)
    values = -(0.5 * np.vecdot(w, x**2) + np.vecdot(amu, x))
    return float(values[0]) if mu.ndim == 1 else values


# -- criterion 1 -------------------------------------------------------------


def _optimal_rate_exactness():
    alpha, gamma, target = optimal_params(DEFAULT_SIGMA, DEFAULT_BETA)
    (fit,) = _worst_start_runs(default_primal_instance(), "primal-dr", [alpha], [gamma], max_iter=50)
    # NaN (a diverged or unfittable run) fails
    err = abs(fit - target)
    return bool(err <= 1e-10), f"|empirical - bound| = {err:.3e} <= 1e-10 over 50 steps"


# -- criterion 2 -------------------------------------------------------------


def _region_samples(sigma: float, beta: float):
    """Ten parameter points inside each of the four exactly-attained regions."""
    _, gamma_star, _ = optimal_params(sigma, beta)
    samples = {}
    samples["I"] = [(1.0, g) for g in np.geomspace(0.02, 50.0, 10) * gamma_star]
    samples["II"] = [
        (a, f * gamma_star)
        for a, f in zip(np.linspace(0.1, 1.0, 10), np.linspace(0.1, 1.0, 10))
    ]
    gammas_iii = np.geomspace(1.0, 40.0, 10) * gamma_star
    alphas_iii = 1.0 + np.linspace(0.0, 0.9, 10) * (alpha_upper_bound(gammas_iii, sigma, beta) - 1.0)
    samples["III"] = list(zip(alphas_iii, gammas_iii))
    ub_star = alpha_upper_bound(gamma_star, sigma, beta)
    samples["IV"] = [(f * ub_star, gamma_star) for f in np.linspace(0.05, 0.95, 10)]
    return samples


def _worst_start_runs(problem, mode: str, alphas, gammas, max_iter: int):
    """Fitted rates of ``mode`` runs at each point from the worst start of
    the curvatures it runs on (``problem.f``, or the dual's), with ``tol=0``,
    as one batch; NaN where a run diverged or was too short to fit."""
    quad = problem.f if mode == "primal-dr" else dual_function(problem)
    index = worst_coordinates(quad, alphas, gammas)
    runs = run_rows(problem, mode, alphas, gammas, (index, np.ones(index.shape)), max_iter=max_iter, tol=0.0)
    return np.where(runs.diverged, np.nan, fit_rates(runs.step_ratios))


def _tightness_case_coverage():
    sigma, beta = DEFAULT_SIGMA, DEFAULT_BETA
    problem = default_primal_instance()
    samples = _region_samples(sigma, beta)
    regions = [region for region, points in samples.items() for _ in points]
    alphas, gammas = np.array([point for points in samples.values() for point in points]).T
    fits = _worst_start_runs(problem, "primal-dr", alphas, gammas, max_iter=30)
    errs = np.abs(fits - theoretical_rate(alphas, gammas, sigma, beta))
    failed = ~(errs <= 1e-9)
    if failed.any():
        i = int(np.argmax(failed))
        return False, f"region {regions[i]} point (alpha={alphas[i]:g}, gamma={gammas[i]:g}): gap {errs[i]:.3e} > 1e-9"
    return True, f"{errs.size} points over 4 regions, worst |empirical - bound| = {errs.max():.3e} <= 1e-9"


# -- criterion 3 -------------------------------------------------------------


def _contraction_bound_grid():
    sigma, beta = DEFAULT_SIGMA, DEFAULT_BETA
    problem = default_primal_instance()
    _, gamma_star, _ = optimal_params(sigma, beta)
    alphas, gammas = (
        grid.ravel()
        for grid in np.meshgrid(
            np.linspace(0.05, 1.9, 20), np.geomspace(gamma_star / 20.0, gamma_star * 20.0, 20), indexing="ij"
        )
    )
    feasible = alphas < alpha_upper_bound(gammas, sigma, beta)
    alphas, gammas = alphas[feasible], gammas[feasible]
    starts_per_point = 50
    bounds = np.repeat(theoretical_rate(alphas, gammas, sigma, beta), starts_per_point)
    rng = np.random.default_rng(1234)
    runs = run_rows(
        problem,
        "primal-dr",
        np.repeat(alphas, starts_per_point),
        np.repeat(gammas, starts_per_point),
        lambda rows: rng.uniform(-1.0, 1.0, (rows.stop - rows.start, problem.dim)),
        max_iter=22,
        tol=0.0,
    )
    excess = fit_rates(runs.step_ratios) - bounds
    unmeasured = runs.diverged | np.isnan(excess)
    if unmeasured.any():
        point = int(np.argmax(unmeasured)) // starts_per_point
        return False, f"a run diverged or was too short to fit at (alpha={alphas[point]:g}, gamma={gammas[point]:g})"
    over = excess > 1e-9
    if over.any():
        row = int(np.argmax(over))
        point = row // starts_per_point
        return False, (
            f"empirical exceeded the bound by {excess[row]:.3e} at "
            f"(alpha={alphas[point]:g}, gamma={gammas[point]:g})"
        )
    return True, (
        f"{excess.size} runs over {alphas.size} feasible grid points, "
        f"max(empirical - bound) = {excess.max():.3e} <= 1e-9"
    )


# -- criterion 4 -------------------------------------------------------------


def _closed_form_evolution():
    problem = default_primal_instance()
    sigma, beta = DEFAULT_SIGMA, DEFAULT_BETA
    _, gamma_star, _ = optimal_params(sigma, beta)
    rng = np.random.default_rng(99)
    # one run per (draw, band), draw by draw, as Python floats: the
    # expectations are scalar predict_iterate calls
    runs = []
    for _ in range(25):
        gamma = gamma_star * 10.0 ** rng.uniform(-1.2, 1.2)
        upper = alpha_upper_bound(gamma, sigma, beta)
        alpha = rng.uniform(0.05, upper - 0.02)
        runs += [(alpha, gamma, index, lam) for index, lam in ((0, sigma), (problem.dim - 1, beta))]
    alphas, gammas, index, _ = (np.array(column) for column in zip(*runs))
    starts = basis_rows(problem.dim, index)
    outcome = run_rows(problem, "primal-dr", alphas, gammas, lambda rows: starts[rows], max_iter=30, tol=0.0)
    steps = int(outcome.steps.max())
    engine = _engine(problem, "primal-dr", float(gammas.max()))(alphas[:, None], gammas[:, None], starts)
    iterates = np.stack([starts, *(z.copy() for z in _stepped(engine, steps))], axis=1)
    expected = np.zeros(iterates.shape)
    expected[np.arange(len(runs)), :, index] = [
        [predict_iterate(lam, alpha, gamma, k) for k in range(steps + 1)] for alpha, gamma, _, lam in runs
    ]
    errors = np.max(np.abs(iterates - expected), axis=2)
    # each run's iterates up to its last step; a diverged run fails before
    # any of its iterates is compared
    compared = np.arange(steps + 1) <= outcome.steps[:, None]
    failed = compared & ~(errors <= 1e-12)
    failed[outcome.diverged] = False
    failed[outcome.diverged, 0] = True
    if failed.any():
        row, k = np.unravel_index(np.argmax(failed), failed.shape)
        alpha, gamma, _, lam = runs[row]
        where = f"(alpha={alpha:g}, gamma={gamma:g}, curvature={lam:g})"
        if outcome.diverged[row]:
            return False, f"diverged after {outcome.steps[row]} steps at {where}"
        return False, f"iterate {k} off closed form by {errors[row, k]:.3e} at {where}"
    worst = float(errors[compared].max())
    return True, f"25 parameter draws x 2 curvature bands x 30 steps, max coordinate error {worst:.3e} <= 1e-12"


# -- criterion 5 -------------------------------------------------------------


def _dual_admm_transfer():
    constants = dual_rate_constants(DEFAULT_SIGMA, DEFAULT_BETA, DEFAULT_THETA, DEFAULT_ZETA)
    alpha_opt, gamma_opt, rate_opt = constants.optimal_dual_params()
    s_hat, b_hat = constants.sigma_hat, constants.beta_hat

    fits = {}
    for pairing in ("aligned", "crossed"):
        instance = default_dual_instance(pairing)
        (fits[pairing],) = _worst_start_runs(instance, "dual-dr", [alpha_opt], [gamma_opt], max_iter=50)
    # NaN (a diverged or unfittable run) fails both tests
    crossed_err = abs(fits["crossed"] - rate_opt)
    if not crossed_err <= 1e-10:
        return False, f"crossed pairing missed the dual bound: gap {crossed_err:.3e} > 1e-10"
    if not fits["aligned"] <= rate_opt + 1e-9:
        return False, f"aligned pairing exceeded the dual bound: {fits['aligned']:.6f} > {rate_opt:.6f}"

    # more crossed-pairing points across the attained regions
    instance = default_dual_instance("crossed")
    upper_star = alpha_upper_bound(gamma_opt, s_hat, b_hat)
    extra_alphas, extra_gammas = np.array(
        [
            (1.0, 0.3 * gamma_opt),
            (1.0, 4.0 * gamma_opt),
            (0.7, 0.5 * gamma_opt),
            (1.0 + 0.5 * (alpha_upper_bound(2.0 * gamma_opt, s_hat, b_hat) - 1.0), 2.0 * gamma_opt),
        ]
    ).T
    fits_extra = _worst_start_runs(instance, "dual-dr", extra_alphas, extra_gammas, max_iter=40)
    gaps = np.abs(fits_extra - theoretical_rate(extra_alphas, extra_gammas, s_hat, b_hat))
    failed = ~(gaps <= 1e-10)
    if failed.any():
        i = int(np.argmax(failed))
        return False, (
            f"crossed pairing gap {gaps[i]:.3e} > 1e-10 at (alpha={extra_alphas[i]:g}, gamma={extra_gammas[i]:g})"
        )
    worst_gap = max(crossed_err, float(gaps.max()))

    # dual splitting vs ADMM: same relaxation, rho = gamma
    alphas, gammas = np.array(
        [(a, f * gamma_opt) for a in (0.5, 0.8, 1.0) for f in (0.4, 1.0, 2.5)]
        + [(0.5 * (1.0 + upper_star), gamma_opt)]
    ).T
    mismatch = np.abs(
        _worst_start_runs(instance, "dual-dr", alphas, gammas, max_iter=40)
        - _worst_start_runs(instance, "admm", alphas, gammas, max_iter=40)
    )
    failed = ~(mismatch <= 1e-8)
    if failed.any():
        i = int(np.argmax(failed))
        return False, (
            f"ADMM vs dual splitting rate mismatch {mismatch[i]:.3e} > 1e-8 at "
            f"(alpha={alphas[i]:g}, rho={gammas[i]:g})"
        )
    worst_mismatch = float(mismatch.max())
    return True, (
        f"crossed pairing attains the dual bound (worst gap {worst_gap:.3e}); aligned measured "
        f"{fits['aligned']:.6f} vs bound {rate_opt:.6f}; ADMM matches dual splitting at 10 points "
        f"(worst mismatch {worst_mismatch:.3e})"
    )


# -- criterion 6 -------------------------------------------------------------


def _conjugate_oracle_agreement():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(5):
        dim = 6
        sigma = 10.0 ** rng.uniform(-0.3, 0.3)
        beta = sigma * 10.0 ** rng.uniform(0.05, 1.2)
        theta = 10.0 ** rng.uniform(-0.3, 0.3)
        zeta = theta * 10.0 ** rng.uniform(0.05, 0.7)
        n_sigma = int(rng.integers(1, dim))
        idx_sigma = rng.choice(dim, size=n_sigma, replace=False)
        pairing = str(rng.choice(["aligned", "crossed"]))
        instance = make_dual_instance(sigma, beta, theta, zeta, dim, idx_sigma, pairing)
        # the instance's 100 draws, in draw order
        mu = rng.uniform(-3.0, 3.0, (100, dim))
        # the closed-form dual value, sum_i w_i mu_i^2 / 2
        errs = np.abs(0.5 * np.vecdot(dual_function(instance).weights, mu**2) - conjugate_oracle(instance, mu))
        failed = ~(errs <= 1e-8)
        if failed.any():
            return False, f"closed-form dual value off the numeric conjugate by {errs[np.argmax(failed)]:.3e} > 1e-8"
        worst = max(worst, float(errs.max()))
    return True, f"5 instances x 100 points, max |closed form - numeric conjugate| = {worst:.3e} <= 1e-8"


# -- criterion 7 -------------------------------------------------------------


def _psi_monotonicity(rng):
    """psi is strictly decreasing on x > -1 (10^4 ordered pairs)."""
    xs = rng.uniform(-0.999, 50.0, 10_000)
    ys = rng.uniform(-0.999, 50.0, 10_000)
    lo, hi = np.minimum(xs, ys), np.maximum(xs, ys)
    keep = lo < hi
    return bool(np.all(_psi(lo[keep]) > _psi(hi[keep]))), ""


def _psi_reciprocal(rng):
    """psi(x) <= -psi(y) exactly when x*y >= 1 (10^4 pairs, 1e-12 boundary slack)."""
    xs = 10.0 ** rng.uniform(-3.0, 1.7, 10_000)
    ys = rng.uniform(-0.999, 60.0, 10_000)
    keep = np.abs(xs * ys - 1.0) > 1e-12
    xs, ys = xs[keep], ys[keep]
    return bool(np.all((_psi(xs) <= -_psi(ys)) == (xs * ys >= 1.0))), ""


def _prox_oracle_agreement(rng):
    """One engine step at alpha 1/2 on the g = 0 problem, which is the prox
    of gamma f, agrees with the search oracle (100 draws, gamma
    log-uniform)."""
    problem = default_primal_instance()
    weights = problem.f.weights
    gammas, ys = [], []
    for _ in range(100):
        gammas.append(10.0 ** rng.uniform(-3.0, 3.0))
        ys.append(rng.uniform(-5.0, 5.0, problem.dim))
    gammas, ys = np.array(gammas)[:, None], np.array(ys)
    oracle = prox_oracle(lambda i, t: 0.5 * weights[i] * t * t, gammas, ys)
    (half_step,) = _stepped(_engine(problem, "primal-dr", float(gammas.max()))(0.5, gammas, ys), 1)
    worst = float(np.max(np.abs(half_step - oracle)))
    return worst <= 1e-10, f"max error {worst:.3e}"


def _coupling_operator(rng):
    """The coupling operator is self-adjoint, with norm bounds attained on basis vectors."""
    op = default_dual_instance("aligned").a
    w = op.weights
    # the pairs (x, y) of 1000 draws of x, then y
    x, y = np.moveaxis(rng.uniform(-1.0, 1.0, (1000, 2, op.dim)), 1, 0)
    holds = np.all(np.abs(np.vecdot(w * x, y) - np.vecdot(x, w * y)) <= 1e-12)
    nx, nax = np.sqrt(np.vecdot(x, x)), np.sqrt(np.vecdot(w * x, w * x))
    holds &= np.all((op.theta * nx - 1e-12 <= nax) & (nax <= op.zeta * nx + 1e-12))
    units = w * basis_rows(op.dim, [np.argmin(w), np.argmax(w)])
    holds &= np.all(np.abs(np.sqrt(np.vecdot(units, units)) - [op.theta, op.zeta]) <= 1e-12)
    return bool(holds), ""


def _coefficient_norm(rng):
    """The row norm behind every run's distances squares to the row's sum of
    squares (1000 rows)."""
    rows = rng.uniform(-10.0, 10.0, (1000, 8))
    squares = np.sum(rows**2, axis=1)
    return bool(np.all(np.abs(_norms(rows) ** 2 - squares) <= 1e-12 * np.maximum(1.0, squares))), ""


#: the property sub-checks, in the order the battery runs them on one stream.
#: Each takes the generator and returns ``(passed, note)``, where the note is
#: a measured error worth printing, or empty.
_PROPERTY_CHECKS = {
    "psi-monotonicity": _psi_monotonicity,
    "psi-reciprocal": _psi_reciprocal,
    "prox-oracle": _prox_oracle_agreement,
    "coupling-operator": _coupling_operator,
    "coefficient-norm": _coefficient_norm,
}


def _property_suites():
    rng = np.random.default_rng(2024)
    results = [(name, *check(rng)) for name, check in _PROPERTY_CHECKS.items()]
    failed = [f"{name} ({note})" if note else name for name, passed, note in results if not passed]
    if failed:
        return False, "failed subchecks: " + ", ".join(failed)
    notes = "; ".join(f"{name} {note}" for name, _, note in results if note)
    return True, f"all property suites passed ({notes})"


# -- criterion 8 -------------------------------------------------------------


def _sweep_determinism():
    from . import cli

    flags = [
        "sweep",
        "--alpha", "linear:0.2:1.4:6",
        "--gamma", "log:0.05:3:6",
        "--seed", "7",
        "--start", "random",
    ]
    outputs = []
    with tempfile.TemporaryDirectory() as directory:
        for run in range(2):
            path = os.path.join(directory, f"sweep{run}.csv")
            code = cli.main(flags + ["--out", path])
            if code != 0:
                return False, f"sweep exited with code {code}"
            with open(path, "rb") as fh:
                outputs.append(fh.read())
    if outputs[0] != outputs[1]:
        return False, "two seeded sweeps produced different bytes"
    return True, f"two seeded sweeps produced byte-identical CSVs ({len(outputs[0])} bytes)"


# -- criterion 9 -------------------------------------------------------------


def _dense_dr(weights, g, q, alphas, gammas, starts, steps: int):
    """Relaxed DR written out on the dense ``H = Q diag(weights) Q^T``, one
    run per row, sharing no arithmetic with the diagonal engines.

    ``prox_{gamma f}`` applies ``(I + gamma H)^-1``, formed once per row,
    ``R_g`` is the identity (g zero) or its negation (g the origin
    indicator), and a step is ``z <- (1 - alpha) z + alpha R_g (2 prox - I)
    z``. Returns the ``(rows, steps + 1)`` distances to the origin and the
    last iterates.
    """
    dim = weights.size
    resolvents = np.linalg.inv(np.eye(dim) + gammas[:, None, None] * ((q * weights) @ q.T))
    sign = {GFunction.ZERO: 1.0, GFunction.ZERO_INDICATOR: -1.0}[g]
    alphas = alphas[:, None]
    z = np.asarray(starts, dtype=float)
    distances = [np.linalg.norm(z, axis=1)]
    for _ in range(steps):
        prox = (resolvents @ z[..., None])[..., 0]
        z = (1.0 - alphas) * z + alphas * sign * (2.0 * prox - z)
        distances.append(np.linalg.norm(z, axis=1))
    return np.stack(distances, axis=1), z


def _rotated_basis_reference():
    sigma, beta = DEFAULT_SIGMA, DEFAULT_BETA
    _, gamma_star, _ = optimal_params(sigma, beta)
    # the attained-region samples, and feasible points outside those regions
    points = [point for points in _region_samples(sigma, beta).values() for point in points]
    points += [(0.5, 3.0 * gamma_star), (0.8, 10.0 * gamma_star), (1.05, 0.3 * gamma_star), (1.1, 0.6 * gamma_star)]
    alphas, gammas = np.array(points).T
    bounds = theoretical_rate(alphas, gammas, sigma, beta)
    tight = np.isin(classify_tightness(alphas, gammas, sigma, beta), list(TIGHT_CASES))
    steps, worst_bound, worst_engine = 30, 0.0, 0.0
    for dim in (8, 24):
        problem = make_primal_instance(sigma, beta, dim, range(dim // 2))
        diagonal = _worst_start_runs(problem, "primal-dr", alphas, gammas, max_iter=steps)
        index = worst_coordinates(problem.f, alphas, gammas)
        for seed in (1, 2):
            q = random_basis_map(dim, seed)
            # the worst start, rotated: column index[i] of Q
            distances, _ = _dense_dr(problem.f.weights, problem.g, q, alphas, gammas, q[:, index].T, steps)
            dense = fit_rates(distances[:, 1:] / distances[:, :-1])
            bound_gaps = np.where(tight, np.abs(dense - bounds), 0.0)
            engine_gaps = np.abs(dense - diagonal)
            for label, gaps in (("bound", bound_gaps), ("diagonal engine", engine_gaps)):
                failed = ~(gaps <= 1e-10)
                if failed.any():
                    i = int(np.argmax(failed))
                    return False, (
                        f"dim {dim}, rotation {seed}: |dense - {label}| = {gaps[i]:.3e} > 1e-10 "
                        f"at (alpha={alphas[i]:g}, gamma={gammas[i]:g})"
                    )
            worst_bound = max(worst_bound, float(bound_gaps.max()))
            worst_engine = max(worst_engine, float(engine_gaps.max()))
    return True, (
        f"{4 * alphas.size} dense runs at dims 8 and 24 x 2 rotations: "
        f"worst |dense - bound| = {worst_bound:.3e} <= 1e-10 at {np.count_nonzero(tight)} Case I-III points, "
        f"worst |dense - diagonal engine| = {worst_engine:.3e} <= 1e-10 at all {alphas.size} feasible points "
        f"({np.count_nonzero(~tight)} not classified)"
    )


#: the battery: criterion name -> (check, runtime budget in seconds or None),
#: in the order ``splitrate verify`` runs them. A check returns ``(passed,
#: detail)``.
CRITERIA = {
    "optimal-rate-exactness": (_optimal_rate_exactness, 1.0),
    "tightness-case-coverage": (_tightness_case_coverage, 10.0),
    "contraction-bound-grid": (_contraction_bound_grid, 60.0),
    "closed-form-evolution": (_closed_form_evolution, None),
    "dual-admm-transfer": (_dual_admm_transfer, None),
    "conjugate-oracle": (_conjugate_oracle_agreement, None),
    "property-suites": (_property_suites, None),
    "sweep-determinism": (_sweep_determinism, None),
    "rotated-basis-reference": (_rotated_basis_reference, None),
}


def run_criterion(name: str) -> CriterionResult:
    """Run the criterion ``name`` of :data:`CRITERIA`, timed against its
    budget; a check that raises counts as failed."""
    check, budget = CRITERIA[name]
    start = time.perf_counter()
    try:
        passed, detail = check()
    except Exception as exc:  # a crashed check is a failed check, not a crashed battery
        elapsed = time.perf_counter() - start
        return CriterionResult(name, False, f"raised {exc!r}", elapsed)
    elapsed = time.perf_counter() - start
    if budget is not None:
        if elapsed < budget:
            detail += f"; runtime {elapsed:.2f}s < {budget:g}s"
        else:
            passed = False
            detail += f"; runtime {elapsed:.2f}s exceeded the {budget:g}s budget"
    return CriterionResult(name, passed, detail, elapsed)


# perfbench's traced-output test runs these two criteria by these names
def check_optimal_rate_exactness() -> CriterionResult:
    return run_criterion("optimal-rate-exactness")


def check_dual_admm_transfer() -> CriterionResult:
    return run_criterion("dual-admm-transfer")


def _workers(criteria: int) -> int:
    """How many workers run a battery of ``criteria``: one per usable core
    and at most one per criterion, or one where a fork is not safe (see
    :func:`splitrate.splitting._forkable`, the long-row steps' rule too) or
    past 256 criteria (an index is one byte of the queue)."""
    if not splitting._forkable() or criteria > 256:
        return 1
    return min(splitting.WORKERS, criteria)


def _taken(queue: int):
    """The criterion indices this worker takes from the pipe ``queue``, one
    byte at a time until it is empty; a one-byte read is atomic, so no two
    workers take the same index."""
    while index := os.read(queue, 1):
        yield index[0]


def _serve(names: list, queue: int, out: int) -> None:
    """A forked worker (see :func:`splitrate.splitting._spawn`): for each
    criterion it takes from ``queue``, write ``(index, passed, detail,
    elapsed)`` to ``out`` once it has run."""
    for index in _taken(queue):
        result = run_criterion(names[index])
        record = marshal.dumps((index, bool(result.passed), result.detail, result.elapsed))
        while record:
            record = record[os.write(out, record) :]


def _records(data: bytes):
    """The ``(index, passed, detail, elapsed)`` records a child wrote, up to
    the first that is cut short."""
    stream = io.BytesIO(data)
    while True:
        try:
            yield marshal.load(stream)
        except (EOFError, ValueError):
            return


def _ended(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"was killed by signal {os.WTERMSIG(status)}"
    return f"exited with status {os.WEXITSTATUS(status)}"


def run_all(verbose: bool = True) -> list:
    """Run every criterion, and print one PASS/FAIL line each, in table
    order, when verbose.

    The criteria run on ``min(splitting.WORKERS, len(CRITERIA))`` workers:
    this process and children forked and reaped as the long-row steps'
    are (see :func:`splitrate.splitting._spawn`). Each worker takes the
    next criterion index from one queue, a pipe that holds one byte per
    criterion, so each criterion runs once; a child writes its results back
    on a pipe of its own. A criterion that no worker reports fails, with
    the wait status of each child that did not exit cleanly. Each
    ``elapsed``, and the runtime a budget is checked against, is measured
    in the process that ran the criterion. On one usable core, off Linux,
    or while this process runs other threads, the same loop runs here
    alone and forks nothing.
    """
    names = list(CRITERIA)
    results = [None] * len(names)
    workers = _workers(len(names))
    queue = None
    children = {}  # pid -> (pid, None, the read end of its pipe)
    statuses = []  # the wait status of each child reaped
    try:
        if workers > 1:
            queue, fill = os.pipe()
            os.write(fill, bytes(range(len(names))))
            # closed before any fork, so that the queue ends once it is read
            os.close(fill)
            for _ in range(workers - 1):
                child = splitting._spawn(partial(_serve, names), queue)
                if child is None:  # no more processes: the workers so far take the whole queue
                    break
                children[child[0]] = child
        for index in range(len(names)) if queue is None else _taken(queue):
            results[index] = run_criterion(names[index])
        for pid, (_, _, pipe) in list(children.items()):
            data = pipe.read()
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
            del children[pid]
            for index, *outcome in _records(data):
                results[index] = CriterionResult(names[index], *outcome)
    finally:
        # after an exception or an interrupt here: no child outlives the call
        splitting._reap(children)
        if queue is not None:
            os.close(queue)
    # a criterion is unreported only when a child took it and ended first
    ended = "; ".join(f"a worker {_ended(status)}" for status in statuses if status)
    ended = ended or "every worker exited with status 0"
    for index, result in enumerate(results):
        if result is None:
            results[index] = CriterionResult(names[index], False, f"not reported: {ended}", 0.0)
    if verbose:
        for result in results:
            print(result.line())
    return results
