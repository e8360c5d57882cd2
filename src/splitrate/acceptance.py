"""Verification battery: every advertised exactness and bound property is
rechecked at its stated tolerance, with wall-clock budgets where speed is part
of the contract. ``splitrate verify`` runs this; the test suite asserts it.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .functions import (
    CompositeProblem,
    GFunction,
    apply_operator,
    dual_function,
    eval_f,
)
from .hilbert import Vec, basis_vector, change_basis, inner, norm, random_basis_map
from .prox import prox_diag, prox_g, prox_oracle, refl_prox_diag, refl_prox_g
from .rates import alpha_upper_bound, dual_rate_constants, psi, theoretical_rate
from .splitting import SplitParams, fit_rate, fit_rates, run_admm, run_dr, run_dual_dr, run_rows
from .worstcase import (
    DEFAULT_BETA,
    DEFAULT_SIGMA,
    default_dual_instance,
    default_primal_instance,
    make_dual_instance,
    predict_iterate,
    worst_start_vector,
)

__all__ = ["CriterionResult", "conjugate_oracle", "ALL_CHECKS", "run_all"]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.elapsed:.2f}s)"


def _run_criterion(name: str, fn, budget: float | None = None) -> CriterionResult:
    start = time.perf_counter()
    try:
        passed, detail = fn()
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


def conjugate_oracle(problem: CompositeProblem, mu: Vec) -> float:
    """Numeric value of ``-inf_x { f(x) + <A mu, x> }`` by quasi-Newton
    minimization; never touches the closed-form dual curvatures."""
    amu = apply_operator(problem.a, mu).coeffs
    w = problem.f.weights

    def fun(x: np.ndarray) -> float:
        return 0.5 * float(np.dot(w, x**2)) + float(np.dot(amu, x))

    def jac(x: np.ndarray) -> np.ndarray:
        return w * x + amu

    res = optimize.minimize(
        fun,
        np.zeros(mu.dim),
        jac=jac,
        method="L-BFGS-B",
        options={"gtol": 1e-12, "ftol": 1e-18, "maxiter": 1000},
    )
    return -float(res.fun)


# -- criterion 1 -------------------------------------------------------------


def _optimal_rate_exactness():
    problem = default_primal_instance()
    ratio = math.sqrt(DEFAULT_BETA / DEFAULT_SIGMA)
    target = (ratio - 1.0) / (ratio + 1.0)
    alpha, gamma = 1.0, 1.0 / math.sqrt(DEFAULT_SIGMA * DEFAULT_BETA)
    z0 = worst_start_vector(problem.f, alpha, gamma)
    trace = run_dr(problem, SplitParams(alpha, gamma), z0, max_iter=50, tol=0.0)
    err = abs(fit_rate(trace) - target)
    return err <= 1e-10, f"|empirical - bound| = {err:.3e} <= 1e-10 over 50 steps"


def check_optimal_rate_exactness() -> CriterionResult:
    return _run_criterion("optimal-rate-exactness", _optimal_rate_exactness, budget=1.0)


# -- criterion 2 -------------------------------------------------------------


def _region_samples(sigma: float, beta: float):
    """Ten parameter points inside each of the four exactly-attained regions."""
    gamma_star = 1.0 / math.sqrt(sigma * beta)
    samples = {}
    samples["I"] = [(1.0, g) for g in np.geomspace(0.02, 50.0, 10) * gamma_star]
    samples["II"] = [
        (a, f * gamma_star)
        for a, f in zip(np.linspace(0.1, 1.0, 10), np.linspace(0.1, 1.0, 10))
    ]
    gammas_iii = np.geomspace(1.0, 40.0, 10) * gamma_star
    fracs_iii = np.linspace(0.0, 0.9, 10)
    samples["III"] = [
        (1.0 + f * (alpha_upper_bound(g, sigma, beta) - 1.0), g)
        for g, f in zip(gammas_iii, fracs_iii)
    ]
    ub_star = alpha_upper_bound(gamma_star, sigma, beta)
    samples["IV"] = [(f * ub_star, gamma_star) for f in np.linspace(0.05, 0.95, 10)]
    return samples


def _tightness_case_coverage():
    sigma, beta = DEFAULT_SIGMA, DEFAULT_BETA
    problem = default_primal_instance()
    worst_err = 0.0
    count = 0
    for region, points in _region_samples(sigma, beta).items():
        for alpha, gamma in points:
            z0 = worst_start_vector(problem.f, alpha, gamma)
            trace = run_dr(problem, SplitParams(alpha, gamma), z0, max_iter=30, tol=0.0)
            err = abs(fit_rate(trace) - theoretical_rate(alpha, gamma, sigma, beta))
            worst_err = max(worst_err, err)
            count += 1
            if err > 1e-9:
                return False, f"region {region} point (alpha={alpha:g}, gamma={gamma:g}): gap {err:.3e} > 1e-9"
    return True, f"{count} points over 4 regions, worst |empirical - bound| = {worst_err:.3e} <= 1e-9"


def check_tightness_case_coverage() -> CriterionResult:
    return _run_criterion("tightness-case-coverage", _tightness_case_coverage, budget=10.0)


# -- criterion 3 -------------------------------------------------------------


def _contraction_bound_grid():
    sigma, beta = DEFAULT_SIGMA, DEFAULT_BETA
    problem = default_primal_instance()
    gamma_star = 1.0 / math.sqrt(sigma * beta)
    gammas = np.geomspace(gamma_star / 20.0, gamma_star * 20.0, 20)
    alphas = np.linspace(0.05, 1.9, 20)
    points = [
        (alpha, gamma) for alpha in alphas for gamma in gammas if alpha < alpha_upper_bound(gamma, sigma, beta)
    ]
    starts_per_point = 50
    row_alphas, row_gammas = np.repeat(np.array(points), starts_per_point, axis=0).T
    bounds = np.repeat([theoretical_rate(a, g, sigma, beta) for a, g in points], starts_per_point)
    rng = np.random.default_rng(1234)
    runs = run_rows(
        problem,
        "primal-dr",
        row_alphas,
        row_gammas,
        lambda rows: rng.uniform(-1.0, 1.0, (rows.stop - rows.start, problem.dim)),
        max_iter=22,
        tol=0.0,
    )
    excess = fit_rates(runs.step_ratios) - bounds
    unmeasured = runs.diverged | np.isnan(excess)
    if unmeasured.any():
        alpha, gamma = points[int(np.argmax(unmeasured)) // starts_per_point]
        return False, f"a run diverged or was too short to fit at (alpha={alpha:g}, gamma={gamma:g})"
    over = excess > 1e-9
    if over.any():
        row = int(np.argmax(over))
        alpha, gamma = points[row // starts_per_point]
        return False, (
            f"empirical exceeded the bound by {excess[row]:.3e} at "
            f"(alpha={alpha:g}, gamma={gamma:g})"
        )
    return True, (
        f"{excess.size} runs over {len(points)} feasible grid points, "
        f"max(empirical - bound) = {excess.max():.3e} <= 1e-9"
    )


def check_contraction_bound_grid() -> CriterionResult:
    return _run_criterion("contraction-bound-grid", _contraction_bound_grid, budget=60.0)


# -- criterion 4 -------------------------------------------------------------


def _closed_form_evolution():
    problem = default_primal_instance()
    sigma, beta = DEFAULT_SIGMA, DEFAULT_BETA
    gamma_star = 1.0 / math.sqrt(sigma * beta)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(25):
        gamma = gamma_star * 10.0 ** rng.uniform(-1.2, 1.2)
        upper = alpha_upper_bound(gamma, sigma, beta)
        alpha = rng.uniform(0.05, upper - 0.02)
        params = SplitParams(alpha, gamma)
        for index, lam in ((0, sigma), (problem.dim - 1, beta)):
            trace = run_dr(problem, params, basis_vector(problem.dim, index), max_iter=30, tol=0.0)
            for k, z in enumerate(trace.iterates):
                expected = np.zeros(problem.dim)
                expected[index] = predict_iterate(lam, alpha, gamma, k)
                worst = max(worst, float(np.max(np.abs(z.coeffs - expected))))
                if worst > 1e-12:
                    return False, (
                        f"iterate {k} off closed form by {worst:.3e} at "
                        f"(alpha={alpha:g}, gamma={gamma:g}, curvature={lam:g})"
                    )
    return True, f"25 parameter draws x 2 curvature bands x 30 steps, max coordinate error {worst:.3e} <= 1e-12"


def check_closed_form_evolution() -> CriterionResult:
    return _run_criterion("closed-form-evolution", _closed_form_evolution)


# -- criterion 5 -------------------------------------------------------------


def _dual_admm_transfer():
    constants = dual_rate_constants(1.0, 10.0, 1.0, 3.0)
    alpha_opt, gamma_opt, rate_opt = constants.optimal_dual_params()
    s_hat, b_hat = constants.sigma_hat, constants.beta_hat

    fits = {}
    for pairing in ("aligned", "crossed"):
        instance = default_dual_instance(pairing)
        dual_quad = dual_function(instance)
        mu0 = worst_start_vector(dual_quad, alpha_opt, gamma_opt)
        trace = run_dual_dr(instance, SplitParams(alpha_opt, gamma_opt), mu0, max_iter=50, tol=0.0)
        fits[pairing] = fit_rate(trace)
    crossed_err = abs(fits["crossed"] - rate_opt)
    if crossed_err > 1e-10:
        return False, f"crossed pairing missed the dual bound: gap {crossed_err:.3e} > 1e-10"
    if fits["aligned"] > rate_opt + 1e-9:
        return False, f"aligned pairing exceeded the dual bound: {fits['aligned']:.6f} > {rate_opt:.6f}"

    # more crossed-pairing points across the attained regions
    instance = default_dual_instance("crossed")
    dual_quad = dual_function(instance)
    upper_star = alpha_upper_bound(gamma_opt, s_hat, b_hat)
    extra_points = [
        (1.0, 0.3 * gamma_opt),
        (1.0, 4.0 * gamma_opt),
        (0.7, 0.5 * gamma_opt),
        (1.0 + 0.5 * (alpha_upper_bound(2.0 * gamma_opt, s_hat, b_hat) - 1.0), 2.0 * gamma_opt),
    ]
    worst_gap = crossed_err
    for alpha, gamma in extra_points:
        mu0 = worst_start_vector(dual_quad, alpha, gamma)
        trace = run_dual_dr(instance, SplitParams(alpha, gamma), mu0, max_iter=40, tol=0.0)
        gap = abs(fit_rate(trace) - theoretical_rate(alpha, gamma, s_hat, b_hat))
        worst_gap = max(worst_gap, gap)
        if gap > 1e-10:
            return False, f"crossed pairing gap {gap:.3e} > 1e-10 at (alpha={alpha:g}, gamma={gamma:g})"

    # dual splitting vs ADMM: same relaxation, rho = gamma
    points = [
        (a, f * gamma_opt) for a in (0.5, 0.8, 1.0) for f in (0.4, 1.0, 2.5)
    ] + [(0.5 * (1.0 + upper_star), gamma_opt)]
    worst_mismatch = 0.0
    for alpha, gamma in points:
        mu0 = worst_start_vector(dual_quad, alpha, gamma)
        dr_trace = run_dual_dr(instance, SplitParams(alpha, gamma), mu0, max_iter=40, tol=0.0)
        admm_trace = run_admm(
            instance, rho=gamma, alpha=alpha, u0=(1.0 / gamma) * mu0, max_iter=40, tol=0.0
        )
        mismatch = abs(fit_rate(dr_trace) - fit_rate(admm_trace))
        worst_mismatch = max(worst_mismatch, mismatch)
        if mismatch > 1e-8:
            return False, (
                f"ADMM vs dual splitting rate mismatch {mismatch:.3e} > 1e-8 at "
                f"(alpha={alpha:g}, rho={gamma:g})"
            )
    return True, (
        f"crossed pairing attains the dual bound (worst gap {worst_gap:.3e}); aligned measured "
        f"{fits['aligned']:.6f} vs bound {rate_opt:.6f}; ADMM matches dual splitting at 10 points "
        f"(worst mismatch {worst_mismatch:.3e})"
    )


def check_dual_admm_transfer() -> CriterionResult:
    return _run_criterion("dual-admm-transfer", _dual_admm_transfer)


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
        dual_quad = dual_function(instance)
        for _ in range(100):
            mu = Vec(rng.uniform(-3.0, 3.0, dim))
            err = abs(eval_f(dual_quad, mu) - conjugate_oracle(instance, mu))
            worst = max(worst, err)
            if err > 1e-8:
                return False, f"closed-form dual value off the numeric conjugate by {err:.3e} > 1e-8"
    return True, f"5 instances x 100 points, max |closed form - numeric conjugate| = {worst:.3e} <= 1e-8"


def check_conjugate_oracle() -> CriterionResult:
    return _run_criterion("conjugate-oracle", _conjugate_oracle_agreement)


# -- criterion 7 -------------------------------------------------------------


def _psi_monotonicity(rng):
    """psi is strictly decreasing on x > -1 (10^4 ordered pairs)."""
    xs = rng.uniform(-0.999, 50.0, 10_000)
    ys = rng.uniform(-0.999, 50.0, 10_000)
    lo, hi = np.minimum(xs, ys), np.maximum(xs, ys)
    keep = lo < hi
    return all(psi(a) > psi(b) for a, b in zip(lo[keep], hi[keep])), ""


def _psi_reciprocal(rng):
    """psi(x) <= -psi(y) exactly when x*y >= 1 (10^4 pairs, 1e-12 boundary slack)."""
    xs = 10.0 ** rng.uniform(-3.0, 1.7, 10_000)
    ys = rng.uniform(-0.999, 60.0, 10_000)
    pairs = ((x, y) for x, y in zip(xs, ys) if abs(x * y - 1.0) > 1e-12)
    return all((psi(x) <= -psi(y)) == (x * y >= 1.0) for x, y in pairs), ""


def _prox_diag_maps(rng):
    """prox_diag is firmly nonexpansive, refl_prox_diag nonexpansive (1000 pairs each)."""
    quad = default_primal_instance().f
    holds = True
    for gamma in (1e-3, 0.1, 1.0, 10.0, 1e3):
        for _ in range(200):
            x, y = (Vec(rng.uniform(-10.0, 10.0, quad.dim)) for _ in range(2))
            px, py = prox_diag(quad, gamma, x), prox_diag(quad, gamma, y)
            rx, ry = refl_prox_diag(quad, gamma, x), refl_prox_diag(quad, gamma, y)
            holds &= norm(px - py) ** 2 <= inner(px - py, x - y) + 1e-12
            holds &= norm(rx - ry) <= norm(x - y) + 1e-12
    return holds, ""


def _prox_g_maps(rng):
    """prox_g is firmly nonexpansive, refl_prox_g nonexpansive, for each g (500 pairs each)."""
    dim = default_primal_instance().dim
    holds = True
    for kind in (GFunction.ZERO, GFunction.ZERO_INDICATOR):
        for _ in range(500):
            x, y = (Vec(rng.uniform(-10.0, 10.0, dim)) for _ in range(2))
            px, py = prox_g(kind, 1.0, x), prox_g(kind, 1.0, y)
            rx, ry = refl_prox_g(kind, 1.0, x), refl_prox_g(kind, 1.0, y)
            holds &= norm(px - py) ** 2 <= inner(px - py, x - y) + 1e-12
            holds &= norm(rx - ry) <= norm(x - y) + 1e-12
    return holds, ""


def _prox_oracle_agreement(rng):
    """The search oracle agrees with the closed-form prox (100 draws, gamma log-uniform)."""
    quad = default_primal_instance().f
    worst = 0.0
    for _ in range(100):
        gamma = 10.0 ** rng.uniform(-3.0, 3.0)
        y = Vec(rng.uniform(-5.0, 5.0, quad.dim))
        oracle = prox_oracle(lambda i, t: 0.5 * quad.weights[i] * t * t, gamma, y)
        worst = max(worst, float(np.max(np.abs(prox_diag(quad, gamma, y).coeffs - oracle.coeffs))))
    return worst <= 1e-10, f"max error {worst:.3e}"


def _coupling_operator(rng):
    """The coupling operator is self-adjoint, with norm bounds attained on basis vectors."""
    op = default_dual_instance("aligned").a
    holds = True
    for _ in range(1000):
        x, y = (Vec(rng.uniform(-1.0, 1.0, op.dim)) for _ in range(2))
        holds &= abs(inner(apply_operator(op, x), y) - inner(x, apply_operator(op, y))) <= 1e-12
        nx, nax = norm(x), norm(apply_operator(op, x))
        holds &= op.theta * nx - 1e-12 <= nax <= op.zeta * nx + 1e-12
    low, high = (basis_vector(op.dim, int(j)) for j in (np.argmin(op.weights), np.argmax(op.weights)))
    holds &= abs(norm(apply_operator(op, low)) - op.theta) <= 1e-12
    holds &= abs(norm(apply_operator(op, high)) - op.zeta) <= 1e-12
    return holds, ""


def _coefficient_norm(rng):
    """The squared norm equals the coefficient sum of squares (1000 vectors)."""
    rows = rng.uniform(-10.0, 10.0, (1000, 8))
    return all(abs(norm(Vec(c)) ** 2 - c @ c) <= 1e-12 * max(1.0, c @ c) for c in rows), ""


def _isometry(rng):
    """Orthogonal changes of basis preserve the norm (10 maps x 100 vectors)."""
    holds = True
    for qseed in range(10):
        q = random_basis_map(8, qseed)
        for v in map(Vec, rng.uniform(-10.0, 10.0, (100, 8))):
            holds &= abs(norm(change_basis(v, q)) - norm(v)) <= 1e-12 * max(1.0, norm(v))
    return holds, ""


#: the property sub-checks, in the order the battery runs them on one stream.
#: Each takes the generator and returns ``(passed, note)``, where the note is
#: a measured error worth printing, or empty.
_PROPERTY_CHECKS = {
    "psi-monotonicity": _psi_monotonicity,
    "psi-reciprocal": _psi_reciprocal,
    "prox-diag": _prox_diag_maps,
    "prox-g": _prox_g_maps,
    "prox-oracle": _prox_oracle_agreement,
    "coupling-operator": _coupling_operator,
    "coefficient-norm": _coefficient_norm,
    "isometry": _isometry,
}


def _property_suites():
    rng = np.random.default_rng(2024)
    results = [(name, *check(rng)) for name, check in _PROPERTY_CHECKS.items()]
    failed = [f"{name} ({note})" if note else name for name, passed, note in results if not passed]
    if failed:
        return False, "failed subchecks: " + ", ".join(failed)
    notes = "; ".join(f"{name} {note}" for name, _, note in results if note)
    return True, f"all property suites passed ({notes})"


def check_property_suites() -> CriterionResult:
    return _run_criterion("property-suites", _property_suites)


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
    for _ in range(2):
        fd, path = tempfile.mkstemp(suffix=".csv")
        os.close(fd)
        try:
            code = cli.main(flags + ["--out", path])
            if code != 0:
                return False, f"sweep exited with code {code}"
            with open(path, "rb") as fh:
                outputs.append(fh.read())
        finally:
            os.unlink(path)
    if outputs[0] != outputs[1]:
        return False, "two seeded sweeps produced different bytes"
    return True, f"two seeded sweeps produced byte-identical CSVs ({len(outputs[0])} bytes)"


def check_sweep_determinism() -> CriterionResult:
    return _run_criterion("sweep-determinism", _sweep_determinism)


ALL_CHECKS = [
    check_optimal_rate_exactness,
    check_tightness_case_coverage,
    check_contraction_bound_grid,
    check_closed_form_evolution,
    check_dual_admm_transfer,
    check_conjugate_oracle,
    check_property_suites,
    check_sweep_determinism,
]


def run_all(verbose: bool = True) -> list:
    """Run every criterion, printing one PASS/FAIL line each when verbose."""
    results = []
    for check in ALL_CHECKS:
        result = check()
        results.append(result)
        if verbose:
            print(result.line())
    return results
