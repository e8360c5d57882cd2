import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitrate.functions import CompositeProblem, DiagQuadratic, GFunction, dual_function
from splitrate.hilbert import Vec, basis_rows, random_basis_map
from splitrate.rates import alpha_upper_bound, optimal_params, theoretical_rate
from splitrate import acceptance, cli, splitting
from splitrate.splitting import (
    DivergenceError,
    IterateTrace,
    SplitParams,
    fit_rate,
    fit_rates,
    run_admm,
    run_dr,
    run_rows,
)
from splitrate.worstcase import (
    default_dual_instance,
    default_primal_instance,
    make_dual_instance,
    make_primal_instance,
    predict_iterate,
    worst_coordinates,
)

SIGMA, BETA = 1.0, 10.0
GAMMA_STAR = 1.0 / math.sqrt(SIGMA * BETA)


@pytest.fixture
def primal():
    return default_primal_instance()


def _unit(dim, index):
    """The one-row start along coordinate ``index``."""
    return Vec(basis_rows(dim, [index])[0])


def _worst(quad, alpha, gamma):
    """The one-row worst start of ``quad`` at ``(alpha, gamma)``."""
    return _unit(quad.dim, worst_coordinates(quad, alpha, gamma))


def _trace_from_distances(dists):
    """Synthetic trace with prescribed distance sequence."""
    vecs = [Vec([d, 0.0]) for d in dists]
    dists = np.asarray(dists, dtype=float)
    ratios = dists[1:] / dists[:-1]
    return IterateTrace(vecs, Vec(np.zeros(2)), dists, ratios, converged=True)


# -- SplitParams --------------------------------------------------------------


def test_split_params_validation():
    with pytest.raises(ValueError):
        SplitParams(1.0, 0.0)
    with pytest.raises(ValueError):
        SplitParams(1.0, -2.0)
    with pytest.raises(ValueError):
        SplitParams(0.0, 1.0)
    with pytest.raises(ValueError):
        SplitParams(-0.5, 1.0)


# -- run_dr -------------------------------------------------------------------


def _one_step(problem, params, z0):
    """The iterate after one :func:`run_dr` step from ``z0``."""
    return run_dr(problem, params, z0, max_iter=1, tol=0.0).iterates[1].coeffs


def test_dr_step_unit_weight_annihilates():
    # gamma * weight = 1 makes the reflection factor 0, so at alpha 1 one
    # step sends the coordinate to 0
    p = make_primal_instance(1.0, 1.0, 2, {0})
    assert np.array_equal(_one_step(p, SplitParams(1.0, 1.0), _unit(2, 0)), [0.0, 0.0])
    p = make_primal_instance(2.5, 2.5, 2, {0})
    assert np.array_equal(_one_step(p, SplitParams(1.0, 1.0 / 2.5), _unit(2, 1)), [0.0, 0.0])


def test_run_dr_half_relaxation_coefficient():
    # alpha 1/2, gamma 1, weight 3: coefficient 1 - a + a*(1-3)/(1+3) = 0.25
    p = make_primal_instance(3.0, 3.0, 2, {0})
    assert np.allclose(_one_step(p, SplitParams(0.5, 1.0), _unit(2, 0)), [0.25, 0.0], atol=1e-15)


def test_half_step_is_the_prox():
    # at alpha 1/2 with g = 0 a step is (z + R_f z)/2 = prox_{gamma f}(z),
    # which shrinks coordinate i by 1/(1 + gamma*w_i)
    p = CompositeProblem(f=DiagQuadratic(np.array([1.0, 2.0])), g=GFunction.ZERO)
    assert np.array_equal(_one_step(p, SplitParams(0.5, 1.0), _unit(2, 0)), [0.5, 0.0])
    # weight 4, gamma 0.5, input 3 -> 3 / (1 + 2) = 1
    p = CompositeProblem(f=DiagQuadratic(np.array([4.0])), g=GFunction.ZERO)
    assert _one_step(p, SplitParams(0.5, 0.5), Vec([3.0]))[0] == pytest.approx(1.0, abs=1e-15)


def _manual_step(problem, params, z):
    """``(1 - alpha) z + alpha R_g(R_f(z))`` written out: ``R_f`` scales
    coordinate i by ``(1 - gamma*w_i) / (1 + gamma*w_i)``, ``R_g`` is the
    identity or a negation."""
    gw = params.gamma * problem.f.weights
    reflected = (1.0 - gw) / (1.0 + gw) * z
    if problem.g is GFunction.ZERO_INDICATOR:
        reflected = -reflected
    return (1 - params.alpha) * z + params.alpha * reflected


def test_dr_step_matches_manual_composition(primal):
    rng = np.random.default_rng(21)
    params = SplitParams(0.7, 0.9)
    for g in (GFunction.ZERO, GFunction.ZERO_INDICATOR):
        problem = CompositeProblem(f=primal.f, g=g)
        for _ in range(50):
            z = rng.uniform(-5, 5, primal.dim)
            assert np.array_equal(_one_step(problem, params, Vec(z)), _manual_step(problem, params, z))


def test_run_dr_rejects_coupled_problem():
    p = default_dual_instance()
    with pytest.raises(ValueError, match="identity coupling"):
        run_dr(p, SplitParams(1.0, 1.0), Vec(np.zeros(p.dim)))


def test_run_dr_at_fixed_point_has_length_one(primal):
    trace = run_dr(primal, SplitParams(1.0, 1.0), Vec(np.zeros(primal.dim)))
    assert len(trace.iterates) == 1
    assert trace.converged
    assert trace.distances[0] == 0.0
    assert trace.step_ratios.size == 0


def test_run_dr_optimal_params_constant_ratio(primal):
    alpha, gamma, rate = optimal_params(SIGMA, BETA)
    z0 = _worst(primal.f, alpha, gamma)
    trace = run_dr(primal, SplitParams(alpha, gamma), z0, max_iter=40, tol=0.0)
    valid = trace.step_ratios[np.isfinite(trace.step_ratios)]
    assert valid.size >= 30
    assert np.max(np.abs(valid - rate)) <= 1e-12


@pytest.mark.parametrize("gamma", [0.05, 0.4, 2.0])
@pytest.mark.parametrize("index,lam", [(0, SIGMA), (7, BETA)])
def test_run_dr_single_band_ratio_is_step_multiplier(primal, gamma, index, lam):
    trace = run_dr(primal, SplitParams(1.0, gamma), _unit(8, index), max_iter=25, tol=0.0)
    expected = abs((1.0 - gamma * lam) / (1.0 + gamma * lam))
    valid = trace.step_ratios[np.isfinite(trace.step_ratios)]
    assert np.max(np.abs(valid - expected)) <= 1e-12


def test_run_dr_distances_nonincreasing_when_feasible(primal):
    rng = np.random.default_rng(22)
    for _ in range(30):
        gamma = GAMMA_STAR * 10.0 ** rng.uniform(-1.5, 1.5)
        alpha = rng.uniform(0.05, alpha_upper_bound(gamma, SIGMA, BETA) - 0.01)
        z0 = Vec(rng.uniform(-1, 1, 8))
        trace = run_dr(primal, SplitParams(alpha, gamma), z0, max_iter=30, tol=0.0)
        assert np.all(np.diff(trace.distances) <= 1e-12)


def test_run_dr_divergence_raises(primal):
    params = SplitParams(1.95, 2.0)  # far beyond the feasible relaxation limit
    with pytest.raises(DivergenceError) as excinfo:
        run_dr(primal, params, _unit(8, 7), max_iter=500, tol=0.0)
    assert excinfo.value.trace is not None
    assert excinfo.value.trace.distances[-1] > 10.0


def test_run_dr_stops_on_tolerance(primal):
    alpha, gamma, _ = optimal_params(SIGMA, BETA)
    z0 = _worst(primal.f, alpha, gamma)
    trace = run_dr(primal, SplitParams(alpha, gamma), z0, max_iter=500, tol=1e-8)
    assert trace.converged
    assert len(trace.iterates) < 60


@st.composite
def two_bands(draw):
    """sigma <= beta (condition number up to 1e8), dim 2..64 and a random
    band split."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    beta = sigma * 10.0 ** draw(st.floats(0.0, 8.0))
    dim = draw(st.integers(2, 64))
    idx_sigma = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))
    return sigma, beta, dim, idx_sigma


@st.composite
def dr_cases(draw):
    """A two-band instance from :func:`two_bands`, either nonsmooth term, a
    step size around 1/sqrt(sigma*beta), a relaxation below
    alpha_upper_bound and a start."""
    sigma, beta, dim, idx_sigma = draw(two_bands())
    g = draw(st.sampled_from([GFunction.ZERO, GFunction.ZERO_INDICATOR]))
    gamma = 10.0 ** draw(st.floats(-2.0, 2.0)) / math.sqrt(sigma * beta)
    alpha = draw(st.floats(0.01, 0.99)) * alpha_upper_bound(gamma, sigma, beta)
    f = make_primal_instance(sigma, beta, dim, idx_sigma).f
    z0 = Vec(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, dim))
    return CompositeProblem(f=f, g=g), SplitParams(alpha, gamma), z0


def _dense_run(problem, params, q, z0, steps):
    """One run of the battery's dense reference in the basis ``q``, from
    ``q @ z0``: its distances and its last iterate, rotated back."""
    alphas, gammas = np.array([params.alpha]), np.array([params.gamma])
    distances, last = acceptance._dense_dr(problem.f.weights, problem.g, q, alphas, gammas, (q @ z0)[None], steps)
    return distances[0], q.T @ last[0]


@settings(deadline=None, max_examples=60)
@given(dr_cases(), st.booleans(), st.integers(0, 2**32 - 1))
def test_run_dr_matches_the_dense_reference(case, rotated, seed):
    # the battery's dense reference, in the eigenbasis (Q = I) or a rotated
    # one, against the diagonal engine: distances and the last iterate. In a
    # rotated basis the dense solve with I + gamma H is accurate to eps times
    # that matrix's condition number, not to eps, so the tolerance scales by it
    problem, params, z0 = case
    w = problem.f.weights
    q = random_basis_map(problem.dim, seed) if rotated else np.eye(problem.dim)
    trace = run_dr(problem, params, z0, max_iter=30, tol=0.0)
    steps = trace.n_steps
    assert steps == 30 or trace.converged
    distances, last = _dense_run(problem, params, q, z0.coeffs, 30)
    condition = (1.0 + params.gamma * w.max()) / (1.0 + params.gamma * w.min()) if rotated else 1.0
    tol = 1e-12 * condition * np.linalg.norm(z0.coeffs)
    # a run that hit its fixed point exactly (a zero step, as at alpha = 1 and
    # gamma = 1/sigma = 1/beta) stopped there, and the dense run stays there
    engine = np.concatenate([trace.distances, np.full(30 - steps, trace.distances[-1])])
    assert np.max(np.abs(distances - engine)) <= tol
    assert np.max(np.abs(last - trace.iterates[-1].coeffs)) <= tol


@settings(deadline=None, max_examples=60)
@given(dr_cases())
def test_run_dr_iterates_bitwise_equal_prox_composition(case):
    problem, params, z0 = case
    trace = run_dr(problem, params, z0, max_iter=30, tol=0.0)
    assert trace.n_steps == 30 or trace.converged
    z = z0.coeffs
    for kept in trace.iterates:
        assert kept.coeffs.tobytes() == z.tobytes()
        z = _manual_step(problem, params, z)


def test_run_dr_rejects_start_of_wrong_dimension(primal):
    with pytest.raises(ValueError, match="dimension"):
        run_dr(primal, SplitParams(1.0, 1.0), Vec([1.0]))


def test_run_dr_basis_invariance(primal):
    # the dense reference run in a rotated frame reproduces the distance
    # sequence of the diagonal run
    params = SplitParams(0.8, 0.37)
    z0 = np.random.default_rng(23).uniform(-1, 1, 8)
    trace = run_dr(primal, params, Vec(z0), max_iter=40, tol=0.0)
    distances, _ = _dense_run(primal, params, random_basis_map(8, 5), z0, 40)
    assert np.max(np.abs(distances - trace.distances)) <= 1e-10


def test_run_dr_mixed_start_evolves_coordinatewise(primal):
    alpha, gamma = 0.9, 0.21
    z0 = Vec(basis_rows(8, [0, 7]).sum(axis=0))
    trace = run_dr(primal, SplitParams(alpha, gamma), z0, max_iter=30, tol=0.0)
    for k, z in enumerate(trace.iterates):
        expected = np.zeros(8)
        expected[0] = predict_iterate(SIGMA, alpha, gamma, k)
        expected[7] = predict_iterate(BETA, alpha, gamma, k)
        assert np.max(np.abs(z.coeffs - expected)) <= 1e-12


def test_rates_do_not_depend_on_dimension():
    alpha, gamma = 1.0, 0.17
    fits = []
    for dim in (2, 8, 64):
        p = make_primal_instance(SIGMA, BETA, dim, range(dim // 2))
        z0 = _worst(p.f, alpha, gamma)
        fits.append(fit_rate(run_dr(p, SplitParams(alpha, gamma), z0, max_iter=30, tol=0.0)))
    assert max(fits) - min(fits) <= 1e-12


def test_run_dr_bound_holds_from_random_starts(primal):
    rng = np.random.default_rng(24)
    for _ in range(60):
        gamma = GAMMA_STAR * 10.0 ** rng.uniform(-1.3, 1.3)
        alpha = rng.uniform(0.05, alpha_upper_bound(gamma, SIGMA, BETA) - 0.01)
        bound = theoretical_rate(alpha, gamma, SIGMA, BETA)
        z0 = Vec(rng.uniform(-1, 1, 8))
        trace = run_dr(primal, SplitParams(alpha, gamma), z0, max_iter=25, tol=0.0)
        assert fit_rate(trace) <= bound + 1e-9


# -- dual DR ------------------------------------------------------------------


def _dual_dr(problem, alphas, gammas, starts, max_iter=200, tol=1e-13):
    """``run_rows`` in "dual-dr" mode over the rows of ``starts``."""
    starts = np.asarray(starts, dtype=float)
    return run_rows(problem, "dual-dr", alphas, gammas, lambda rows: starts[rows], max_iter=max_iter, tol=tol)


def test_run_dual_dr_requires_coupled_indicator(primal):
    with pytest.raises(ValueError, match="indicator of the origin and an explicit diagonal coupling"):
        _dual_dr(primal, [1.0], [1.0], np.zeros((1, 8)))


def test_run_dual_dr_zero_start():
    runs = _dual_dr(default_dual_instance(), [1.0], [1.0], np.zeros((1, 8)))
    assert runs.steps[0] == 0 and not runs.diverged[0]
    assert runs.distances.tolist() == [[0.0]]


def test_run_dual_dr_isotropic_dual_ratio():
    # weights [1,4] with gains [1,2] aligned make the dual isotropic with
    # curvature 1: any unit start contracts by |(1-gamma)/(1+gamma)|
    p = make_dual_instance(1.0, 4.0, 1.0, 2.0, 2, {0}, pairing="aligned")
    assert np.array_equal(dual_function(p).weights, [1.0, 1.0])
    gammas = np.repeat([0.25, 0.5, 2.0], 2)
    runs = _dual_dr(p, np.ones(6), gammas, np.tile(np.eye(2), (3, 1)), max_iter=25, tol=0.0)
    for gamma, ratios in zip(gammas, runs.step_ratios):
        expected = abs((1.0 - gamma) / (1.0 + gamma))
        valid = ratios[np.isfinite(ratios)]
        assert valid.size and np.max(np.abs(valid - expected)) <= 1e-12


def test_run_dual_dr_attains_dual_optimal_rate():
    # crossed gains put the extreme dual curvatures on the spectrum, so the
    # dual iteration at its optimal parameters contracts at
    # (sqrt(kappa)-1)/(sqrt(kappa)+1) with kappa = zeta^2*beta/(theta^2*sigma)
    sigma, beta, theta, zeta = 1.0, 4.0, 1.0, 2.0
    kappa = zeta**2 * beta / (theta**2 * sigma)
    expected = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    gamma = math.sqrt(beta * sigma) / (zeta * theta)
    p = make_dual_instance(sigma, beta, theta, zeta, 2, {0}, pairing="crossed")
    runs = _dual_dr(p, np.ones(2), np.full(2, gamma), np.eye(2), max_iter=25, tol=0.0)
    assert np.max(np.abs(fit_rates(runs.step_ratios) - expected)) <= 1e-10


# -- run_admm -----------------------------------------------------------------


def test_run_admm_fixed_at_optimum():
    p = default_dual_instance()
    trace = run_admm(p, rho=1.0, alpha=1.0)
    assert len(trace.iterates) == 1 and trace.converged
    assert np.array_equal(trace.final_x.coeffs, np.zeros(8))


def test_run_admm_validation(primal):
    p = default_dual_instance()
    with pytest.raises(ValueError):
        run_admm(primal, rho=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        run_admm(p, rho=0.0, alpha=1.0)
    with pytest.raises(ValueError):
        run_admm(p, rho=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        run_admm(p, rho=1.0, alpha=1.0, u0=Vec(np.zeros(3)))


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
@pytest.mark.parametrize("rho_scale", [0.4, 1.0, 2.5])
def test_run_admm_matches_dual_dr_rate(alpha, rho_scale):
    p = default_dual_instance("crossed")
    d = dual_function(p)
    _, gamma_opt, _ = optimal_params(d.sigma, d.beta)
    rho = rho_scale * gamma_opt
    mu0 = _worst(d, alpha, rho)
    dr = run_dr(CompositeProblem(d, GFunction.ZERO), SplitParams(alpha, rho), mu0, max_iter=40, tol=0.0)
    admm = run_admm(p, rho=rho, alpha=alpha, u0=Vec(mu0.coeffs * (1.0 / rho)), max_iter=40, tol=0.0)
    assert abs(fit_rate(dr) - fit_rate(admm)) <= 1e-8


def test_run_admm_classic_half_relaxation_contracts():
    # alpha = 1/2 is the unrelaxed method; per-coordinate dual factor is
    # 1/(1 + rho * nu^2 / lambda)
    p = default_dual_instance("aligned")
    rho = 0.7
    d = dual_function(p)
    factors = 1.0 / (1.0 + rho * d.weights)
    mu0 = Vec(np.ones(8))
    trace = run_admm(p, rho=rho, alpha=0.5, u0=Vec(mu0.coeffs * (1.0 / rho)), max_iter=30, tol=0.0)
    for k, mu in enumerate(trace.iterates):
        assert np.max(np.abs(mu.coeffs - factors**k)) <= 1e-12


def test_run_admm_kkt_residuals():
    p = default_dual_instance("crossed")
    rng = np.random.default_rng(25)
    u0 = Vec(rng.uniform(-1, 1, 8))
    rho = 0.9
    trace = run_admm(p, rho=rho, alpha=1.0, u0=u0, max_iter=2000, tol=1e-15)
    assert trace.converged
    xbar = trace.final_x
    mubar = trace.iterates[-1]
    stationarity = p.f.weights * xbar.coeffs + p.a.weights * mubar.coeffs
    assert np.linalg.norm(stationarity) <= 1e-8
    assert np.linalg.norm(p.a.weights * xbar.coeffs) <= 1e-8


def test_run_admm_divergence():
    p = default_dual_instance("crossed")
    d = dual_function(p)
    _, gamma_opt, _ = optimal_params(d.sigma, d.beta)
    upper = alpha_upper_bound(gamma_opt, d.sigma, d.beta)
    with pytest.raises(DivergenceError):
        run_admm(p, rho=gamma_opt, alpha=upper + 0.7, u0=Vec(np.ones(8)), max_iter=2000, tol=0.0)


# -- fit_rate -----------------------------------------------------------------


def test_fit_rate_constant_ratios():
    dists = [1.0 * (1.0 / 3.0) ** k for k in range(8)]
    assert fit_rate(_trace_from_distances(dists)) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_fit_rate_uses_tail():
    # ratios [0.5, 0.4, 0.4, 0.4, 0.4]: tail of ceil(5/2) = 3 -> 0.4
    dists = [1.0, 0.5, 0.2, 0.08, 0.032, 0.0128]
    assert fit_rate(_trace_from_distances(dists)) == pytest.approx(0.4, rel=1e-12)


def test_fit_rate_trace_too_short(primal):
    trace = run_dr(primal, SplitParams(1.0, 1.0), Vec(np.zeros(8)))
    with pytest.raises(ValueError, match="too short"):
        fit_rate(trace)
    with pytest.raises(ValueError, match="too short"):
        fit_rate(_trace_from_distances([1.0, 0.5, 0.25, 0.125]))


def _reference_fit(ratios):
    """The single-trace fit written out as a loop over one row."""
    valid = ratios[np.isfinite(ratios)]
    if valid.size < 5:
        return math.nan
    tail = valid[-math.ceil(valid.size / 2) :]
    if np.any(tail == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(tail))))


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.tuples(st.integers(0, 40), st.floats(0.0, 0.5), st.booleans()), min_size=1, max_size=12),
    st.integers(0, 2**32 - 1),
)
def test_fit_rates_rows_equal_the_single_row_fit_bitwise(shapes, seed):
    # rows of different lengths, with a share of invalid (NaN or inf)
    # ratios and sometimes a zero ratio in them
    rng = np.random.default_rng(seed)
    rows = []
    for size, invalid_share, with_zero in shapes:
        row = rng.uniform(1e-3, 1.5, size)
        row[rng.random(size) < invalid_share] = rng.choice([math.nan, math.inf])
        if with_zero and size:
            row[rng.integers(size)] = 0.0
        rows.append(row)
    ratios = np.full((len(rows), max(r.size for r in rows)), np.nan)
    for i, row in enumerate(rows):
        ratios[i, : row.size] = row
    fits = fit_rates(ratios)
    for i, row in enumerate(rows):
        assert np.array_equal(fits[i], _reference_fit(row), equal_nan=True)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 64), st.floats(-200.0, 200.0), st.integers(0, 2**32 - 1))
def test_row_norms_equal_the_dot_product_norm_bitwise(dim, log_scale, seed):
    rows = np.random.default_rng(seed).uniform(-1.0, 1.0, (5, dim)) * 2.0**log_scale
    norms = splitting._norms(rows)
    for row, n in zip(rows, norms):
        assert n == math.sqrt(float(np.dot(row, row))) == float(np.linalg.norm(row))


def _reference_long_norm(row, chunk):
    """The chunked norm written out as a loop over the chunks of one row."""
    full = row.size // chunk
    dots = np.array([np.dot(row[i : i + chunk], row[i : i + chunk]) for i in range(0, full * chunk, chunk)])
    tail = row[full * chunk :]
    return math.sqrt(float(dots.sum() + np.dot(tail, tail)))


@pytest.mark.parametrize("dim", [8193, 16384, 20000, 3 * 8192 + 5])
def test_long_row_norms_sum_fixed_chunks_in_order(dim):
    rows = np.random.default_rng(dim).uniform(-1.0, 1.0, (3, dim))
    norms = splitting._norms(rows)
    for row, n in zip(rows, norms):
        assert n == _reference_long_norm(row, splitting.NORM_CHUNK)
    # the chunks are views, so a strided array is normed in place
    wide = np.zeros((3, 2 * dim))
    wide[:, ::2] = rows
    for row, n in zip(wide[:, ::2], splitting._norms(wide[:, ::2])):
        assert n == _reference_long_norm(row, splitting.NORM_CHUNK)


#: kinds of rows mixed into one batch: a feasible relaxation, one above
#: alpha_upper_bound (stopped by the 10x guard when it grows fast enough), and
#: a zero start (stopped at the first step as a fixed point)
ROW_KINDS = ("feasible", "above-bound", "zero-start")


@st.composite
def row_batches(draw):
    """A two-band instance (condition number up to 1e8, dim 2..64, random band
    split), an engine and its problem, and a batch of rows of mixed kinds."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    beta = sigma * 10.0 ** draw(st.floats(0.0, 8.0))
    dim = draw(st.integers(2, 64))
    idx_sigma = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))
    mode = draw(st.sampled_from(splitting.MODES))
    if mode == "primal-dr":
        g = draw(st.sampled_from([GFunction.ZERO, GFunction.ZERO_INDICATOR]))
        problem = CompositeProblem(f=make_primal_instance(sigma, beta, dim, idx_sigma).f, g=g)
        curvatures = problem.f
    else:
        theta = 10.0 ** draw(st.floats(-1.0, 1.0))
        zeta = theta * 10.0 ** draw(st.floats(0.01, 1.0))
        pairing = draw(st.sampled_from(["aligned", "crossed"]))
        problem = make_dual_instance(sigma, beta, theta, zeta, dim, idx_sigma, pairing)
        curvatures = dual_function(problem)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphas, gammas, starts = [], [], []
    for kind in draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=8)):
        gamma = 10.0 ** draw(st.floats(-2.0, 2.0)) / math.sqrt(curvatures.sigma * curvatures.beta)
        upper = alpha_upper_bound(gamma, curvatures.sigma, curvatures.beta)
        if kind == "above-bound":
            alpha = upper * draw(st.floats(1.05, 1.9))
        else:
            alpha = upper * draw(st.floats(0.01, 0.99))
        alphas.append(alpha)
        gammas.append(gamma)
        starts.append(np.zeros(dim) if kind == "zero-start" else rng.uniform(-1.0, 1.0, dim))
    max_iter = draw(st.integers(0, 80))
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-4, 1e-2, 0.3]))
    return problem, mode, np.array(alphas), np.array(gammas), np.array(starts), max_iter, tol


def _single_run(problem, mode, alpha, gamma, start, max_iter, tol):
    """The one-row engine run for a batch row: (trace, diverged)."""
    try:
        if mode == "admm":
            u0 = Vec(start * (1.0 / gamma))
            trace = run_admm(problem, rho=gamma, alpha=alpha, u0=u0, max_iter=max_iter, tol=tol)
        else:
            if mode == "dual-dr":
                problem = CompositeProblem(dual_function(problem), GFunction.ZERO)
            trace = run_dr(problem, SplitParams(alpha, gamma), Vec(start), max_iter=max_iter, tol=tol)
    except DivergenceError as exc:
        return exc.trace, True
    return trace, False


@settings(deadline=None, max_examples=80)
@given(row_batches())
def test_batch_rows_equal_their_single_runs_bitwise(case):
    problem, mode, alphas, gammas, starts, max_iter, tol = case
    runs = run_rows(problem, mode, alphas, gammas, lambda rows: starts[rows], max_iter=max_iter, tol=tol)
    fits = fit_rates(runs.step_ratios)
    assert runs.distances.shape[0] == len(alphas)
    for i in range(len(alphas)):
        trace, diverged = _single_run(problem, mode, alphas[i], gammas[i], starts[i], max_iter, tol)
        steps = trace.n_steps
        assert runs.steps[i] == steps
        assert runs.diverged[i] == diverged
        assert runs.distances[i, : steps + 1].tobytes() == trace.distances.tobytes()
        assert np.all(np.isnan(runs.distances[i, steps + 1 :]))
        try:
            single_fit = fit_rate(trace)
        except ValueError:
            single_fit = math.nan
        assert np.array_equal(fits[i], single_fit, equal_nan=True)


def test_batch_rows_stop_for_each_reason_in_one_batch(primal):
    # one row per stop reason: tol, the 10x guard, a fixed-point start, and
    # the iteration budget
    gamma = GAMMA_STAR
    upper = alpha_upper_bound(gamma, SIGMA, BETA)
    alphas = np.array([1.0, 1.9 * upper, 0.5, 0.05])
    starts = np.array([np.ones(8), np.ones(8), np.zeros(8), np.ones(8)])
    runs = run_rows(primal, "primal-dr", alphas, np.full(4, gamma), lambda rows: starts[rows], max_iter=40, tol=1e-3)
    assert list(runs.diverged) == [False, True, False, False]
    assert runs.steps[2] == 0 and runs.steps[3] == 40
    assert 0 < runs.steps[0] < 40 and 0 < runs.steps[1] < 40
    for i in range(4):
        trace, diverged = _single_run(primal, "primal-dr", alphas[i], gamma, starts[i], 40, 1e-3)
        assert (trace.n_steps, diverged) == (runs.steps[i], runs.diverged[i])
        assert runs.distances[i, : trace.n_steps + 1].tobytes() == trace.distances.tobytes()


@pytest.mark.parametrize("mode", splitting.MODES)
def test_batch_rows_stopping_at_many_steps_equal_their_single_runs(mode):
    # 48 rows that stop by tol, by the guard, at a zero start, or at the
    # budget, at many distinct steps: stopped rows are first stepped on as
    # NaN rows and later gathered out, and no live row may notice either
    problem = default_primal_instance() if mode == "primal-dr" else default_dual_instance("crossed")
    curvatures = problem.f if mode == "primal-dr" else dual_function(problem)
    rng = np.random.default_rng(29)
    n, max_iter, tol = 48, 60, 1e-6
    gammas = 10.0 ** rng.uniform(-1.5, 1.5, n) / math.sqrt(curvatures.sigma * curvatures.beta)
    upper = alpha_upper_bound(gammas, curvatures.sigma, curvatures.beta)
    kinds = rng.choice(3, n, p=[0.7, 0.2, 0.1])
    alphas = upper * np.where(kinds == 1, rng.uniform(1.05, 1.9, n), rng.uniform(0.05, 0.99, n))
    starts = rng.uniform(-1.0, 1.0, (n, problem.dim))
    starts[kinds == 2] = 0.0
    runs = run_rows(problem, mode, alphas, gammas, lambda rows: starts[rows], max_iter=max_iter, tol=tol)
    assert len(set(runs.steps.tolist())) >= 15
    assert runs.diverged.any() and (runs.steps == 0).any() and (runs.steps == max_iter).any()
    for i in range(n):
        trace, diverged = _single_run(problem, mode, alphas[i], gammas[i], starts[i], max_iter, tol)
        assert (trace.n_steps, diverged) == (runs.steps[i], runs.diverged[i])
        assert runs.distances[i, : trace.n_steps + 1].tobytes() == trace.distances.tobytes()
        assert np.all(np.isnan(runs.distances[i, trace.n_steps + 1 :]))


@pytest.mark.parametrize("mode", splitting.MODES)
def test_stopped_rows_stepped_on_raise_no_float_warnings(mode):
    # one row trips the guard at once; the other three keep the batch more
    # than half live for 3000 steps, so the stopped row is stepped on all
    # that time. Left to grow, it would overflow, and pytest turns the
    # overflow warning into an error.
    problem = default_primal_instance() if mode == "primal-dr" else default_dual_instance("crossed")
    curvatures = problem.f if mode == "primal-dr" else dual_function(problem)
    gamma = 30.0 / math.sqrt(curvatures.sigma * curvatures.beta)
    upper = alpha_upper_bound(gamma, curvatures.sigma, curvatures.beta)
    alphas = np.array([4.0 * upper, 0.999 * upper, 0.998 * upper, 0.997 * upper])
    starts = np.ones((4, problem.dim))
    runs = run_rows(problem, mode, alphas, np.full(4, gamma), lambda rows: starts[rows], max_iter=3000, tol=0.0)
    assert list(runs.diverged) == [True, False, False, False]
    assert list(runs.steps[1:]) == [3000] * 3
    assert np.all(np.isnan(runs.distances[0, runs.steps[0] + 1 :]))


# -- replayed iterates ----------------------------------------------------------


def _norm(v):
    return math.sqrt(float(np.dot(v, v)))


def _reference_dr(weights, negate, alpha, gamma, z, max_iter, tol):
    """One relaxed DR run written out as a loop that keeps every iterate,
    with the step's expressions before iterates were replayed: (iterates,
    diverged)."""
    gw = gamma * weights
    refl = (1.0 - gw) / (1.0 + gw)
    if negate:
        refl = -refl
    iterates, first = [z], _norm(z)
    for k in range(max_iter):
        z_next = z * (1.0 - alpha) + refl * z * alpha
        if k == 0 and np.array_equal(z_next, z):
            break
        iterates.append(z_next)
        if first > 0.0 and _norm(z_next) > 10.0 * first:
            return iterates, True
        if _norm(z_next - z) <= tol:
            break
        z = z_next
    return iterates, False


def _reference_admm(lam, nu, alpha, rho, u, max_iter, tol):
    """One scaled ADMM run written out the same way, from ``x = w = 0``, with
    the ``- w`` pass that the engine drops as an identity: (iterates,
    diverged, final x)."""
    relax, scale, denom = 2.0 * alpha, rho * nu, lam + rho * nu**2
    x, w = np.zeros(u.shape), np.zeros(u.shape)
    iterates = [rho * u]
    first = _norm(iterates[0])
    for k in range(max_iter):
        x_new = scale * (w - u) / denom
        v = relax * (nu * x_new) + (1.0 - relax) * w
        w_new = np.zeros(w.shape)
        u_new = u + v - w_new
        if k == 0 and all(map(np.array_equal, (x_new, w_new, u_new), (x, w, u))):
            return iterates, False, x_new
        x, w, u_prev, u = x_new, w_new, u, u_new
        iterates.append(rho * u)
        if first > 0.0 and _norm(iterates[-1]) > 10.0 * first:
            return iterates, True, x
        if rho * _norm(u - u_prev) <= tol:
            break
    return iterates, False, x


def _check_replay(problem, mode, alpha, gamma, start, max_iter, tol):
    """Run one engine, read its replayed iterates (and ADMM's ``final_x``) and
    compare them bit for bit with the reference loop; returns (steps,
    diverged)."""
    if mode == "admm":
        u0 = start * (1.0 / gamma)
        reference = _reference_admm(problem.f.weights, problem.a.weights, alpha, gamma, u0, max_iter, tol)
        run = lambda: run_admm(problem, gamma, alpha, u0=Vec(u0), max_iter=max_iter, tol=tol)
    else:
        if mode == "dual-dr":
            problem = CompositeProblem(dual_function(problem), GFunction.ZERO)
        negate = problem.g is GFunction.ZERO_INDICATOR
        reference = _reference_dr(problem.f.weights, negate, alpha, gamma, start, max_iter, tol) + (None,)
        run = lambda: run_dr(problem, SplitParams(alpha, gamma), Vec(start), max_iter=max_iter, tol=tol)
    try:
        trace, diverged = run(), False
    except DivergenceError as exc:
        trace, diverged = exc.trace, True
    iterates, ref_diverged, ref_x = reference
    assert diverged == ref_diverged
    assert len(trace.iterates) == trace.n_steps + 1 == len(iterates)
    assert [v.coeffs.tobytes() for v in trace.iterates] == [z.tobytes() for z in iterates]
    assert trace.distances.tobytes() == np.array([_norm(z) for z in iterates]).tobytes()
    if mode == "admm":
        assert trace.final_x.coeffs.tobytes() == ref_x.tobytes()
    return trace.n_steps, diverged


def _signed_zeros(rng, dim, share):
    """A uniform(-1, 1) vector with about ``share`` of its coordinates set to
    +0.0 or -0.0."""
    v = rng.uniform(-1.0, 1.0, dim)
    hit = rng.random(dim) < share
    v[hit] = np.copysign(0.0, rng.uniform(-1.0, 1.0, hit.sum()))
    return v


@st.composite
def replay_cases(draw):
    """An instance of the :func:`dr_cases` family run by one engine (the dual
    side couples the same bands), a relaxation below or above
    alpha_upper_bound, and starts with signed zeros in them, sometimes all
    zero. The budgets and tols let runs stop for every reason."""
    sigma, beta, dim, idx_sigma = draw(two_bands())
    mode = draw(st.sampled_from(splitting.MODES))
    if mode == "primal-dr":
        g = draw(st.sampled_from([GFunction.ZERO, GFunction.ZERO_INDICATOR]))
        problem = CompositeProblem(f=make_primal_instance(sigma, beta, dim, idx_sigma).f, g=g)
        curvatures = problem.f
    else:
        theta = 10.0 ** draw(st.floats(-1.0, 1.0))
        zeta = theta * 10.0 ** draw(st.floats(0.01, 1.0))
        pairing = draw(st.sampled_from(["aligned", "crossed"]))
        problem = make_dual_instance(sigma, beta, theta, zeta, dim, idx_sigma, pairing)
        curvatures = dual_function(problem)
    gamma = 10.0 ** draw(st.floats(-2.0, 2.0)) / math.sqrt(curvatures.sigma * curvatures.beta)
    alpha = alpha_upper_bound(gamma, curvatures.sigma, curvatures.beta) * draw(
        st.floats(0.01, 0.99) | st.floats(1.05, 1.9)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = _signed_zeros(rng, dim, draw(st.sampled_from([0.0, 0.3, 1.0])))
    max_iter = draw(st.integers(0, 60))
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-4, 1e-2, 0.3]))
    return problem, mode, alpha, gamma, start, max_iter, tol


@settings(deadline=None, max_examples=120)
@given(replay_cases())
def test_replayed_iterates_equal_the_reference_loop_bitwise(case):
    _check_replay(*case)


@pytest.mark.parametrize("mode", splitting.MODES)
@pytest.mark.parametrize("reason", ["tol", "guard", "zero-start", "budget"])
def test_replay_for_each_stop_reason(mode, reason):
    problem = default_primal_instance() if mode == "primal-dr" else default_dual_instance("crossed")
    curvatures = problem.f if mode == "primal-dr" else dual_function(problem)
    gamma = 1.0 / math.sqrt(curvatures.sigma * curvatures.beta)
    upper = alpha_upper_bound(gamma, curvatures.sigma, curvatures.beta)
    alpha = 1.9 * upper if reason == "guard" else 0.5 * upper
    start = _signed_zeros(np.random.default_rng(26), 8, 1.0 if reason == "zero-start" else 0.3)
    max_iter, tol = (25, 0.0) if reason == "budget" else (500, 1e-6)
    steps, diverged = _check_replay(problem, mode, alpha, gamma, start, max_iter, tol)
    assert diverged == (reason == "guard")
    if reason == "zero-start":
        assert steps == 0
    elif reason == "budget":
        assert steps == 25
    else:
        assert 0 < steps < max_iter


@st.composite
def admm_cases(draw):
    """A coupled instance (condition number up to 1e8, theta < zeta, dim
    2..32, random band split, either pairing) and a batch of feasible
    points (alpha, rho) for its dual curvatures."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    beta = sigma * 10.0 ** draw(st.floats(0.0, 8.0))
    theta = 10.0 ** draw(st.floats(-1.0, 1.0))
    zeta = theta * 10.0 ** draw(st.floats(0.01, 1.0))
    dim = draw(st.integers(2, 32))
    idx_sigma = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))
    pairing = draw(st.sampled_from(["aligned", "crossed"]))
    problem = make_dual_instance(sigma, beta, theta, zeta, dim, idx_sigma, pairing)
    quad = dual_function(problem)
    gamma_star = 1.0 / math.sqrt(quad.sigma * quad.beta)
    rhos = np.array([gamma_star * 10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(draw(st.integers(1, 12)))])
    alphas = alpha_upper_bound(rhos, quad.sigma, quad.beta) * np.array(
        [draw(st.floats(0.01, 0.99)) for _ in rhos]
    )
    return problem, quad, alphas, rhos


@settings(deadline=None, max_examples=80)
@given(admm_cases())
def test_admm_rates_match_dual_dr_rates(case):
    # the battery's 1e-8 tolerance, over the whole instance family, from the
    # worst start of the dual curvatures
    problem, quad, alphas, rhos = case
    index = worst_coordinates(quad, alphas, rhos)
    fits = {}
    for mode in ("dual-dr", "admm"):
        runs = run_rows(problem, mode, alphas, rhos, lambda rows: basis_rows(problem.dim, index[rows]), max_iter=40, tol=0.0)
        assert not runs.diverged.any()
        fits[mode] = fit_rates(runs.step_ratios)
    dual, admm = fits["dual-dr"], fits["admm"]
    both = ~np.isnan(dual) & ~np.isnan(admm)
    assert np.all(np.abs(dual - admm)[both] <= 1e-8)
    # one fit is missing only where the run contracts so fast that rounding
    # decides whether a fifth distance clears the ratio floor
    assert np.all(np.fmax(dual, admm)[~both] < 1e-2)


@pytest.mark.parametrize("mode", ["primal-dr", "admm"])
def test_run_memory_does_not_grow_with_steps(mode):
    # a kept iterate is dim * 8 bytes, so a run that kept them would peak
    # 100 iterates higher at 120 steps than at 20
    dim = 200_000
    half = range(dim // 2)
    rng = np.random.default_rng(27)
    if mode == "admm":
        problem = make_dual_instance(SIGMA, BETA, 1.0, 3.0, dim, half, pairing="crossed")
        u0 = Vec(rng.uniform(-1.0, 1.0, dim))
        run = lambda steps: run_admm(problem, rho=0.5, alpha=0.9, u0=u0, max_iter=steps, tol=0.0)
    else:
        problem = make_primal_instance(SIGMA, BETA, dim, half)
        z0 = Vec(rng.uniform(-1.0, 1.0, dim))
        run = lambda steps: run_dr(problem, SplitParams(0.9, GAMMA_STAR), z0, max_iter=steps, tol=0.0)
    peaks = []
    tracemalloc.start()
    try:
        for steps in (20, 120):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            trace = run(steps)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            assert len(trace.iterates) == steps + 1 and trace.n_steps == steps
            assert tracemalloc.get_traced_memory()[1] - held < dim
            del trace
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < dim * 8 // 4


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("which", ["alphas", "gammas"])
def test_run_rows_rejects_bad_parameters(primal, which, bad):
    values = {"alphas": np.array([1.0, 0.5]), "gammas": np.array([0.3, 0.3])}
    values[which][1] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        run_rows(primal, "primal-dr", values["alphas"], values["gammas"], lambda rows: np.ones((2, 8))[rows])


def test_run_rows_rejects_bad_mode_and_start_shape(primal):
    one, none = np.array([1.0]), np.array([])
    # a batch of no rows runs no block, and is rejected all the same
    for alphas in (one, none):
        starts = lambda part: np.ones((alphas.size, 8))
        with pytest.raises(ValueError, match="mode"):
            run_rows(primal, "newton", alphas, alphas, starts)
        with pytest.raises(ValueError, match="identity coupling"):
            run_rows(default_dual_instance(), "primal-dr", alphas, alphas, starts)
        with pytest.raises(ValueError, match="indicator of the origin"):
            run_rows(primal, "admm", alphas, alphas, starts)
    with pytest.raises(ValueError, match="shape"):
        run_rows(primal, "primal-dr", one, one, lambda part: np.ones((1, 3)))
    runs = run_rows(primal, "primal-dr", none, none, lambda part: np.ones((0, 8)))
    assert runs.distances.shape == (0, 1) and runs.steps.size == runs.diverged.size == 0


@pytest.mark.parametrize("mode", splitting.MODES)
@pytest.mark.parametrize("start", ["worst", "random"])
def test_small_blocks_give_the_same_sweep_bytes(tmp_path, monkeypatch, mode, start):
    flags = ["sweep", "--mode", mode, "--start", start, "--seed", "7", "--iters", "30"]
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    assert cli.main(flags + ["--out", str(whole)]) == 0
    # 3 rows of dim 8 per block: 134 blocks for the 400 grid points
    monkeypatch.setattr(splitting, "BLOCK_ELEMENTS", 24)
    assert cli.main(flags + ["--out", str(blocked)]) == 0
    assert blocked.read_bytes() == whole.read_bytes()
