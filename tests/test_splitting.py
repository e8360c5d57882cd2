import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitrate.functions import CompositeProblem, GFunction, apply_operator, dual_function, grad_f
from splitrate.hilbert import BasisMap, Vec, basis_vector, change_basis, norm, random_basis_map, zeros
from splitrate.prox import refl_prox_diag, refl_prox_g
from splitrate.rates import alpha_upper_bound, optimal_params, theoretical_rate
from splitrate.splitting import (
    DivergenceError,
    IterateTrace,
    SplitParams,
    dr_step,
    fit_rate,
    run_admm,
    run_dr,
    run_dual_dr,
)
from splitrate.worstcase import (
    default_dual_instance,
    default_primal_instance,
    make_dual_instance,
    make_primal_instance,
    predict_iterate,
    worst_start_vector,
)

SIGMA, BETA = 1.0, 10.0
GAMMA_STAR = 1.0 / math.sqrt(SIGMA * BETA)


@pytest.fixture
def primal():
    return default_primal_instance()


def _trace_from_distances(dists):
    """Synthetic trace with prescribed distance sequence."""
    vecs = [Vec([d, 0.0]) for d in dists]
    dists = np.asarray(dists, dtype=float)
    ratios = dists[1:] / dists[:-1]
    return IterateTrace(vecs, zeros(2), dists, ratios, converged=True)


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


def test_split_params_warns_above_one():
    with pytest.warns(UserWarning, match="above 1"):
        SplitParams(1.5, 1.0)


# -- dr_step ------------------------------------------------------------------


def test_dr_step_fixed_point_at_origin(primal):
    out = dr_step(primal, SplitParams(1.0, 1.0), zeros(primal.dim))
    assert np.array_equal(out.coeffs, np.zeros(primal.dim))


def test_dr_step_unit_weight_annihilates():
    p = make_primal_instance(1.0, 1.0, 2, {0})
    out = dr_step(p, SplitParams(1.0, 1.0), basis_vector(2, 0))
    assert np.array_equal(out.coeffs, [0.0, 0.0])


def test_dr_step_half_relaxation_coefficient():
    # alpha 1/2, gamma 1, weight 3: coefficient 1 - a + a*(1-3)/(1+3) = 0.25
    p = make_primal_instance(3.0, 3.0, 2, {0})
    out = dr_step(p, SplitParams(0.5, 1.0), basis_vector(2, 0))
    assert np.allclose(out.coeffs, [0.25, 0.0], atol=1e-15)


def test_dr_step_rejects_coupled_problem():
    p = default_dual_instance()
    with pytest.raises(ValueError, match="identity coupling"):
        dr_step(p, SplitParams(1.0, 1.0), zeros(p.dim))


def test_dr_step_matches_manual_composition(primal):
    rng = np.random.default_rng(21)
    params = SplitParams(0.7, 0.9)
    for _ in range(50):
        z = Vec(rng.uniform(-5, 5, primal.dim))
        manual = (1 - params.alpha) * z + params.alpha * refl_prox_g(
            primal.g, params.gamma, refl_prox_diag(primal.f, params.gamma, z)
        )
        assert np.array_equal(dr_step(primal, params, z).coeffs, manual.coeffs)


# -- run_dr -------------------------------------------------------------------


def test_run_dr_at_fixed_point_has_length_one(primal):
    trace = run_dr(primal, SplitParams(1.0, 1.0), zeros(primal.dim))
    assert len(trace.iterates) == 1
    assert trace.converged
    assert trace.distances[0] == 0.0
    assert trace.step_ratios.size == 0


def test_run_dr_optimal_params_constant_ratio(primal):
    alpha, gamma, rate = optimal_params(SIGMA, BETA)
    z0 = worst_start_vector(primal.f, alpha, gamma)
    trace = run_dr(primal, SplitParams(alpha, gamma), z0, max_iter=40, tol=0.0)
    valid = trace.step_ratios[np.isfinite(trace.step_ratios)]
    assert valid.size >= 30
    assert np.max(np.abs(valid - rate)) <= 1e-12


@pytest.mark.parametrize("gamma", [0.05, 0.4, 2.0])
@pytest.mark.parametrize("index,lam", [(0, SIGMA), (7, BETA)])
def test_run_dr_single_band_ratio_is_step_multiplier(primal, gamma, index, lam):
    trace = run_dr(primal, SplitParams(1.0, gamma), basis_vector(8, index), max_iter=25, tol=0.0)
    expected = abs((1.0 - gamma * lam) / (1.0 + gamma * lam))
    valid = trace.step_ratios[np.isfinite(trace.step_ratios)]
    assert np.max(np.abs(valid - expected)) <= 1e-12


def test_run_dr_distances_nonincreasing_when_feasible(primal):
    rng = np.random.default_rng(22)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(30):
            gamma = GAMMA_STAR * 10.0 ** rng.uniform(-1.5, 1.5)
            alpha = rng.uniform(0.05, alpha_upper_bound(gamma, SIGMA, BETA) - 0.01)
            z0 = Vec(rng.uniform(-1, 1, 8))
            trace = run_dr(primal, SplitParams(alpha, gamma), z0, max_iter=30, tol=0.0)
            assert np.all(np.diff(trace.distances) <= 1e-12)


def test_run_dr_divergence_raises(primal):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = SplitParams(1.95, 2.0)  # far beyond the feasible relaxation limit
        with pytest.raises(DivergenceError) as excinfo:
            run_dr(primal, params, basis_vector(8, 7), max_iter=500, tol=0.0)
    assert excinfo.value.trace is not None
    assert excinfo.value.trace.distances[-1] > 10.0


def test_run_dr_stops_on_tolerance(primal):
    alpha, gamma, _ = optimal_params(SIGMA, BETA)
    z0 = worst_start_vector(primal.f, alpha, gamma)
    trace = run_dr(primal, SplitParams(alpha, gamma), z0, max_iter=500, tol=1e-8)
    assert trace.converged
    assert len(trace.iterates) < 60


@st.composite
def dr_cases(draw):
    """A two-band instance with sigma <= beta (condition number up to 1e8),
    dim 2..64, a random band split, either nonsmooth term, a step size around
    1/sqrt(sigma*beta), a relaxation below alpha_upper_bound and a start."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    beta = sigma * 10.0 ** draw(st.floats(0.0, 8.0))
    dim = draw(st.integers(2, 64))
    idx_sigma = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))
    g = draw(st.sampled_from([GFunction.ZERO, GFunction.ZERO_INDICATOR]))
    gamma = 10.0 ** draw(st.floats(-2.0, 2.0)) / math.sqrt(sigma * beta)
    alpha = draw(st.floats(0.01, 0.99)) * alpha_upper_bound(gamma, sigma, beta)
    f = make_primal_instance(sigma, beta, dim, idx_sigma).f
    z0 = Vec(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, dim))
    return CompositeProblem(f=f, g=g), SplitParams(alpha, gamma), z0


def _bits(v):
    return v.coeffs.tobytes()


@pytest.mark.filterwarnings("ignore:alpha = .* is above 1")
@settings(deadline=None, max_examples=60)
@given(dr_cases())
def test_run_dr_iterates_bitwise_equal_prox_composition(case):
    problem, params, z0 = case
    alpha, gamma = params.alpha, params.gamma
    trace = run_dr(problem, params, z0, max_iter=30, tol=0.0)
    assert trace.n_steps == 30 or trace.converged
    z = z0
    for kept in trace.iterates:
        assert _bits(kept) == _bits(z)
        reflected = refl_prox_g(problem.g, gamma, refl_prox_diag(problem.f, gamma, z))
        z = (1 - alpha) * z + alpha * reflected


@pytest.mark.filterwarnings("ignore:alpha = .* is above 1")
@settings(deadline=None, max_examples=60)
@given(dr_cases())
def test_reflections_commute_bitwise(case):
    # both reflected maps are diagonal and R_g is the identity or a negation,
    # so the order of composition cannot change a single bit
    problem, params, z = case
    gamma = params.gamma
    f_then_g = refl_prox_g(problem.g, gamma, refl_prox_diag(problem.f, gamma, z))
    g_then_f = refl_prox_diag(problem.f, gamma, refl_prox_g(problem.g, gamma, z))
    assert _bits(f_then_g) == _bits(g_then_f)


def test_run_dr_rejects_start_of_wrong_dimension(primal):
    with pytest.raises(ValueError, match="dimension"):
        run_dr(primal, SplitParams(1.0, 1.0), Vec([1.0]))
    with pytest.raises(ValueError, match="dimension"):
        dr_step(primal, SplitParams(1.0, 1.0), Vec([1.0]))


def test_run_dr_basis_invariance(primal):
    # running the conjugated iteration in a rotated frame reproduces the
    # distance sequence of the diagonal run
    params = SplitParams(0.8, 0.37)
    rng = np.random.default_rng(23)
    z0 = Vec(rng.uniform(-1, 1, 8))
    trace = run_dr(primal, params, z0, max_iter=40, tol=0.0)
    q = random_basis_map(8, 5)
    q_inv = BasisMap(q.matrix.T)
    w = change_basis(z0, q)
    for dist in trace.distances:
        assert abs(norm(w) - dist) <= 1e-10
        back = change_basis(w, q_inv)
        reflected = refl_prox_g(primal.g, params.gamma, refl_prox_diag(primal.f, params.gamma, back))
        w = (1 - params.alpha) * w + params.alpha * change_basis(reflected, q)


def test_run_dr_mixed_start_evolves_coordinatewise(primal):
    alpha, gamma = 0.9, 0.21
    z0 = basis_vector(8, 0) + basis_vector(8, 7)
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
        z0 = worst_start_vector(p.f, alpha, gamma)
        fits.append(fit_rate(run_dr(p, SplitParams(alpha, gamma), z0, max_iter=30, tol=0.0)))
    assert max(fits) - min(fits) <= 1e-12


def test_run_dr_bound_holds_from_random_starts(primal):
    rng = np.random.default_rng(24)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(60):
            gamma = GAMMA_STAR * 10.0 ** rng.uniform(-1.3, 1.3)
            alpha = rng.uniform(0.05, alpha_upper_bound(gamma, SIGMA, BETA) - 0.01)
            bound = theoretical_rate(alpha, gamma, SIGMA, BETA)
            z0 = Vec(rng.uniform(-1, 1, 8))
            trace = run_dr(primal, SplitParams(alpha, gamma), z0, max_iter=25, tol=0.0)
            assert fit_rate(trace) <= bound + 1e-9


# -- run_dual_dr --------------------------------------------------------------


def test_run_dual_dr_requires_coupled_indicator(primal):
    with pytest.raises(ValueError):
        run_dual_dr(primal, SplitParams(1.0, 1.0), zeros(8))


def test_run_dual_dr_zero_start():
    p = default_dual_instance()
    trace = run_dual_dr(p, SplitParams(1.0, 1.0), zeros(8))
    assert len(trace.iterates) == 1 and trace.converged


def test_run_dual_dr_isotropic_dual_ratio():
    # weights [1,4] with gains [1,2] aligned make the dual isotropic with
    # curvature 1: any unit start contracts by |(1-gamma)/(1+gamma)|
    p = make_dual_instance(1.0, 4.0, 1.0, 2.0, 2, {0}, pairing="aligned")
    assert np.array_equal(dual_function(p).weights, [1.0, 1.0])
    for gamma in (0.25, 0.5, 2.0):
        for i in range(2):
            trace = run_dual_dr(p, SplitParams(1.0, gamma), basis_vector(2, i), max_iter=25, tol=0.0)
            expected = abs((1.0 - gamma) / (1.0 + gamma))
            valid = trace.step_ratios[np.isfinite(trace.step_ratios)]
            assert np.max(np.abs(valid - expected)) <= 1e-12


def test_run_dual_dr_attains_dual_optimal_rate():
    # crossed gains put the extreme dual curvatures on the spectrum, so the
    # dual iteration at its optimal parameters contracts at
    # (sqrt(kappa)-1)/(sqrt(kappa)+1) with kappa = zeta^2*beta/(theta^2*sigma)
    sigma, beta, theta, zeta = 1.0, 4.0, 1.0, 2.0
    kappa = zeta**2 * beta / (theta**2 * sigma)
    expected = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    gamma = math.sqrt(beta * sigma) / (zeta * theta)
    p = make_dual_instance(sigma, beta, theta, zeta, 2, {0}, pairing="crossed")
    for i in range(2):
        trace = run_dual_dr(p, SplitParams(1.0, gamma), basis_vector(2, i), max_iter=25, tol=0.0)
        assert abs(fit_rate(trace) - expected) <= 1e-10


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
        run_admm(p, rho=1.0, alpha=1.0, u0=zeros(3))


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
@pytest.mark.parametrize("rho_scale", [0.4, 1.0, 2.5])
def test_run_admm_matches_dual_dr_rate(alpha, rho_scale):
    p = default_dual_instance("crossed")
    d = dual_function(p)
    _, gamma_opt, _ = optimal_params(d.sigma, d.beta)
    rho = rho_scale * gamma_opt
    mu0 = worst_start_vector(d, alpha, rho)
    dr = run_dual_dr(p, SplitParams(alpha, rho), mu0, max_iter=40, tol=0.0)
    admm = run_admm(p, rho=rho, alpha=alpha, u0=(1.0 / rho) * mu0, max_iter=40, tol=0.0)
    assert abs(fit_rate(dr) - fit_rate(admm)) <= 1e-8


def test_run_admm_classic_half_relaxation_contracts():
    # alpha = 1/2 is the unrelaxed method; per-coordinate dual factor is
    # 1/(1 + rho * nu^2 / lambda)
    p = default_dual_instance("aligned")
    rho = 0.7
    d = dual_function(p)
    factors = 1.0 / (1.0 + rho * d.weights)
    mu0 = Vec(np.ones(8))
    trace = run_admm(p, rho=rho, alpha=0.5, u0=(1.0 / rho) * mu0, max_iter=30, tol=0.0)
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
    stationarity = grad_f(p.f, xbar) + apply_operator(p.a, mubar)
    assert norm(stationarity) <= 1e-8
    assert norm(apply_operator(p.a, xbar)) <= 1e-8


def test_run_admm_divergence():
    p = default_dual_instance("crossed")
    d = dual_function(p)
    _, gamma_opt, _ = optimal_params(d.sigma, d.beta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
    trace = run_dr(primal, SplitParams(1.0, 1.0), zeros(8))
    with pytest.raises(ValueError, match="too short"):
        fit_rate(trace)
    with pytest.raises(ValueError, match="too short"):
        fit_rate(_trace_from_distances([1.0, 0.5, 0.25, 0.125]))
