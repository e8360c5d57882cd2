import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitrate.functions import CompositeProblem, GFunction, dual_function
from splitrate.hilbert import Vec, basis_rows
from splitrate.rates import (
    TIGHT_CASES,
    alpha_upper_bound,
    classify_tightness,
    theoretical_rate,
)
from splitrate.splitting import SplitParams, fit_rate, fit_rates, run_dr, run_rows
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


def test_make_primal_instance_layout():
    p = make_primal_instance(1.0, 4.0, 2, {0})
    assert np.array_equal(p.f.weights, [1.0, 4.0])
    assert p.g is GFunction.ZERO
    assert p.a is None


def test_make_primal_instance_isotropic_allowed():
    p = make_primal_instance(2.0, 2.0, 3, {1})
    assert np.array_equal(p.f.weights, [2.0, 2.0, 2.0])


def test_make_primal_instance_rejects_empty_band():
    with pytest.raises(ValueError):
        make_primal_instance(1.0, 4.0, 2, set())
    with pytest.raises(ValueError):
        make_primal_instance(1.0, 4.0, 2, {0, 1})


def test_make_dual_instance_layouts():
    aligned = make_dual_instance(1.0, 4.0, 1.0, 8.0, 2, {0}, pairing="aligned")
    assert np.array_equal(aligned.a.weights, [1.0, 8.0])
    assert np.array_equal(dual_function(aligned).weights, [1.0, 16.0])
    crossed = make_dual_instance(1.0, 4.0, 1.0, 8.0, 2, {0}, pairing="crossed")
    assert np.array_equal(crossed.a.weights, [8.0, 1.0])
    assert np.array_equal(dual_function(crossed).weights, [64.0, 0.25])
    assert crossed.g is GFunction.ZERO_INDICATOR


def test_make_dual_instance_requires_strict_gains():
    with pytest.raises(ValueError, match="strict"):
        make_dual_instance(1.0, 4.0, 2.0, 2.0, 2, {0})
    with pytest.raises(ValueError):
        make_dual_instance(1.0, 4.0, 3.0, 2.0, 2, {0})
    with pytest.raises(ValueError, match="pairing"):
        make_dual_instance(1.0, 4.0, 1.0, 2.0, 2, {0}, pairing="sideways")


def test_default_instances():
    p = default_primal_instance()
    assert p.dim == 8 and p.f.sigma == 1.0 and p.f.beta == 10.0
    q = default_dual_instance()
    assert q.a.theta == 1.0 and q.a.zeta == 3.0


def test_predict_iterate_examples():
    assert predict_iterate(1.0, 1.0, 1.0, 5) == 0.0
    assert predict_iterate(4.0, 1.0, 0.5, 2) == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert predict_iterate(1.0, 1.0, 0.5, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    with pytest.raises(ValueError):
        predict_iterate(1.0, 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        predict_iterate(1.0, 1.0, 1.0, -1)


def test_worst_direction_examples():
    quad = default_primal_instance().f
    on_sigma, on_beta = 0, 4  # the first coordinate of each band
    assert worst_coordinates(quad, 1.0, 0.01) == on_sigma
    assert worst_coordinates(quad, 1.0, 100.0) == on_beta
    # tie at the optimal step size goes to sigma
    assert worst_coordinates(quad, 1.0, GAMMA_STAR) == on_sigma
    assert list(worst_coordinates(quad, [1.0, 1.0, 1.0], [0.01, 100.0, GAMMA_STAR])) == [on_sigma, on_beta, on_sigma]


def test_worst_direction_achieves_the_max():
    rng = np.random.default_rng(26)
    quad = default_primal_instance().f
    for _ in range(500):
        gamma = 10.0 ** rng.uniform(-2.5, 2.5)
        alpha = rng.uniform(0.05, 1.9)
        lam = quad.weights[worst_coordinates(quad, alpha, gamma)]
        got = abs(predict_iterate(lam, alpha, gamma, 1))
        other = abs(predict_iterate(BETA if lam == SIGMA else SIGMA, alpha, gamma, 1))
        assert got >= other


def test_worst_start_vector_picks_the_band():
    p = default_primal_instance()
    assert p.f.weights[worst_coordinates(p.f, 1.0, 0.01)] == SIGMA
    assert p.f.weights[worst_coordinates(p.f, 1.0, 100.0)] == BETA


def test_worst_coordinates_pick_the_worst_start_vectors():
    rng = np.random.default_rng(28)
    gammas = GAMMA_STAR * 10.0 ** rng.uniform(-2.0, 2.0, 300)
    gammas[:3] = GAMMA_STAR
    alphas = rng.uniform(0.05, 2.5, 300)
    alphas[:3] = 1.0
    for quad in (default_primal_instance().f, dual_function(default_dual_instance("aligned"))):
        starts = basis_rows(quad.dim, worst_coordinates(quad, alphas, gammas))
        for alpha, gamma, row in zip(alphas, gammas, starts):
            assert np.array_equal(row, basis_rows(quad.dim, [worst_coordinates(quad, alpha, gamma)])[0])


def _region_points():
    ub_star = alpha_upper_bound(GAMMA_STAR, SIGMA, BETA)
    pts = [(1.0, g) for g in (0.02, 0.1, GAMMA_STAR, 2.0, 30.0)]
    pts += [(a, 0.8 * GAMMA_STAR) for a in (0.2, 0.6, 1.0)]
    gammas = (GAMMA_STAR, 1.0, 5.0)
    pts += [(1.0 + 0.6 * (alpha_upper_bound(g, SIGMA, BETA) - 1.0), g) for g in gammas]
    pts += [(0.3 * ub_star, GAMMA_STAR), (0.9 * ub_star, GAMMA_STAR)]
    return pts


@pytest.mark.parametrize("alpha,gamma", _region_points())
def test_exactness_oracle_in_attained_regions(alpha, gamma):
    # trajectories from the slowest band match the closed-form coefficient
    # power sequence coordinate-exactly, and the fitted rate matches the bound
    p = default_primal_instance()
    index = int(worst_coordinates(p.f, alpha, gamma))
    lam = float(p.f.weights[index])
    trace = run_dr(p, SplitParams(alpha, gamma), Vec(basis_rows(8, [index])[0]), max_iter=30, tol=0.0)
    for k, z in enumerate(trace.iterates):
        expected = np.zeros(8)
        expected[index] = predict_iterate(lam, alpha, gamma, k)
        assert np.max(np.abs(z.coeffs - expected)) <= 1e-12
    assert abs(fit_rate(trace) - theoretical_rate(alpha, gamma, SIGMA, BETA)) <= 1e-9


def test_dual_instance_crossed_pairing_attains_hatted_rates():
    # with crossed gains the dual curvatures are exactly (sigma_hat, beta_hat),
    # so dual runs reproduce the attained primal rates with those constants
    sigma, beta, theta, zeta = 1.0, 10.0, 1.0, 3.0
    s_hat, b_hat = theta**2 / beta, zeta**2 / sigma
    p = make_dual_instance(sigma, beta, theta, zeta, 8, range(4), pairing="crossed")
    d = dual_function(p)
    gamma_star_hat = 1.0 / math.sqrt(s_hat * b_hat)
    for alpha, gamma in [(1.0, gamma_star_hat), (1.0, 0.2 * gamma_star_hat), (0.6, 0.5 * gamma_star_hat)]:
        mu0 = Vec(basis_rows(d.dim, [worst_coordinates(d, alpha, gamma)])[0])
        trace = run_dr(CompositeProblem(d, GFunction.ZERO), SplitParams(alpha, gamma), mu0, max_iter=35, tol=0.0)
        assert abs(fit_rate(trace) - theoretical_rate(alpha, gamma, s_hat, b_hat)) <= 1e-10


def test_dual_instance_aligned_pairing_stays_below_bound():
    sigma, beta, theta, zeta = 1.0, 10.0, 1.0, 3.0
    s_hat, b_hat = theta**2 / beta, zeta**2 / sigma
    p = make_dual_instance(sigma, beta, theta, zeta, 8, range(4), pairing="aligned")
    d = dual_function(p)
    gamma_star_hat = 1.0 / math.sqrt(s_hat * b_hat)
    mu0 = Vec(basis_rows(d.dim, [worst_coordinates(d, 1.0, gamma_star_hat)])[0])
    trace = run_dr(CompositeProblem(d, GFunction.ZERO), SplitParams(1.0, gamma_star_hat), mu0, max_iter=35, tol=0.0)
    bound = theoretical_rate(1.0, gamma_star_hat, s_hat, b_hat)
    fitted = fit_rate(trace)
    assert fitted <= bound + 1e-9
    # strictly inside the bound: the aligned dual curvatures are interior
    assert fitted < bound - 0.1


@st.composite
def bound_cases(draw):
    """A two-band instance (condition number up to 1e8, dim 2..32, random
    band split), run as primal DR or as dual DR on the crossed pairing, whose
    dual curvatures are the bound's constants; and a batch of points, some
    at alpha exactly 1 or gamma exactly 1/sqrt(sigma*beta), some beyond
    alpha_upper_bound."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    beta = sigma * 10.0 ** draw(st.floats(0.0, 8.0))
    dim = draw(st.integers(2, 32))
    idx_sigma = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))
    mode = draw(st.sampled_from(["primal-dr", "dual-dr"]))
    if mode == "primal-dr":
        problem = make_primal_instance(sigma, beta, dim, idx_sigma)
        quad = problem.f
    else:
        theta = 10.0 ** draw(st.floats(-1.0, 1.0))
        zeta = theta * 10.0 ** draw(st.floats(0.01, 1.0))
        problem = make_dual_instance(sigma, beta, theta, zeta, dim, idx_sigma, pairing="crossed")
        quad = dual_function(problem)
    gamma_star = 1.0 / math.sqrt(quad.sigma * quad.beta)
    points = []
    for _ in range(draw(st.integers(1, 16))):
        gamma = draw(st.just(gamma_star) | st.floats(-2.0, 2.0).map(lambda e: gamma_star * 10.0**e))
        upper = alpha_upper_bound(gamma, quad.sigma, quad.beta)
        alpha = draw(st.just(1.0) | st.floats(0.01, 1.3).map(lambda f: f * upper))
        points.append((alpha, gamma))
    alphas, gammas = np.array(points).T
    return problem, mode, quad, alphas, gammas


@settings(deadline=None, max_examples=80)
@given(bound_cases())
def test_worst_start_batches_meet_the_bound_and_attain_it_in_cases_i_to_iii(case):
    problem, mode, quad, alphas, gammas = case
    index = worst_coordinates(quad, alphas, gammas)
    runs = run_rows(problem, mode, alphas, gammas, lambda rows: basis_rows(problem.dim, index[rows]), max_iter=40, tol=0.0)
    fits = fit_rates(runs.step_ratios)
    bounds = theoretical_rate(alphas, gammas, quad.sigma, quad.beta)
    feasible = alphas < alpha_upper_bound(gammas, quad.sigma, quad.beta)
    tight = feasible & np.isin(classify_tightness(alphas, gammas, quad.sigma, quad.beta), list(TIGHT_CASES))
    measured = feasible & ~np.isnan(fits)
    assert not runs.diverged[feasible].any()
    assert np.all(fits[measured] <= bounds[measured] + 1e-9)
    assert np.all(np.abs(fits - bounds)[tight & measured] <= 1e-9)
    # a tight run goes unmeasured only when it contracts too fast to leave
    # 5 distances above the ratio floor
    assert np.all(bounds[tight & ~measured] < 1e-2)
