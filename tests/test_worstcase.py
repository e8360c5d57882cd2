import math

import numpy as np
import pytest

from splitrate.functions import GFunction, dual_function
from splitrate.rates import alpha_upper_bound, theoretical_rate
from splitrate.splitting import SplitParams, fit_rate, run_dr, run_dual_dr
from splitrate.worstcase import (
    default_dual_instance,
    default_primal_instance,
    make_dual_instance,
    make_primal_instance,
    predict_iterate,
    step_multiplier,
    worst_direction,
    worst_start_vector,
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
    assert worst_direction(1.0, 0.01, SIGMA, BETA) == "sigma"
    assert worst_direction(1.0, 100.0, SIGMA, BETA) == "beta"
    # tie at the optimal step size goes to sigma
    assert worst_direction(1.0, GAMMA_STAR, SIGMA, BETA) == "sigma"


def test_worst_direction_achieves_the_max():
    rng = np.random.default_rng(26)
    for _ in range(500):
        gamma = 10.0 ** rng.uniform(-2.5, 2.5)
        alpha = rng.uniform(0.05, 1.9)
        label = worst_direction(alpha, gamma, SIGMA, BETA)
        lam = SIGMA if label == "sigma" else BETA
        got = abs(step_multiplier(lam, alpha, gamma))
        other = abs(step_multiplier(BETA if lam == SIGMA else SIGMA, alpha, gamma))
        assert got >= other


def test_worst_start_vector_picks_the_band():
    p = default_primal_instance()
    v = worst_start_vector(p.f, 1.0, 0.01)
    assert p.f.weights[int(np.argmax(v.coeffs))] == SIGMA
    v = worst_start_vector(p.f, 1.0, 100.0)
    assert p.f.weights[int(np.argmax(v.coeffs))] == BETA


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
    z0 = worst_start_vector(p.f, alpha, gamma)
    index = int(np.argmax(z0.coeffs))
    lam = float(p.f.weights[index])
    trace = run_dr(p, SplitParams(alpha, gamma), z0, max_iter=30, tol=0.0)
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
        mu0 = worst_start_vector(d, alpha, gamma)
        trace = run_dual_dr(p, SplitParams(alpha, gamma), mu0, max_iter=35, tol=0.0)
        assert abs(fit_rate(trace) - theoretical_rate(alpha, gamma, s_hat, b_hat)) <= 1e-10


def test_dual_instance_aligned_pairing_stays_below_bound():
    sigma, beta, theta, zeta = 1.0, 10.0, 1.0, 3.0
    s_hat, b_hat = theta**2 / beta, zeta**2 / sigma
    p = make_dual_instance(sigma, beta, theta, zeta, 8, range(4), pairing="aligned")
    d = dual_function(p)
    gamma_star_hat = 1.0 / math.sqrt(s_hat * b_hat)
    mu0 = worst_start_vector(d, 1.0, gamma_star_hat)
    trace = run_dual_dr(p, SplitParams(1.0, gamma_star_hat), mu0, max_iter=35, tol=0.0)
    bound = theoretical_rate(1.0, gamma_star_hat, s_hat, b_hat)
    fitted = fit_rate(trace)
    assert fitted <= bound + 1e-9
    # strictly inside the bound: the aligned dual curvatures are interior
    assert fitted < bound - 0.1
