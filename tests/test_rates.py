import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitrate.rates import (
    TIGHT_CASES,
    TightnessCase,
    alpha_upper_bound,
    classify_tightness,
    dual_rate_constants,
    optimal_params,
    psi,
    theoretical_rate,
)


def test_psi_values():
    assert psi(0.0) == 1.0
    assert psi(1.0) == 0.0
    assert psi(3.0) == -0.5


def test_psi_domain():
    with pytest.raises(ValueError):
        psi(-1.0)
    with pytest.raises(ValueError):
        psi(-2.0)


def test_theoretical_rate_examples():
    assert theoretical_rate(1.0, 0.5, 1.0, 4.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert theoretical_rate(1.0, 1.0, 1.0, 1.0) == 0.0
    assert theoretical_rate(0.5, 1.0, 1.0, 1.0) == 0.5


def test_theoretical_rate_validation():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            theoretical_rate(bad, 1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            theoretical_rate(1.0, bad, 1.0, 2.0)
    with pytest.raises(ValueError):
        theoretical_rate(1.0, 1.0, 3.0, 2.0)


def test_rate_below_one_iff_feasible():
    rng = np.random.default_rng(18)
    for _ in range(2000):
        sigma = 10.0 ** rng.uniform(-1, 1)
        beta = sigma * 10.0 ** rng.uniform(0, 2)
        gamma = 10.0 ** rng.uniform(-3, 3)
        alpha = rng.uniform(1e-3, 2.5)
        upper = alpha_upper_bound(gamma, sigma, beta)
        rate = theoretical_rate(alpha, gamma, sigma, beta)
        assert (rate < 1.0) == (alpha < upper)


def test_optimal_params_examples():
    assert optimal_params(1.0, 4.0) == (1.0, 0.5, pytest.approx(1.0 / 3.0, abs=1e-15))
    alpha, gamma, rate = optimal_params(2.0, 2.0)
    assert (alpha, gamma, rate) == (1.0, 0.5, 0.0)
    alpha, gamma, rate = optimal_params(1.0, 100.0)
    assert (alpha, gamma) == (1.0, 0.1)
    assert rate == pytest.approx(9.0 / 11.0, abs=1e-15)


def test_optimal_rate_equals_rate_formula():
    for sigma, beta in [(1.0, 4.0), (0.3, 11.0), (2.0, 2.0)]:
        alpha, gamma, rate = optimal_params(sigma, beta)
        assert rate == pytest.approx(theoretical_rate(alpha, gamma, sigma, beta), abs=1e-15)


def test_alpha_upper_bound_examples():
    assert alpha_upper_bound(0.5, 1.0, 4.0) == pytest.approx(1.5, abs=1e-15)
    assert alpha_upper_bound(1.0, 1.0, 1.0) == 2.0
    assert abs(alpha_upper_bound(1e6, 1.0, 4.0) - 1.0) <= 1e-5


def test_alpha_upper_bound_range():
    rng = np.random.default_rng(19)
    for _ in range(2000):
        sigma = 10.0 ** rng.uniform(-1, 1)
        beta = sigma * 10.0 ** rng.uniform(0, 2)
        gamma = 10.0 ** rng.uniform(-4, 4)
        assert 1.0 < alpha_upper_bound(gamma, sigma, beta) <= 2.0


def test_gamma_star_minimizes_rate():
    sigma, beta = 1.0, 10.0
    gamma_star = 1.0 / math.sqrt(sigma * beta)
    grid = np.geomspace(gamma_star / 100.0, gamma_star * 100.0, 200)
    rates = [theoretical_rate(1.0, g, sigma, beta) for g in grid]
    best = grid[int(np.argmin(rates))]
    spacing = math.log(grid[1] / grid[0])
    assert abs(math.log(best / gamma_star)) <= spacing + 1e-12


def test_no_feasible_pair_beats_optimum():
    sigma, beta = 1.0, 10.0
    _, _, best_rate = optimal_params(sigma, beta)
    gammas = np.geomspace(0.01, 10.0, 50)
    alphas = np.linspace(0.05, 1.95, 50)
    for gamma in gammas:
        upper = alpha_upper_bound(gamma, sigma, beta)
        for alpha in alphas:
            if alpha >= upper:
                continue
            assert theoretical_rate(alpha, gamma, sigma, beta) >= best_rate - 1e-12


def test_dual_rate_constants_examples():
    c = dual_rate_constants(1.0, 1.0, 1.0, 1.0)
    assert (c.sigma_hat, c.beta_hat, c.kappa) == (1.0, 1.0, 1.0)
    c = dual_rate_constants(1.0, 4.0, 1.0, 2.0)
    assert (c.sigma_hat, c.beta_hat, c.kappa) == (0.25, 4.0, 16.0)
    _, gamma, rate = c.optimal_dual_params()
    assert gamma == pytest.approx(math.sqrt(4.0) / 2.0, abs=1e-15)  # sqrt(beta*sigma)/(zeta*theta)
    assert rate == pytest.approx(0.6, abs=1e-15)  # (sqrt(16)-1)/(sqrt(16)+1)


def test_dual_rate_constants_validation():
    with pytest.raises(ValueError):
        dual_rate_constants(4.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        dual_rate_constants(1.0, 4.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        dual_rate_constants(1.0, 4.0, 0.0, 1.0)


def test_classify_examples():
    assert classify_tightness(1.0, 7.0, 1.0, 4.0) is TightnessCase.CASE_I
    assert classify_tightness(0.3, 0.1, 1.0, 4.0) is TightnessCase.CASE_II
    assert classify_tightness(0.3, 5.0, 1.0, 4.0) is TightnessCase.FEASIBLE_NOT_CLASSIFIED


def test_classify_case_iii_and_infeasible():
    sigma, beta = 1.0, 4.0
    gamma = 2.0  # above 1/sqrt(sigma*beta) = 0.5
    upper = alpha_upper_bound(gamma, sigma, beta)
    assert classify_tightness((1.0 + upper) / 2.0, gamma, sigma, beta) is TightnessCase.CASE_III
    assert classify_tightness(upper, gamma, sigma, beta) is TightnessCase.INFEASIBLE
    assert classify_tightness(1.99, 2.0, 1.0, 4.0) is TightnessCase.INFEASIBLE


def test_classify_boundary_overlaps_resolve_in_order():
    sigma, beta = 1.0, 4.0
    gamma_star = 0.5
    # the all-regions overlap point goes to the first region
    assert classify_tightness(1.0, gamma_star, sigma, beta) is TightnessCase.CASE_I
    # on the gamma_star line, small alpha matches the second region first
    assert classify_tightness(0.4, gamma_star, sigma, beta) is TightnessCase.CASE_II
    upper = alpha_upper_bound(gamma_star, sigma, beta)
    assert classify_tightness((1.0 + upper) / 2.0, gamma_star, sigma, beta) is TightnessCase.CASE_III


def test_classify_emits_a_tight_label_everywhere_in_the_regions():
    rng = np.random.default_rng(20)
    sigma, beta = 1.0, 10.0
    gamma_star = 1.0 / math.sqrt(sigma * beta)
    for _ in range(500):
        gamma = gamma_star * 10.0 ** rng.uniform(-1.5, 1.5)
        upper = alpha_upper_bound(gamma, sigma, beta)
        alpha = rng.uniform(0.05, upper - 1e-6)
        label = classify_tightness(alpha, gamma, sigma, beta)
        in_i = math.isclose(alpha, 1.0, rel_tol=1e-12)
        in_ii = alpha <= 1.0 and gamma <= gamma_star
        in_iii = 1.0 <= alpha < upper and gamma >= gamma_star
        if in_i or in_ii or in_iii:
            assert label in TIGHT_CASES
        else:
            assert label is TightnessCase.FEASIBLE_NOT_CLASSIFIED



@settings(deadline=None)
@given(
    sigma_exp=st.floats(-3.0, 3.0),
    cond_exp=st.floats(0.0, 8.0),
    frac=st.floats(1e-6, 1.0, exclude_max=True),
)
def test_classify_covers_the_gamma_star_line_with_cases_i_to_iii(sigma_exp, cond_exp, frac):
    # the paper's fourth region (gamma = 1/sqrt(sigma*beta), any feasible
    # alpha) lies inside the first three, so every feasible point on it is
    # labelled Case I, II or III
    sigma = 10.0**sigma_exp
    beta = sigma * 10.0**cond_exp
    gamma = 1.0 / math.sqrt(sigma * beta)
    alpha = frac * alpha_upper_bound(gamma, sigma, beta)
    label = classify_tightness(alpha, gamma, sigma, beta)
    assert label in {TightnessCase.CASE_I, TightnessCase.CASE_II, TightnessCase.CASE_III}
    assert classify_tightness(1.0, gamma, sigma, beta) is TightnessCase.CASE_I

def test_classify_validation():
    with pytest.raises(ValueError):
        classify_tightness(0.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        classify_tightness(1.0, -1.0, 1.0, 2.0)
