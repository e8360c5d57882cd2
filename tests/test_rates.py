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
from splitrate.prox import prox_oracle
from splitrate.splitting import SplitParams, run_admm
from splitrate.worstcase import default_dual_instance, make_primal_instance, predict_iterate, worst_coordinates


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


# -- one point or many --------------------------------------------------------


def _reference_point(alpha, gamma, sigma, beta):
    """The formulas written out on Python floats for one point: (rate, upper
    bound, case, worst direction)."""

    def p(x):
        return (1.0 - x) / (1.0 + x)

    max_term = max(p(gamma * sigma), -p(gamma * beta))
    rate = abs(1.0 - alpha) + alpha * max_term
    upper = 2.0 / (1.0 + max_term)
    gamma_star = 1.0 / math.sqrt(sigma * beta)
    at_one = math.isclose(alpha, 1.0, rel_tol=1e-12)
    at_star = math.isclose(gamma, gamma_star, rel_tol=1e-12)
    if at_one:
        case = TightnessCase.CASE_I
    elif alpha < 1.0 and (gamma <= gamma_star or at_star):
        case = TightnessCase.CASE_II
    elif 1.0 < alpha < upper and (gamma >= gamma_star or at_star):
        case = TightnessCase.CASE_III
    elif alpha < upper:
        case = TightnessCase.FEASIBLE_NOT_CLASSIFIED
    else:
        case = TightnessCase.INFEASIBLE
    c_sigma = abs(1.0 - alpha + alpha * p(gamma * sigma))
    c_beta = abs(1.0 - alpha + alpha * p(gamma * beta))
    direction = "sigma" if c_sigma >= c_beta * (1.0 - 1e-12) else "beta"
    return rate, upper, case, direction


def _nudged(x, ulps):
    """x moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else 0.0)
    return x


@st.composite
def rate_points(draw):
    """A spectrum (sigma = beta included, condition number up to 1e8) and
    points on its edges: alpha exactly 1 or near it, gamma exactly
    1/sqrt(sigma*beta) or near it, alpha at or around alpha_upper_bound,
    near-ties of the two bands' step factors, and generic points. "Near" is
    a few ulps, or a relative offset on either side of the classifier's
    1e-12 tolerance."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    beta = draw(st.just(sigma) | st.floats(0.0, 8.0).map(lambda e: sigma * 10.0**e))
    gamma_star = 1.0 / math.sqrt(sigma * beta)
    offsets = st.sampled_from([-1e-6, -1e-11, -1e-13, 1e-13, 1e-11, 1e-6])

    def near(x):
        return st.integers(-3, 3).map(lambda u: _nudged(x, u)) | offsets.map(lambda r: x * (1.0 + r))

    points = []
    for kind in draw(st.lists(st.sampled_from(["generic", "one", "upper", "tie"]), min_size=1, max_size=24)):
        gamma = draw(near(gamma_star) | st.floats(-3.0, 3.0).map(lambda e: gamma_star * 10.0**e))
        if kind == "one":
            alpha = draw(near(1.0))
        elif kind == "upper":
            alpha = draw(near(alpha_upper_bound(gamma, sigma, beta)))
        elif kind == "tie":
            # |1 - a + a p_sigma| = |1 - a + a p_beta| with opposite signs
            p_sigma, p_beta = psi(gamma * sigma), psi(gamma * beta)
            alpha = draw(near(2.0 / (2.0 - p_sigma - p_beta)))
        else:
            alpha = draw(st.floats(0.01, 4.0))
        points.append((alpha, gamma))
    return sigma, beta, points


@settings(deadline=None, max_examples=120)
@given(rate_points())
def test_row_forms_equal_the_scalar_reference_bitwise(case):
    # each formula, called on arrays of points and point by point, equals the
    # Python-float reference bit for bit; one point gives a float or a label
    sigma, beta, points = case
    alphas, gammas = np.array(points).T
    quad = make_primal_instance(sigma, beta, 2, {0}).f
    reference = [_reference_point(a, g, sigma, beta) for a, g in points]
    rates, uppers, cases, directions = zip(*reference)
    coordinates = [0 if d == "sigma" else 1 for d in directions]
    assert theoretical_rate(alphas, gammas, sigma, beta).tobytes() == np.array(rates).tobytes()
    assert alpha_upper_bound(gammas, sigma, beta).tobytes() == np.array(uppers).tobytes()
    assert list(classify_tightness(alphas, gammas, sigma, beta)) == list(cases)
    assert list(worst_coordinates(quad, alphas, gammas)) == coordinates
    for (alpha, gamma), (rate, upper, label, _), coordinate in zip(points, reference, coordinates):
        one_rate = theoretical_rate(alpha, gamma, sigma, beta)
        one_upper = alpha_upper_bound(gamma, sigma, beta)
        assert isinstance(one_rate, float) and isinstance(one_upper, float)
        assert np.float64(one_rate).tobytes() == np.float64(rate).tobytes()
        assert np.float64(one_upper).tobytes() == np.float64(upper).tobytes()
        assert classify_tightness(alpha, gamma, sigma, beta) is label
        assert worst_coordinates(quad, alpha, gamma) == coordinate


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_row_forms_reject_bad_points(bad):
    good = np.array([1.0, 0.5])
    with_bad = np.array([1.0, bad])
    quad = make_primal_instance(1.0, 2.0, 2, {0}).f
    for call in (
        lambda: theoretical_rate(with_bad, good, 1.0, 2.0),
        lambda: theoretical_rate(good, with_bad, 1.0, 2.0),
        lambda: theoretical_rate(bad, 0.5, 1.0, 2.0),
        lambda: alpha_upper_bound(with_bad, 1.0, 2.0),
        lambda: classify_tightness(with_bad, good, 1.0, 2.0),
        lambda: worst_coordinates(quad, good, with_bad),
        lambda: worst_coordinates(quad, bad, 0.5),
    ):
        with pytest.raises(ValueError, match="positive and finite"):
            call()
    with pytest.raises(ValueError, match="sigma <= beta"):
        theoretical_rate(good, good, 3.0, 2.0)


def test_step_sizes_whose_product_with_beta_overflows_are_rejected():
    # gamma * beta = inf makes the bound's second term NaN, which the max
    # used to drop: a rate of -1, an infinite relaxation limit, and Case III
    # at the infeasible alpha 5
    for call in (
        lambda: theoretical_rate(1.0, 1e308, 1.0, 10.0),
        lambda: theoretical_rate(np.ones(2), np.array([1.0, 1e308]), 1.0, 10.0),
        lambda: alpha_upper_bound(1e308, 1.0, 10.0),
        lambda: classify_tightness(5.0, 1e308, 1.0, 10.0),
    ):
        with pytest.raises(ValueError, match=r"gamma \* beta must be finite"):
            call()
    # a product that stays finite is still a point
    assert theoretical_rate(1.0, 1e307, 1.0, 10.0) == 1.0
    assert classify_tightness(5.0, 1e307, 1.0, 10.0) is TightnessCase.INFEASIBLE


#: each caller of the shared positive-and-finite validator, with the name it
#: reports, as a function of the bad value
_SCALAR_VALIDATED = {
    "SplitParams gamma": ("gamma", lambda bad: SplitParams(1.0, bad)),
    "SplitParams alpha": ("alpha", lambda bad: SplitParams(bad, 1.0)),
    "run_admm rho": ("rho", lambda bad: run_admm(default_dual_instance(), rho=bad, alpha=1.0)),
    "run_admm alpha": ("alpha", lambda bad: run_admm(default_dual_instance(), rho=1.0, alpha=bad)),
    # the step multiplier: the factor of one step, the first iterate's coefficient
    "step_multiplier gamma": ("gamma", lambda bad: predict_iterate(1.0, 1.0, bad, 1)),
    "prox_oracle gamma": ("gamma", lambda bad: prox_oracle(lambda i, t: t * t, bad, np.array([1.0]))),
}


@pytest.mark.parametrize("caller", _SCALAR_VALIDATED)
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_scalar_validators_share_one_message(caller, bad):
    name, call = _SCALAR_VALIDATED[caller]
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got"):
        call(bad)
