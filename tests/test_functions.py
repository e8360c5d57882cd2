import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitrate.acceptance import conjugate_oracle
from splitrate.functions import (
    CompositeProblem,
    DiagOperator,
    DiagQuadratic,
    GFunction,
    dual_function,
)
from splitrate.hilbert import basis_rows
from splitrate.rates import dual_rate_constants
from splitrate.worstcase import PAIRINGS, make_dual_instance, make_primal_instance


@pytest.fixture
def two_band():
    """dim 4 with weights [1, 1, 4, 4]."""
    return make_primal_instance(1.0, 4.0, 4, {0, 1}).f


# -- two-band layout ----------------------------------------------------------


def test_spectrum_weight_layout():
    assert np.array_equal(make_primal_instance(2.0, 5.0, 4, {1, 3}).f.weights, [5.0, 2.0, 5.0, 2.0])
    # the crossed pairing puts theta on the beta band {0, 2}
    crossed = make_dual_instance(2.0, 5.0, 1.0, 3.0, 4, {1, 3}, pairing="crossed")
    assert np.array_equal(crossed.f.weights, [5.0, 2.0, 5.0, 2.0])
    assert np.array_equal(crossed.a.weights, [1.0, 3.0, 1.0, 3.0])


def test_spectrum_requires_both_bands():
    dual = lambda sigma, beta, dim, idx_sigma: make_dual_instance(sigma, beta, 1.0, 2.0, dim, idx_sigma)
    for make in (make_primal_instance, dual):
        with pytest.raises(ValueError, match="idx_sigma must be non-empty"):
            make(1.0, 2.0, 3, frozenset())
        with pytest.raises(ValueError, match="proper subset: the beta band must be non-empty"):
            make(1.0, 2.0, 3, {0, 1, 2})


def test_spectrum_requires_valid_levels():
    with pytest.raises(ValueError, match="dim must be a positive integer, got 0"):
        make_primal_instance(1.0, 2.0, 0, {0})
    for sigma, beta in ((4.0, 1.0), (0.0, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match=r"need 0 < sigma <= beta"):
            make_primal_instance(sigma, beta, 2, {0})
    with pytest.raises(ValueError, match=r"idx_sigma indices must lie in \[0, 2\)"):
        make_primal_instance(1.0, 2.0, 2, {5})


def test_spectrum_equal_levels_allowed():
    assert np.array_equal(make_primal_instance(3.0, 3.0, 2, {0}).f.weights, [3.0, 3.0])


# -- DiagQuadratic evaluation -------------------------------------------------


def test_grad_f_matches_central_differences(two_band):
    f = lambda x: 0.5 * np.dot(two_band.weights, x**2)
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(20):
        x = rng.uniform(-5, 5, 4)
        g = two_band.weights * x
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (f(xp) - f(xm)) / (2 * h)
            assert abs(g[i] - fd) <= 1e-6


def test_diag_quadratic_rejects_bad_weights():
    with pytest.raises(ValueError):
        DiagQuadratic(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DiagQuadratic(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        DiagQuadratic(np.array([]))


# -- curvature envelope -------------------------------------------------------


def test_certificates_hold_for_spectrum_instances():
    # sigma and beta are the extreme weights, so the instance's own sigma and
    # beta are its best strong-convexity and smoothness constants
    rng = np.random.default_rng(6)
    for _ in range(5):
        dim = int(rng.integers(2, 9))
        sigma = 10.0 ** rng.uniform(-1, 1)
        beta = sigma * 10.0 ** rng.uniform(0, 1.5)
        n_sigma = int(rng.integers(1, dim))
        idx_sigma = rng.choice(dim, n_sigma, replace=False)
        f = make_primal_instance(sigma, beta, dim, idx_sigma).f
        assert f.sigma == sigma and f.beta == beta
        assert np.array_equal(f.weights, np.where(np.isin(np.arange(dim), idx_sigma), sigma, beta))


# -- DiagOperator -------------------------------------------------------------


def test_operator_basis_action():
    op = DiagOperator.two_level(4, theta=1.0, zeta=2.0, idx_theta={0, 1})
    low, high = op.weights * basis_rows(4, [0, 3])
    assert np.array_equal(low, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(high, [0.0, 0.0, 0.0, 2.0])


def test_operator_rejects_bad_gains():
    with pytest.raises(ValueError):
        DiagOperator.two_level(3, theta=0.0, zeta=1.0, idx_theta={0})
    with pytest.raises(ValueError):
        DiagOperator.two_level(3, theta=2.0, zeta=1.0, idx_theta={0})
    with pytest.raises(ValueError):
        DiagOperator(np.array([1.0, 1.5]), theta=1.0, zeta=2.0)


def test_composite_problem_dimension_check(two_band):
    op = DiagOperator.two_level(3, theta=1.0, zeta=2.0, idx_theta={0})
    with pytest.raises(ValueError, match="dimension"):
        CompositeProblem(f=two_band, g=GFunction.ZERO_INDICATOR, a=op)


# -- dual construction --------------------------------------------------------


def test_dual_function_weights_exact():
    p = make_dual_instance(1.0, 4.0, 1.0, 2.0, 2, {0}, pairing="aligned")
    assert np.array_equal(dual_function(p).weights, [1.0, 1.0])
    p = make_dual_instance(1.0, 4.0, 1.0, 8.0, 2, {0}, pairing="aligned")
    assert np.array_equal(dual_function(p).weights, [1.0, 16.0])
    iso = CompositeProblem(
        f=DiagQuadratic(np.ones(2)),
        g=GFunction.ZERO_INDICATOR,
        a=DiagOperator(np.ones(2), theta=1.0, zeta=1.0),
    )
    assert np.array_equal(dual_function(iso).weights, [1.0, 1.0])


def test_dual_function_weight_formula_random():
    rng = np.random.default_rng(8)
    for _ in range(20):
        lam = rng.uniform(0.5, 5.0, 5)
        theta, zeta = 0.7, 2.3
        gains = np.where(rng.uniform(size=5) < 0.5, theta, zeta)
        gains[0], gains[1] = theta, zeta
        p = CompositeProblem(
            f=DiagQuadratic(lam),
            g=GFunction.ZERO_INDICATOR,
            a=DiagOperator(gains, theta=theta, zeta=zeta),
        )
        expected = gains**2 / lam
        assert np.max(np.abs(dual_function(p).weights - expected)) <= 1e-14 * np.max(expected)


def test_dual_function_requires_indicator_and_operator(two_band):
    with pytest.raises(ValueError, match="indicator"):
        dual_function(CompositeProblem(f=two_band, g=GFunction.ZERO, a=None))
    with pytest.raises(ValueError, match="coupling"):
        dual_function(CompositeProblem(f=two_band, g=GFunction.ZERO_INDICATOR, a=None))


def test_dual_function_matches_numeric_conjugate():
    p = make_dual_instance(1.0, 7.0, 0.8, 2.5, 5, {0, 2}, pairing="crossed")
    d = dual_function(p)
    rng = np.random.default_rng(9)
    for _ in range(100):
        mu = rng.uniform(-3, 3, 5)
        assert abs(0.5 * np.dot(d.weights, mu**2) - conjugate_oracle(p, mu)) <= 1e-8


@st.composite
def oracle_cases(draw):
    """A dual instance from the whole family and one point mu in [-3, 3]^dim:
    sigma <= beta up to condition 1e8, theta < zeta, dim 2..64, a random band
    split and either pairing."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    beta = sigma * 10.0 ** draw(st.floats(0.0, 8.0))
    theta = 10.0 ** draw(st.floats(-3.0, 3.0))
    zeta = theta * 10.0 ** draw(st.floats(0.01, 4.0))
    dim = draw(st.integers(2, 64))
    n_sigma = draw(st.integers(1, dim - 1))
    idx_sigma = draw(st.permutations(range(dim)))[:n_sigma]
    pairing = draw(st.sampled_from(PAIRINGS))
    mu = draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim))
    return make_dual_instance(sigma, beta, theta, zeta, dim, idx_sigma, pairing), np.array(mu)


@settings(deadline=None, max_examples=100)
@given(oracle_cases())
def test_numeric_conjugate_matches_dual_over_the_family(case):
    p, mu = case
    value = 0.5 * np.dot(dual_function(p).weights, mu**2)
    assert abs(value - conjugate_oracle(p, mu)) <= 1e-8 * max(1.0, abs(value))


def test_dual_envelope_constants_bound_dual_weights():
    # dual curvatures always sit within [theta^2/beta, zeta^2/sigma]
    for pairing in ("aligned", "crossed"):
        p = make_dual_instance(1.0, 10.0, 1.0, 3.0, 8, range(4), pairing=pairing)
        weights = dual_function(p).weights
        constants = dual_rate_constants(1.0, 10.0, 1.0, 3.0)
        assert constants.sigma_hat <= weights.min()
        assert weights.max() <= constants.beta_hat
