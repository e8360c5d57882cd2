import numpy as np
import pytest

from splitrate.acceptance import conjugate_oracle
from splitrate.functions import (
    CompositeProblem,
    DiagOperator,
    DiagQuadratic,
    GFunction,
    SpectrumSpec,
    apply_operator,
    check_smoothness,
    check_strong_convexity,
    dual_function,
    eval_f,
    grad_f,
)
from splitrate.hilbert import Vec, basis_vector, norm
from splitrate.worstcase import make_dual_instance


@pytest.fixture
def two_band():
    """dim 4 with weights [1, 1, 4, 4]."""
    spec = SpectrumSpec(dim=4, sigma=1.0, beta=4.0, idx_sigma=frozenset({0, 1}))
    return DiagQuadratic.from_spectrum(spec)


# -- SpectrumSpec -------------------------------------------------------------


def test_spectrum_weight_layout():
    spec = SpectrumSpec(dim=4, sigma=2.0, beta=5.0, idx_sigma=frozenset({1, 3}))
    assert np.array_equal(spec.weights, [5.0, 2.0, 5.0, 2.0])
    assert spec.idx_beta == frozenset({0, 2})


def test_spectrum_requires_both_bands():
    with pytest.raises(ValueError, match="non-empty"):
        SpectrumSpec(dim=3, sigma=1.0, beta=2.0, idx_sigma=frozenset())
    with pytest.raises(ValueError, match="proper subset"):
        SpectrumSpec(dim=3, sigma=1.0, beta=2.0, idx_sigma=frozenset({0, 1, 2}))


def test_spectrum_requires_valid_levels():
    with pytest.raises(ValueError):
        SpectrumSpec(dim=2, sigma=4.0, beta=1.0, idx_sigma=frozenset({0}))
    with pytest.raises(ValueError):
        SpectrumSpec(dim=2, sigma=0.0, beta=1.0, idx_sigma=frozenset({0}))
    with pytest.raises(ValueError):
        SpectrumSpec(dim=2, sigma=1.0, beta=2.0, idx_sigma=frozenset({5}))


def test_spectrum_explicit_idx_beta_checked():
    SpectrumSpec(dim=2, sigma=1.0, beta=2.0, idx_sigma=frozenset({0}), idx_beta=frozenset({1}))
    with pytest.raises(ValueError, match="complement"):
        SpectrumSpec(dim=2, sigma=1.0, beta=2.0, idx_sigma=frozenset({0}), idx_beta=frozenset({0}))


def test_spectrum_equal_levels_allowed():
    spec = SpectrumSpec(dim=2, sigma=3.0, beta=3.0, idx_sigma=frozenset({0}))
    assert np.array_equal(spec.weights, [3.0, 3.0])


# -- DiagQuadratic evaluation -------------------------------------------------


def test_eval_f_examples(two_band):
    assert eval_f(two_band, Vec([0.0, 0.0, 0.0, 0.0])) == 0.0
    small = DiagQuadratic(np.array([1.0, 4.0]))
    assert eval_f(small, Vec([1.0, 1.0])) == 2.5
    assert eval_f(two_band, basis_vector(4, 3)) == two_band.beta / 2.0


def test_eval_f_bounded_by_beta(two_band):
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = Vec(rng.uniform(-10, 10, 4))
        assert 0.0 <= eval_f(two_band, x) <= two_band.beta / 2.0 * norm(x) ** 2 + 1e-12


def test_grad_f_examples(two_band):
    assert np.array_equal(grad_f(two_band, Vec([0.0] * 4)).coeffs, [0.0] * 4)
    small = DiagQuadratic(np.array([1.0, 4.0]))
    assert np.array_equal(grad_f(small, Vec([1.0, 1.0])).coeffs, [1.0, 4.0])


def test_grad_f_matches_central_differences(two_band):
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(20):
        x = rng.uniform(-5, 5, 4)
        g = grad_f(two_band, Vec(x)).coeffs
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (eval_f(two_band, Vec(xp)) - eval_f(two_band, Vec(xm))) / (2 * h)
            assert abs(g[i] - fd) <= 1e-6


def test_eval_dimension_mismatch(two_band):
    with pytest.raises(ValueError, match="dimension mismatch"):
        eval_f(two_band, Vec([1.0, 2.0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        grad_f(two_band, Vec([1.0, 2.0]))


def test_diag_quadratic_rejects_bad_weights():
    with pytest.raises(ValueError):
        DiagQuadratic(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DiagQuadratic(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        DiagQuadratic(np.array([]))


# -- convexity certificates ---------------------------------------------------


def test_strong_convexity_certificates(two_band):
    iso = DiagQuadratic(np.full(4, 2.0))
    assert check_strong_convexity(iso, 2.0)
    assert check_strong_convexity(two_band, two_band.sigma)
    assert not check_strong_convexity(two_band, two_band.beta + 1.0)


def test_smoothness_certificates(two_band):
    iso = DiagQuadratic(np.full(4, 2.0))
    assert check_smoothness(iso, 2.0)
    assert check_smoothness(two_band, two_band.beta)
    assert not check_smoothness(two_band, two_band.sigma / 2.0)


def test_certificates_hold_for_spectrum_instances():
    rng = np.random.default_rng(6)
    for _ in range(5):
        dim = int(rng.integers(2, 9))
        sigma = 10.0 ** rng.uniform(-1, 1)
        beta = sigma * 10.0 ** rng.uniform(0, 1.5)
        n_sigma = int(rng.integers(1, dim))
        spec = SpectrumSpec(dim=dim, sigma=sigma, beta=beta, idx_sigma=frozenset(rng.choice(dim, n_sigma, replace=False).tolist()))
        f = DiagQuadratic.from_spectrum(spec)
        assert f.sigma == sigma and f.beta == beta
        assert check_strong_convexity(f, sigma, n_samples=1000)
        assert check_smoothness(f, beta, n_samples=1000)


def test_certificates_require_samples(two_band):
    with pytest.raises(ValueError):
        check_strong_convexity(two_band, 1.0, n_samples=0)


# -- DiagOperator -------------------------------------------------------------


def test_operator_basis_action():
    op = DiagOperator.two_level(4, theta=1.0, zeta=2.0, idx_theta={0, 1})
    assert np.array_equal(apply_operator(op, basis_vector(4, 0)).coeffs, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(apply_operator(op, basis_vector(4, 3)).coeffs, [0.0, 0.0, 0.0, 2.0])
    assert np.array_equal(apply_operator(op, Vec([0.0] * 4)).coeffs, [0.0] * 4)


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
        mu = Vec(rng.uniform(-3, 3, 5))
        assert abs(eval_f(d, mu) - conjugate_oracle(p, mu)) <= 1e-8


def test_dual_envelope_constants_bound_dual_weights():
    # dual curvatures always sit within [theta^2/beta, zeta^2/sigma]
    for pairing in ("aligned", "crossed"):
        p = make_dual_instance(1.0, 10.0, 1.0, 3.0, 8, range(4), pairing=pairing)
        d = dual_function(p)
        assert d.sigma >= 1.0 / 10.0 - 1e-15
        assert d.beta <= 9.0 / 1.0 + 1e-15
        assert check_strong_convexity(d, 1.0 / 10.0)
        assert check_smoothness(d, 9.0)
