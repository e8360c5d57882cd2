import numpy as np
import pytest

from splitrate.functions import DiagQuadratic, GFunction
from splitrate.hilbert import Vec, basis_vector
from splitrate.prox import prox_diag, prox_g, prox_oracle, refl_prox_diag, refl_prox_g
from splitrate.worstcase import default_primal_instance


@pytest.fixture
def quad():
    return default_primal_instance().f  # weights [1,1,1,1,10,10,10,10]


def test_prox_diag_examples(quad):
    assert np.array_equal(prox_diag(quad, 1.0, Vec([0.0] * 8)).coeffs, [0.0] * 8)
    one = DiagQuadratic(np.array([1.0, 2.0]))
    out = prox_diag(one, 1.0, basis_vector(2, 0))
    assert np.array_equal(out.coeffs, [0.5, 0.0])


def test_prox_diag_rejects_nonpositive_gamma(quad):
    y = Vec(np.ones(8))
    for gamma in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            prox_diag(quad, gamma, y)
        with pytest.raises(ValueError):
            refl_prox_diag(quad, gamma, y)
        with pytest.raises(ValueError):
            prox_g(GFunction.ZERO, gamma, y)
        with pytest.raises(ValueError):
            refl_prox_g(GFunction.ZERO, gamma, y)


def test_refl_prox_examples():
    one = DiagQuadratic(np.array([1.0]))
    assert np.array_equal(refl_prox_diag(one, 1.0, Vec([1.0])).coeffs, [0.0])
    sig = DiagQuadratic(np.array([2.5]))
    # gamma * weight = 1 annihilates the coordinate
    assert np.array_equal(refl_prox_diag(sig, 1.0 / 2.5, Vec([1.0])).coeffs, [0.0])


def test_refl_is_two_prox_minus_identity(quad):
    rng = np.random.default_rng(11)
    for gamma in (1e-3, 0.3, 1.0, 7.0, 1e3):
        for _ in range(200):
            y = Vec(rng.uniform(-10, 10, 8))
            lhs = refl_prox_diag(quad, gamma, y)
            rhs = 2.0 * prox_diag(quad, gamma, y) - y
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12


def test_prox_g_both_kinds():
    y = Vec([2.0, 3.0])
    assert np.array_equal(prox_g(GFunction.ZERO, 1.0, y).coeffs, [2.0, 3.0])
    assert np.array_equal(prox_g(GFunction.ZERO_INDICATOR, 1.0, y).coeffs, [0.0, 0.0])
    assert np.array_equal(prox_g(GFunction.ZERO, 1.0, Vec([0.0, 0.0])).coeffs, [0.0, 0.0])


def test_refl_prox_g_both_kinds():
    y = Vec([1.0, 2.0])
    assert np.array_equal(refl_prox_g(GFunction.ZERO, 1.0, y).coeffs, [1.0, 2.0])
    assert np.array_equal(refl_prox_g(GFunction.ZERO_INDICATOR, 1.0, y).coeffs, [-1.0, -2.0])
    assert np.array_equal(refl_prox_g(GFunction.ZERO_INDICATOR, 1.0, Vec([0.0, 0.0])).coeffs, [0.0, 0.0])


def test_prox_oracle_scalar_cases():
    # quadratic coordinate, weight 1, gamma 1, input 1 -> 0.5
    out = prox_oracle(lambda i, t: 0.5 * t * t, 1.0, Vec([1.0]))
    assert abs(out.coeffs[0] - 0.5) <= 1e-10
    # flat coordinate: prox is the identity
    out = prox_oracle(lambda i, t: 0.0, 2.0, Vec([3.3]))
    assert abs(out.coeffs[0] - 3.3) <= 1e-10
    # weight 4, gamma 0.5, input 3 -> 3 / (1 + 2) = 1
    out = prox_oracle(lambda i, t: 2.0 * t * t, 0.5, Vec([3.0]))
    assert abs(out.coeffs[0] - 1.0) <= 1e-10


def test_prox_oracle_rejects_non_finite_objective():
    def bad(i, t):
        return float("inf") if abs(t) > 5 else t * t

    with pytest.raises(ValueError, match="not finite"):
        prox_oracle(bad, 1.0, Vec([0.0]))


def test_prox_acts_coordinatewise(quad):
    # perturbing one input coordinate only moves that output coordinate
    rng = np.random.default_rng(15)
    y = Vec(rng.uniform(-5, 5, 8))
    for op in (prox_diag, refl_prox_diag):
        base = op(quad, 0.7, y).coeffs
        for j in range(8):
            bumped = y.coeffs.copy()
            bumped[j] += 1.0
            out = op(quad, 0.7, Vec(bumped)).coeffs
            changed = np.flatnonzero(out != base)
            assert np.array_equal(changed, [j])
