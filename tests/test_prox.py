import numpy as np
import pytest

from splitrate.functions import CompositeProblem, DiagQuadratic, GFunction
from splitrate.hilbert import Vec
from splitrate.prox import prox_oracle
from splitrate.splitting import SplitParams, run_dr
from splitrate.worstcase import default_primal_instance


def _step(alpha, gamma, y):
    """One engine step from ``y`` on the default instance, whose g is zero:
    ``prox_{gamma f}(y)`` at alpha 1/2 and ``R_f(y)`` at alpha 1."""
    return run_dr(default_primal_instance(), SplitParams(alpha, gamma), y, max_iter=1, tol=0.0).iterates[1].coeffs


def test_refl_prox_examples():
    # one alpha 1 step on a g = 0 problem is R_f; gamma * weight = 1
    # annihilates the coordinate
    for weight in (1.0, 2.5):
        p = CompositeProblem(f=DiagQuadratic(np.array([weight])), g=GFunction.ZERO)
        out = run_dr(p, SplitParams(1.0, 1.0 / weight), Vec([1.0]), max_iter=1, tol=0.0).iterates[1].coeffs
        assert np.array_equal(out, [0.0])


def test_refl_is_two_prox_minus_identity():
    rng = np.random.default_rng(11)
    for gamma in (1e-3, 0.3, 1.0, 7.0, 1e3):
        for _ in range(40):
            y = Vec(rng.uniform(-10, 10, 8))
            assert np.max(np.abs(_step(1.0, gamma, y) - (2.0 * _step(0.5, gamma, y) - y.coeffs))) <= 1e-12


def test_prox_acts_coordinatewise():
    # perturbing one input coordinate only moves that output coordinate
    rng = np.random.default_rng(15)
    y = Vec(rng.uniform(-5, 5, 8))
    for alpha in (0.5, 1.0):
        base = _step(alpha, 0.7, y)
        for j in range(8):
            bumped = y.coeffs.copy()
            bumped[j] += 1.0
            changed = np.flatnonzero(_step(alpha, 0.7, Vec(bumped)) != base)
            assert np.array_equal(changed, [j])


def test_prox_oracle_scalar_cases():
    # quadratic coordinate, weight 1, gamma 1, input 1 -> 0.5
    out = prox_oracle(lambda i, t: 0.5 * t * t, 1.0, np.array([1.0]))
    assert abs(out[0] - 0.5) <= 1e-10
    # flat coordinate: prox is the identity
    out = prox_oracle(lambda i, t: 0.0, 2.0, np.array([3.3]))
    assert abs(out[0] - 3.3) <= 1e-10
    # weight 4, gamma 0.5, input 3 -> 3 / (1 + 2) = 1
    out = prox_oracle(lambda i, t: 2.0 * t * t, 0.5, np.array([3.0]))
    assert abs(out[0] - 1.0) <= 1e-10


def test_prox_oracle_rejects_nonpositive_gamma():
    for gamma in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            prox_oracle(lambda i, t: t * t, gamma, np.array([1.0]))


def test_prox_oracle_rejects_non_finite_objective():
    def bad(i, t):
        return float("inf") if abs(t) > 5 else t * t

    with pytest.raises(ValueError, match="not finite"):
        prox_oracle(bad, 1.0, np.array([0.0]))
