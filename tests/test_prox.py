import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitrate import acceptance
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
        return np.where(np.abs(t) > 5, np.inf, t * t)

    with pytest.raises(ValueError, match="not finite"):
        prox_oracle(bad, 1.0, np.array([0.0]))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _scalar_search(objective, gamma, b, halfwidth=10.0, tol=1e-12, dt=1e-4):
    """The oracle's search for one coordinate, in Python floats: golden
    section down to a 1e-4 bracket, then bisection on the sign of a
    central-difference slope, with the oracle's arithmetic (``d * d``)."""

    def h(t):
        d = t - b
        return objective(t) + d * d / (2.0 * gamma)

    lo, hi = b - halfwidth, b + halfwidth
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    h1, h2 = h(x1), h(x2)
    while hi - lo > 1e-4:
        if h1 <= h2:
            hi, x2, h2 = x2, x1, h1
            x1 = hi - _GOLDEN * (hi - lo)
            h1 = h(x1)
        else:
            lo, x1, h1 = x1, x2, h2
            x2 = lo + _GOLDEN * (hi - lo)
            h2 = h(x2)
    lo, hi = lo - 1e-3, hi + 1e-3

    def slope(t):
        return (h(t + dt) - h(t - dt)) / (2.0 * dt)

    s_lo, s_hi = slope(lo), slope(hi)
    if s_lo > 0.0 or s_hi < 0.0:
        return lo if s_lo > 0.0 else hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slope(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scalar_oracle(coord_objective, gammas, ys):
    """:func:`prox_oracle` on ``(rows, dim)`` inputs with one step size per
    row, coordinate by coordinate through :func:`_scalar_search`."""
    out = np.empty(ys.shape)
    for r, i in np.ndindex(ys.shape):
        objective = lambda t: coord_objective(i, t)
        out[r, i] = _scalar_search(objective, float(gammas[r, 0]), float(ys[r, i]))
    return out


@st.composite
def oracle_cases(draw):
    """A coordinate objective (two-band quadratic, flat, or linear with
    slopes from gentle to steep enough to put the minimum at a bracket end),
    one log-uniform step size in 1e-3..1e3 per row, and inputs in [-5, 5]."""
    dim, rows = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["quadratic", "flat", "linear"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "quadratic":
        sigma = 10.0 ** draw(st.floats(-2.0, 1.0))
        beta = sigma * 10.0 ** draw(st.floats(0.0, 3.0))
        weights = np.where(rng.random(dim) < 0.5, sigma, beta)
        objective = lambda i, t: 0.5 * weights[i] * t * t
    elif kind == "flat":
        objective = lambda i, t: 0.0 * t
    else:
        # gamma * |slope| above 10 moves the minimum past the bracket
        slopes = rng.choice([-1.0, 1.0], dim) * 10.0 ** rng.uniform(-2.0, 6.0, dim)
        objective = lambda i, t: slopes[i] * t
    gammas = 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
    return objective, gammas, rng.uniform(-5.0, 5.0, (rows, dim))


@settings(deadline=None, max_examples=60)
@given(oracle_cases())
def test_array_oracle_equals_the_scalar_search_bitwise(case):
    objective, gammas, ys = case
    assert prox_oracle(objective, gammas, ys).tobytes() == _scalar_oracle(objective, gammas, ys).tobytes()


def test_array_oracle_equals_the_scalar_search_on_the_battery_coordinates(monkeypatch):
    calls = []

    def recorded(coord_objective, gamma, y):
        out = prox_oracle(coord_objective, gamma, y)
        calls.append((coord_objective, gamma, y, out))
        return out

    monkeypatch.setattr(acceptance, "prox_oracle", recorded)
    assert acceptance._property_suites()[0]
    ((objective, gammas, ys, out),) = calls
    assert out.shape == (100, 8)
    assert out.tobytes() == _scalar_oracle(objective, gammas, ys).tobytes()
