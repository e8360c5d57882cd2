"""The splitting engines, their one-row and batch runs, the replayed
iterates and the rate fits. ``check_one_row_is_its_batch_row`` is also run
at dim 1e6 outside the test suite::

    python -c "import sys; sys.path.insert(0, 'tests'); import test_splitting as t; \\
        print(t.check_one_row_is_its_batch_row('admm', 10**6))"
"""

import contextlib
import itertools
import math
import mmap
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitrate.functions import CompositeProblem, DiagOperator, DiagQuadratic, GFunction, dual_function
from splitrate.hilbert import Vec, basis_rows, random_basis_map
from splitrate.rates import alpha_upper_bound, optimal_params, theoretical_rate
from splitrate import acceptance, cli, splitting
from splitrate.splitting import (
    DivergenceError,
    IterateTrace,
    SplitParams,
    fit_rate,
    fit_rates,
    run_admm,
    run_dr,
    run_rows,
)
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


@pytest.fixture
def primal():
    return default_primal_instance()


def _unit(dim, index):
    """The one-row start along coordinate ``index``."""
    return Vec(basis_rows(dim, [index])[0])


def _worst(quad, alpha, gamma):
    """The one-row worst start of ``quad`` at ``(alpha, gamma)``."""
    return _unit(quad.dim, worst_coordinates(quad, alpha, gamma))


def _trace_from_distances(dists):
    """Synthetic trace with prescribed distance sequence."""
    vecs = [Vec([d, 0.0]) for d in dists]
    dists = np.asarray(dists, dtype=float)
    ratios = dists[1:] / dists[:-1]
    return IterateTrace(vecs, Vec(np.zeros(2)), dists, ratios, converged=True)


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


# -- run_dr -------------------------------------------------------------------


def _one_step(problem, params, z0):
    """The iterate after one :func:`run_dr` step from ``z0``."""
    return run_dr(problem, params, z0, max_iter=1, tol=0.0).iterates[1].coeffs


def test_dr_step_unit_weight_annihilates():
    # gamma * weight = 1 makes the reflection factor 0, so at alpha 1 one
    # step sends the coordinate to 0
    p = make_primal_instance(1.0, 1.0, 2, {0})
    assert np.array_equal(_one_step(p, SplitParams(1.0, 1.0), _unit(2, 0)), [0.0, 0.0])
    p = make_primal_instance(2.5, 2.5, 2, {0})
    assert np.array_equal(_one_step(p, SplitParams(1.0, 1.0 / 2.5), _unit(2, 1)), [0.0, 0.0])


def test_run_dr_half_relaxation_coefficient():
    # alpha 1/2, gamma 1, weight 3: coefficient 1 - a + a*(1-3)/(1+3) = 0.25
    p = make_primal_instance(3.0, 3.0, 2, {0})
    assert np.allclose(_one_step(p, SplitParams(0.5, 1.0), _unit(2, 0)), [0.25, 0.0], atol=1e-15)


def test_half_step_is_the_prox():
    # at alpha 1/2 with g = 0 a step is (z + R_f z)/2 = prox_{gamma f}(z),
    # which shrinks coordinate i by 1/(1 + gamma*w_i)
    p = CompositeProblem(f=DiagQuadratic(np.array([1.0, 2.0])), g=GFunction.ZERO)
    assert np.array_equal(_one_step(p, SplitParams(0.5, 1.0), _unit(2, 0)), [0.5, 0.0])
    # weight 4, gamma 0.5, input 3 -> 3 / (1 + 2) = 1
    p = CompositeProblem(f=DiagQuadratic(np.array([4.0])), g=GFunction.ZERO)
    assert _one_step(p, SplitParams(0.5, 0.5), Vec([3.0]))[0] == pytest.approx(1.0, abs=1e-15)


def _manual_step(problem, params, z):
    """``(1 - alpha) z + alpha R_g(R_f(z))`` written out: ``R_f`` scales
    coordinate i by ``(1 - gamma*w_i) / (1 + gamma*w_i)``, ``R_g`` is the
    identity or a negation."""
    gw = params.gamma * problem.f.weights
    reflected = (1.0 - gw) / (1.0 + gw) * z
    if problem.g is GFunction.ZERO_INDICATOR:
        reflected = -reflected
    return (1 - params.alpha) * z + params.alpha * reflected


def test_dr_step_matches_manual_composition(primal):
    rng = np.random.default_rng(21)
    params = SplitParams(0.7, 0.9)
    for g in (GFunction.ZERO, GFunction.ZERO_INDICATOR):
        problem = CompositeProblem(f=primal.f, g=g)
        for _ in range(50):
            z = rng.uniform(-5, 5, primal.dim)
            assert np.array_equal(_one_step(problem, params, Vec(z)), _manual_step(problem, params, z))


def test_run_dr_rejects_coupled_problem():
    p = default_dual_instance()
    with pytest.raises(ValueError, match="identity coupling"):
        run_dr(p, SplitParams(1.0, 1.0), Vec(np.zeros(p.dim)))


def test_run_dr_at_fixed_point_has_length_one(primal):
    trace = run_dr(primal, SplitParams(1.0, 1.0), Vec(np.zeros(primal.dim)))
    assert len(trace.iterates) == 1
    assert trace.converged
    assert trace.distances[0] == 0.0
    assert trace.step_ratios.size == 0


def test_run_dr_optimal_params_constant_ratio(primal):
    alpha, gamma, rate = optimal_params(SIGMA, BETA)
    z0 = _worst(primal.f, alpha, gamma)
    trace = run_dr(primal, SplitParams(alpha, gamma), z0, max_iter=40, tol=0.0)
    valid = trace.step_ratios[np.isfinite(trace.step_ratios)]
    assert valid.size >= 30
    assert np.max(np.abs(valid - rate)) <= 1e-12


@pytest.mark.parametrize("gamma", [0.05, 0.4, 2.0])
@pytest.mark.parametrize("index,lam", [(0, SIGMA), (7, BETA)])
def test_run_dr_single_band_ratio_is_step_multiplier(primal, gamma, index, lam):
    trace = run_dr(primal, SplitParams(1.0, gamma), _unit(8, index), max_iter=25, tol=0.0)
    expected = abs((1.0 - gamma * lam) / (1.0 + gamma * lam))
    valid = trace.step_ratios[np.isfinite(trace.step_ratios)]
    assert np.max(np.abs(valid - expected)) <= 1e-12


def test_run_dr_distances_nonincreasing_when_feasible(primal):
    rng = np.random.default_rng(22)
    for _ in range(30):
        gamma = GAMMA_STAR * 10.0 ** rng.uniform(-1.5, 1.5)
        alpha = rng.uniform(0.05, alpha_upper_bound(gamma, SIGMA, BETA) - 0.01)
        z0 = Vec(rng.uniform(-1, 1, 8))
        trace = run_dr(primal, SplitParams(alpha, gamma), z0, max_iter=30, tol=0.0)
        assert np.all(np.diff(trace.distances) <= 1e-12)


def test_run_dr_divergence_raises(primal):
    params = SplitParams(1.95, 2.0)  # far beyond the feasible relaxation limit
    with pytest.raises(DivergenceError) as excinfo:
        run_dr(primal, params, _unit(8, 7), max_iter=500, tol=0.0)
    assert excinfo.value.trace is not None
    assert excinfo.value.trace.distances[-1] > 10.0


def test_run_dr_stops_on_tolerance(primal):
    alpha, gamma, _ = optimal_params(SIGMA, BETA)
    z0 = _worst(primal.f, alpha, gamma)
    trace = run_dr(primal, SplitParams(alpha, gamma), z0, max_iter=500, tol=1e-8)
    assert trace.converged
    assert len(trace.iterates) < 60


@st.composite
def two_bands(draw):
    """sigma <= beta (condition number up to 1e8), dim 2..64 and a random
    band split."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    beta = sigma * 10.0 ** draw(st.floats(0.0, 8.0))
    dim = draw(st.integers(2, 64))
    idx_sigma = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))
    return sigma, beta, dim, idx_sigma


@st.composite
def dr_cases(draw):
    """A two-band instance from :func:`two_bands`, either nonsmooth term, a
    step size around 1/sqrt(sigma*beta), a relaxation below
    alpha_upper_bound and a start."""
    sigma, beta, dim, idx_sigma = draw(two_bands())
    g = draw(st.sampled_from([GFunction.ZERO, GFunction.ZERO_INDICATOR]))
    gamma = 10.0 ** draw(st.floats(-2.0, 2.0)) / math.sqrt(sigma * beta)
    alpha = draw(st.floats(0.01, 0.99)) * alpha_upper_bound(gamma, sigma, beta)
    f = make_primal_instance(sigma, beta, dim, idx_sigma).f
    z0 = Vec(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, dim))
    return CompositeProblem(f=f, g=g), SplitParams(alpha, gamma), z0


def _dense_run(problem, params, q, z0, steps):
    """One run of the battery's dense reference in the basis ``q``, from
    ``q @ z0``: its distances and its last iterate, rotated back."""
    alphas, gammas = np.array([params.alpha]), np.array([params.gamma])
    distances, last = acceptance._dense_dr(problem.f.weights, problem.g, q, alphas, gammas, (q @ z0)[None], steps)
    return distances[0], q.T @ last[0]


@settings(deadline=None, max_examples=60)
@given(dr_cases(), st.booleans(), st.integers(0, 2**32 - 1))
def test_run_dr_matches_the_dense_reference(case, rotated, seed):
    # the battery's dense reference, in the eigenbasis (Q = I) or a rotated
    # one, against the diagonal engine: distances and the last iterate. In a
    # rotated basis the dense solve with I + gamma H is accurate to eps times
    # that matrix's condition number, not to eps, so the tolerance scales by it
    problem, params, z0 = case
    w = problem.f.weights
    q = random_basis_map(problem.dim, seed) if rotated else np.eye(problem.dim)
    trace = run_dr(problem, params, z0, max_iter=30, tol=0.0)
    steps = trace.n_steps
    assert steps == 30 or trace.converged
    distances, last = _dense_run(problem, params, q, z0.coeffs, 30)
    condition = (1.0 + params.gamma * w.max()) / (1.0 + params.gamma * w.min()) if rotated else 1.0
    tol = 1e-12 * condition * np.linalg.norm(z0.coeffs)
    # a run that hit its fixed point exactly (a zero step, as at alpha = 1 and
    # gamma = 1/sigma = 1/beta) stopped there, and the dense run stays there
    engine = np.concatenate([trace.distances, np.full(30 - steps, trace.distances[-1])])
    assert np.max(np.abs(distances - engine)) <= tol
    assert np.max(np.abs(last - trace.iterates[-1].coeffs)) <= tol


@settings(deadline=None, max_examples=60)
@given(dr_cases())
def test_run_dr_iterates_bitwise_equal_prox_composition(case):
    problem, params, z0 = case
    trace = run_dr(problem, params, z0, max_iter=30, tol=0.0)
    assert trace.n_steps == 30 or trace.converged
    z = z0.coeffs
    for kept in trace.iterates:
        assert kept.coeffs.tobytes() == z.tobytes()
        z = _manual_step(problem, params, z)


def test_run_dr_rejects_start_of_wrong_dimension(primal):
    with pytest.raises(ValueError, match=re.escape("start rows have shape (1, 1), expected (1, 8)")):
        run_dr(primal, SplitParams(1.0, 1.0), Vec([1.0]))


def test_run_dr_basis_invariance(primal):
    # the dense reference run in a rotated frame reproduces the distance
    # sequence of the diagonal run
    params = SplitParams(0.8, 0.37)
    z0 = np.random.default_rng(23).uniform(-1, 1, 8)
    trace = run_dr(primal, params, Vec(z0), max_iter=40, tol=0.0)
    distances, _ = _dense_run(primal, params, random_basis_map(8, 5), z0, 40)
    assert np.max(np.abs(distances - trace.distances)) <= 1e-10


def test_run_dr_mixed_start_evolves_coordinatewise(primal):
    alpha, gamma = 0.9, 0.21
    z0 = Vec(basis_rows(8, [0, 7]).sum(axis=0))
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
        z0 = _worst(p.f, alpha, gamma)
        fits.append(fit_rate(run_dr(p, SplitParams(alpha, gamma), z0, max_iter=30, tol=0.0)))
    assert max(fits) - min(fits) <= 1e-12


def test_run_dr_bound_holds_from_random_starts(primal):
    rng = np.random.default_rng(24)
    for _ in range(60):
        gamma = GAMMA_STAR * 10.0 ** rng.uniform(-1.3, 1.3)
        alpha = rng.uniform(0.05, alpha_upper_bound(gamma, SIGMA, BETA) - 0.01)
        bound = theoretical_rate(alpha, gamma, SIGMA, BETA)
        z0 = Vec(rng.uniform(-1, 1, 8))
        trace = run_dr(primal, SplitParams(alpha, gamma), z0, max_iter=25, tol=0.0)
        assert fit_rate(trace) <= bound + 1e-9


# -- dual DR ------------------------------------------------------------------


def _dual_dr(problem, alphas, gammas, starts, max_iter=200, tol=1e-13):
    """``run_rows`` in "dual-dr" mode over the rows of ``starts``."""
    starts = np.asarray(starts, dtype=float)
    return run_rows(problem, "dual-dr", alphas, gammas, lambda rows: starts[rows], max_iter=max_iter, tol=tol)


def test_run_dual_dr_requires_coupled_indicator(primal):
    with pytest.raises(ValueError, match="indicator of the origin and an explicit diagonal coupling"):
        _dual_dr(primal, [1.0], [1.0], np.zeros((1, 8)))


def test_run_dual_dr_zero_start():
    runs = _dual_dr(default_dual_instance(), [1.0], [1.0], np.zeros((1, 8)))
    assert runs.steps[0] == 0 and not runs.diverged[0]
    assert runs.distances.tolist() == [[0.0]]


def test_run_dual_dr_isotropic_dual_ratio():
    # weights [1,4] with gains [1,2] aligned make the dual isotropic with
    # curvature 1: any unit start contracts by |(1-gamma)/(1+gamma)|
    p = make_dual_instance(1.0, 4.0, 1.0, 2.0, 2, {0}, pairing="aligned")
    assert np.array_equal(dual_function(p).weights, [1.0, 1.0])
    gammas = np.repeat([0.25, 0.5, 2.0], 2)
    runs = _dual_dr(p, np.ones(6), gammas, np.tile(np.eye(2), (3, 1)), max_iter=25, tol=0.0)
    for gamma, ratios in zip(gammas, runs.step_ratios):
        expected = abs((1.0 - gamma) / (1.0 + gamma))
        valid = ratios[np.isfinite(ratios)]
        assert valid.size and np.max(np.abs(valid - expected)) <= 1e-12


def test_run_dual_dr_attains_dual_optimal_rate():
    # crossed gains put the extreme dual curvatures on the spectrum, so the
    # dual iteration at its optimal parameters contracts at
    # (sqrt(kappa)-1)/(sqrt(kappa)+1) with kappa = zeta^2*beta/(theta^2*sigma)
    sigma, beta, theta, zeta = 1.0, 4.0, 1.0, 2.0
    kappa = zeta**2 * beta / (theta**2 * sigma)
    expected = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    gamma = math.sqrt(beta * sigma) / (zeta * theta)
    p = make_dual_instance(sigma, beta, theta, zeta, 2, {0}, pairing="crossed")
    runs = _dual_dr(p, np.ones(2), np.full(2, gamma), np.eye(2), max_iter=25, tol=0.0)
    assert np.max(np.abs(fit_rates(runs.step_ratios) - expected)) <= 1e-10


# -- run_admm -----------------------------------------------------------------


def test_run_admm_fixed_at_optimum():
    p = default_dual_instance()
    trace = run_admm(p, rho=1.0, alpha=1.0)
    assert len(trace.iterates) == 1 and trace.converged
    assert np.array_equal(trace.final_x.coeffs, np.zeros(8))


@pytest.mark.parametrize("dim", [8, 2 * splitting.NORM_CHUNK + 3])
def test_run_admm_first_step_that_moves_only_x_is_a_step(monkeypatch, dim):
    # gains so small that relax * nu * x is lost in the rounding of u: the
    # first step leaves u where it was but moves x off the origin, so the
    # start is no fixed point; the run takes one step and stops by tol. A
    # zero start in the same batch is a fixed point. The long rows run in
    # three column blocks
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    problem = make_dual_instance(SIGMA, BETA, 1e-9, 2e-9, dim, range(dim // 2), pairing="crossed")
    start = np.random.default_rng(29).uniform(-1.0, 1.0, dim)
    trace = run_admm(problem, rho=1.0, alpha=0.5, u0=Vec(start), max_iter=50, tol=1e-13)
    assert trace.n_steps == 1 and trace.converged
    assert trace.distances[1] == trace.distances[0]
    assert trace.iterates[1].coeffs.tobytes() == start.tobytes()
    nu, lam = problem.a.weights, problem.f.weights
    x = ((0.0 - start) * nu) / (lam + nu * nu)
    assert np.all(x != 0.0) and trace.final_x.coeffs.tobytes() == x.tobytes()
    starts = np.stack([start, np.zeros(dim)])
    runs = run_rows(problem, "admm", [0.5, 0.5], [1.0, 1.0], lambda rows: starts[rows], max_iter=50, tol=1e-13)
    assert runs.steps.tolist() == [1, 0] and not runs.diverged.any()


def test_run_admm_validation(primal):
    p = default_dual_instance()
    with pytest.raises(ValueError):
        run_admm(primal, rho=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        run_admm(p, rho=0.0, alpha=1.0)
    with pytest.raises(ValueError):
        run_admm(p, rho=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        run_admm(p, rho=1.0, alpha=1.0, u0=Vec(np.zeros(3)))


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
@pytest.mark.parametrize("rho_scale", [0.4, 1.0, 2.5])
def test_run_admm_matches_dual_dr_rate(alpha, rho_scale):
    p = default_dual_instance("crossed")
    d = dual_function(p)
    _, gamma_opt, _ = optimal_params(d.sigma, d.beta)
    rho = rho_scale * gamma_opt
    mu0 = _worst(d, alpha, rho)
    dr = run_dr(CompositeProblem(d, GFunction.ZERO), SplitParams(alpha, rho), mu0, max_iter=40, tol=0.0)
    admm = run_admm(p, rho=rho, alpha=alpha, u0=Vec(mu0.coeffs * (1.0 / rho)), max_iter=40, tol=0.0)
    assert abs(fit_rate(dr) - fit_rate(admm)) <= 1e-8


def test_run_admm_classic_half_relaxation_contracts():
    # alpha = 1/2 is the unrelaxed method; per-coordinate dual factor is
    # 1/(1 + rho * nu^2 / lambda)
    p = default_dual_instance("aligned")
    rho = 0.7
    d = dual_function(p)
    factors = 1.0 / (1.0 + rho * d.weights)
    mu0 = Vec(np.ones(8))
    trace = run_admm(p, rho=rho, alpha=0.5, u0=Vec(mu0.coeffs * (1.0 / rho)), max_iter=30, tol=0.0)
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
    stationarity = p.f.weights * xbar.coeffs + p.a.weights * mubar.coeffs
    assert np.linalg.norm(stationarity) <= 1e-8
    assert np.linalg.norm(p.a.weights * xbar.coeffs) <= 1e-8


def test_run_admm_divergence():
    p = default_dual_instance("crossed")
    d = dual_function(p)
    _, gamma_opt, _ = optimal_params(d.sigma, d.beta)
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
    trace = run_dr(primal, SplitParams(1.0, 1.0), Vec(np.zeros(8)))
    with pytest.raises(ValueError, match="too short"):
        fit_rate(trace)
    with pytest.raises(ValueError, match="too short"):
        fit_rate(_trace_from_distances([1.0, 0.5, 0.25, 0.125]))


def _reference_fit(ratios):
    """The single-trace fit written out as a loop over one row."""
    valid = ratios[np.isfinite(ratios)]
    if valid.size < 5:
        return math.nan
    tail = valid[-math.ceil(valid.size / 2) :]
    if np.any(tail == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(tail))))


def _ratio_rows(rows, pad=0):
    """The rows as one ratio array, NaN past the end of each and in ``pad``
    more columns."""
    ratios = np.full((len(rows), max((len(r) for r in rows), default=0) + pad), np.nan)
    for i, row in enumerate(rows):
        ratios[i, : len(row)] = row
    return ratios


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(0, 40) | st.integers(256, 300), st.floats(0.0, 0.5), st.floats(0.0, 0.2)),
        max_size=24,
    ),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
# no rows, rows of no ratios, and a batch with no row of 5 valid ratios
@example(shapes=[], pad=7, seed=0)
@example(shapes=[(0, 0.0, 0.0)] * 3, pad=0, seed=0)
@example(shapes=[(4, 0.0, 0.1), (3, 0.0, 0.0), (0, 0.0, 0.0)], pad=2, seed=0)
def test_fit_rates_rows_equal_the_single_row_fit_bitwise(shapes, pad, seed):
    # rows of different lengths with holes (NaN, inf or -inf ratios) and
    # zero ratios anywhere in them, so that rows with n and n + 1 valid
    # ratios share a tail length and a fit group; rows of up to 300 ratios
    # have tails past 128, where numpy's pairwise sum splits
    rng = np.random.default_rng(seed)
    rows = []
    for size, hole_share, zero_share in shapes:
        row = rng.uniform(1e-3, 1.5, size)
        row[rng.random(size) < zero_share] = 0.0
        holes = rng.random(size) < hole_share
        row[holes] = rng.choice([math.nan, math.inf, -math.inf], np.count_nonzero(holes))
        rows.append(row)
    fits = fit_rates(_ratio_rows(rows, pad))
    assert fits.shape == (len(rows),)
    for i, row in enumerate(rows):
        assert np.array_equal(fits[i], _reference_fit(row), equal_nan=True)


def test_a_zero_ratio_decides_a_fit_only_inside_its_tail():
    # a zero before the tail, one in it, one of each (in a short row and in
    # a long one), and many before a long tail
    rows = [
        [0.0, 0.5, 0.6, 0.7, 0.4, 0.5],
        [0.5, 0.6, 0.7, 0.4, 0.0, 0.5],
        [0.0, 0.6, -math.inf, 0.7, 0.4, 0.5, 0.0],
        [0.0] + [0.3] * 199 + [0.0] + [0.9] * 200,
        [0.0] * 150 + [0.9] * 151,
    ]
    fits = fit_rates(_ratio_rows(rows))
    assert fits.tolist() == [_reference_fit(np.array(row)) for row in rows]
    assert fits[[0, 4]].min() > 0.0 and fits[1:4].tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("shape", [(), (6,), (2, 3, 6)])
def test_fit_rates_rejects_an_array_that_is_not_rows_of_ratios(shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        fit_rates(np.full(shape, 0.5))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 64), st.floats(-200.0, 200.0), st.integers(0, 2**32 - 1))
def test_row_norms_equal_the_dot_product_norm_bitwise(dim, log_scale, seed):
    rows = np.random.default_rng(seed).uniform(-1.0, 1.0, (5, dim)) * 2.0**log_scale
    norms = splitting._norms(rows)
    for row, n in zip(rows, norms):
        assert n == math.sqrt(float(np.dot(row, row))) == float(np.linalg.norm(row))


def test_one_column_norms_equal_the_dot_product_norm_bitwise():
    # a one-element dot is one rounded product: the same bits at signed
    # zeros, subnormals, squares that underflow or overflow, infinities and NaN
    values = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-160, -1e-170, 1.5, -3.0, 1e154, 1e200, -1e300]
    z = np.array(values + [np.inf, -np.inf, np.nan, -np.nan])[:, None]
    with np.errstate(over="ignore"):
        expected = np.sqrt(np.vecdot(z, z))
        assert splitting._norms(z).tobytes() == expected.tobytes()


def _reference_long_norm(row, chunk):
    """The chunked norm written out as a loop over the chunks of one row."""
    full = row.size // chunk
    dots = np.array([np.dot(row[i : i + chunk], row[i : i + chunk]) for i in range(0, full * chunk, chunk)])
    tail = row[full * chunk :]
    return math.sqrt(float(dots.sum() + np.dot(tail, tail)))


@pytest.mark.parametrize("dim", [8193, 16384, 20000, 3 * 8192 + 5, 4 * 8192 + 3, 9 * 8192])
def test_long_row_norms_sum_fixed_chunks_in_order(dim):
    # rows past a COLUMN_BLOCK are recorded and dotted a block at a time;
    # the sum runs over every chunk of the row in order all the same
    rows = np.random.default_rng(dim).uniform(-1.0, 1.0, (3, dim))
    norms = splitting._norms(rows)
    for row, n in zip(rows, norms):
        assert n == _reference_long_norm(row, splitting.NORM_CHUNK)
    # the chunks are views, so a strided array is normed in place
    wide = np.zeros((3, 2 * dim))
    wide[:, ::2] = rows
    for row, n in zip(wide[:, ::2], splitting._norms(wide[:, ::2])):
        assert n == _reference_long_norm(row, splitting.NORM_CHUNK)
    # a record that scales each row, as ADMM's rho * u, is normed as the
    # scaled rows themselves
    scale = np.array([[0.3], [7.0], [1e-5]])
    for row, s, n in zip(rows, scale, splitting._norms(rows, lambda block: scale * block)):
        assert n == _reference_long_norm(s * row, splitting.NORM_CHUNK)


#: kinds of rows mixed into one batch: a feasible relaxation, one above
#: alpha_upper_bound (stopped by the 10x guard when it grows fast enough), and
#: a zero start (stopped at the first step as a fixed point)
ROW_KINDS = ("feasible", "above-bound", "zero-start")


@st.composite
def row_batches(draw):
    """A two-band instance (condition number up to 1e8, dim 2..64, random band
    split), an engine and its problem, and a batch of rows of mixed kinds."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    beta = sigma * 10.0 ** draw(st.floats(0.0, 8.0))
    dim = draw(st.integers(2, 64))
    idx_sigma = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))
    mode = draw(st.sampled_from(splitting.MODES))
    if mode == "primal-dr":
        g = draw(st.sampled_from([GFunction.ZERO, GFunction.ZERO_INDICATOR]))
        problem = CompositeProblem(f=make_primal_instance(sigma, beta, dim, idx_sigma).f, g=g)
        curvatures = problem.f
    else:
        theta = 10.0 ** draw(st.floats(-1.0, 1.0))
        zeta = theta * 10.0 ** draw(st.floats(0.01, 1.0))
        pairing = draw(st.sampled_from(["aligned", "crossed"]))
        problem = make_dual_instance(sigma, beta, theta, zeta, dim, idx_sigma, pairing)
        curvatures = dual_function(problem)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphas, gammas, starts = [], [], []
    for kind in draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=8)):
        gamma = 10.0 ** draw(st.floats(-2.0, 2.0)) / math.sqrt(curvatures.sigma * curvatures.beta)
        upper = alpha_upper_bound(gamma, curvatures.sigma, curvatures.beta)
        if kind == "above-bound":
            alpha = upper * draw(st.floats(1.05, 1.9))
        else:
            alpha = upper * draw(st.floats(0.01, 0.99))
        alphas.append(alpha)
        gammas.append(gamma)
        starts.append(np.zeros(dim) if kind == "zero-start" else rng.uniform(-1.0, 1.0, dim))
    max_iter = draw(st.integers(0, 80))
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-4, 1e-2, 0.3]))
    return problem, mode, np.array(alphas), np.array(gammas), np.array(starts), max_iter, tol


def _single_run(problem, mode, alpha, gamma, start, max_iter, tol):
    """The one-row engine run for a batch row: (trace, diverged)."""
    try:
        if mode == "admm":
            u0 = Vec(start * (1.0 / gamma))
            trace = run_admm(problem, rho=gamma, alpha=alpha, u0=u0, max_iter=max_iter, tol=tol)
        else:
            if mode == "dual-dr":
                problem = CompositeProblem(dual_function(problem), GFunction.ZERO)
            trace = run_dr(problem, SplitParams(alpha, gamma), Vec(start), max_iter=max_iter, tol=tol)
    except DivergenceError as exc:
        return exc.trace, True
    return trace, False


def check_one_row_is_its_batch_row(mode, dim, steps=30):
    """Run ``mode`` on one row of ``dim`` elements, on a two-band instance
    from a seeded random start, through :func:`run_dr` or :func:`run_admm`
    and through :func:`run_rows`, and assert that both take the same steps
    with bit-equal distances; returns the steps. The ADMM run starts from
    ``u0 = start * (1 / rho)``, as :func:`_single_run` does."""
    half = range(dim // 2)
    if mode == "primal-dr":
        problem = make_primal_instance(SIGMA, BETA, dim, half)
        curvatures = problem.f
    else:
        problem = make_dual_instance(SIGMA, BETA, 1.0, 3.0, dim, half, pairing="crossed")
        curvatures = dual_function(problem)
    alpha, gamma, _ = optimal_params(curvatures.sigma, curvatures.beta)
    start = np.random.default_rng(dim).uniform(-1.0, 1.0, dim)
    trace, diverged = _single_run(problem, mode, alpha, gamma, start, steps, 0.0)
    runs = run_rows(problem, mode, [alpha], [gamma], lambda rows: start[None], max_iter=steps, tol=0.0)
    assert (runs.steps[0], runs.diverged[0]) == (trace.n_steps, diverged)
    assert runs.distances[0].tobytes() == trace.distances.tobytes()
    return trace.n_steps


@pytest.mark.parametrize("mode", splitting.MODES)
def test_a_one_row_run_is_its_batch_row(monkeypatch, mode):
    # rows of three column blocks, walked by two processes
    monkeypatch.setattr(splitting, "WORKERS", 2)
    monkeypatch.setattr(splitting, "RUN_ELEMENTS", splitting.COLUMN_BLOCK)
    assert check_one_row_is_its_batch_row(mode, 2 * splitting.COLUMN_BLOCK + 3) == 30


@settings(deadline=None, max_examples=80)
@given(row_batches())
def test_batch_rows_equal_their_single_runs_bitwise(case):
    problem, mode, alphas, gammas, starts, max_iter, tol = case
    runs = run_rows(problem, mode, alphas, gammas, lambda rows: starts[rows], max_iter=max_iter, tol=tol)
    fits = fit_rates(runs.step_ratios)
    assert runs.distances.shape[0] == len(alphas)
    for i in range(len(alphas)):
        trace, diverged = _single_run(problem, mode, alphas[i], gammas[i], starts[i], max_iter, tol)
        steps = trace.n_steps
        assert runs.steps[i] == steps
        assert runs.diverged[i] == diverged
        assert runs.distances[i, : steps + 1].tobytes() == trace.distances.tobytes()
        assert np.all(np.isnan(runs.distances[i, steps + 1 :]))
        try:
            single_fit = fit_rate(trace)
        except ValueError:
            single_fit = math.nan
        assert np.array_equal(fits[i], single_fit, equal_nan=True)


#: entries of unit starts: signed zeros, subnormals, values whose square
#: overflows and ordinary values
UNIT_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e200, -1e300, 1.0, -0.75, 3.0)


@st.composite
def unit_batches(draw):
    """A two-band instance and an engine, as :func:`row_batches` draws them,
    and unit starts as ``(at, values)``, one coordinate and one value a row,
    some of them zero, at relaxations inside and past alpha_upper_bound.
    ``long`` batches have rows past a ``COLUMN_BLOCK`` of 32 columns (see
    :func:`_long_rows`)."""
    long = draw(st.booleans())
    dim = draw(st.integers(33, 100) if long else st.integers(2, 70))
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    beta = sigma * 10.0 ** draw(st.floats(0.0, 8.0))
    idx_sigma = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))
    mode = draw(st.sampled_from(splitting.MODES))
    if mode == "primal-dr":
        g = draw(st.sampled_from([GFunction.ZERO, GFunction.ZERO_INDICATOR]))
        problem = CompositeProblem(f=make_primal_instance(sigma, beta, dim, idx_sigma).f, g=g)
        curvatures = problem.f
    else:
        problem = make_dual_instance(sigma, beta, 1.0, 3.0, dim, idx_sigma, draw(st.sampled_from(["aligned", "crossed"])))
        curvatures = dual_function(problem)
    rows = draw(st.integers(1, 6))
    at = np.array([draw(st.integers(0, dim - 1)) for _ in range(rows)])
    values = np.array([draw(st.sampled_from(UNIT_VALUES) | st.floats(-10.0, 10.0)) for _ in range(rows)])
    alphas, gammas = np.empty(rows), np.empty(rows)
    for r in range(rows):
        gammas[r] = 10.0 ** draw(st.floats(-2.0, 2.0)) / math.sqrt(curvatures.sigma * curvatures.beta)
        upper = alpha_upper_bound(gammas[r], curvatures.sigma, curvatures.beta)
        alphas[r] = upper * draw(st.sampled_from([st.floats(0.01, 0.99), st.floats(1.05, 1.9)]).flatmap(lambda s: s))
    return long, problem, mode, alphas, gammas, (at, values), draw(st.integers(0, 60)), draw(st.sampled_from([0.0, 1e-9, 1e-3]))


def _long_rows(long):
    """With ``long``, rows of more than 32 elements are walked in column
    blocks of 32, in chunks of 8, by two processes; else nothing changes."""
    if not long:
        return contextlib.nullcontext()
    return mock.patch.multiple(splitting, NORM_CHUNK=8, COLUMN_BLOCK=32, RUN_ELEMENTS=32, WORKERS=2)


def _starts(starts):
    """``starts`` as :func:`run_rows` takes them: an ``(at, values)`` pair as
    it is, an array as the callable that slices its rows."""
    return (lambda rows: starts[rows]) if isinstance(starts, np.ndarray) else starts


def _batch(problem, mode, alphas, gammas, starts, max_iter, tol):
    """:func:`run_rows` from ``starts`` (see :func:`_starts`), or the message
    of the ValueError it raises."""
    try:
        return run_rows(problem, mode, alphas, gammas, _starts(starts), max_iter=max_iter, tol=tol)
    except ValueError as exc:
        return str(exc)


def _same_row(runs, i, steps, diverged, distances):
    """Row ``i`` of ``runs`` took ``steps`` steps to ``distances`` (NaN after)."""
    assert (runs.steps[i], runs.diverged[i]) == (steps, diverged)
    assert runs.distances[i, : steps + 1].tobytes() == distances.tobytes()
    assert np.all(np.isnan(runs.distances[i, steps + 1 :]))


def _unit_rows(dim, at, values):
    """Unit starts as the full rows that ``(at, values)`` stands for: not
    ``basis_rows(dim, at) * values[:, None]``, whose other entries a
    negative value would make -0.0 and a non-finite one NaN."""
    rows = np.zeros((len(at), dim))
    rows[np.arange(len(at)), at] = values
    return rows


@settings(deadline=None, max_examples=80)
@given(unit_batches())
def test_unit_start_rows_are_bit_for_bit_their_full_width_runs(case):
    # the same draws three ways: as coordinates, which run as one-column
    # rows, as full rows, which run at full width, and as one-row runs
    long, problem, mode, alphas, gammas, (at, values), max_iter, tol = case
    starts = _unit_rows(problem.dim, at, values)
    # starts whose squares overflow make inf and NaN distances, as the command line lets them
    with _long_rows(long), np.errstate(over="ignore", invalid="ignore"):
        runs = _batch(problem, mode, alphas, gammas, (at, values), max_iter, tol)
        full = _batch(problem, mode, alphas, gammas, starts, max_iter, tol)
        if isinstance(runs, str):
            # a recorded start that is not finite, named by its row
            assert runs == full and "row" in runs
            return
        for i in range(len(alphas)):
            _same_row(full, i, runs.steps[i], runs.diverged[i], runs.distances[i, : runs.steps[i] + 1])
            assert full.converged[i] == runs.converged[i]
            trace, diverged = _single_run(problem, mode, alphas[i], gammas[i], starts[i], max_iter, tol)
            _same_row(runs, i, trace.n_steps, diverged, trace.distances)
            assert runs.converged[i] == trace.converged


def _engine_shapes(monkeypatch):
    """The state shapes of the engines that runs build, as each block's
    start is checked, before :func:`splitting._iterate` runs the engine or
    a start that is not finite raises."""
    shapes = []
    start_norms = splitting._start_norms

    def spy(engine, lo):
        shapes.append(engine.state.shape)
        return start_norms(engine, lo)

    monkeypatch.setattr(splitting, "_start_norms", spy)
    return shapes


@pytest.mark.parametrize("mode", splitting.MODES)
def test_only_rows_of_at_most_one_nonzero_entry_run_as_one_column(monkeypatch, mode):
    # unit starts given as coordinates step as (rows, 1); array starts step
    # whole rows, even rows of one nonzero entry each
    shapes = _engine_shapes(monkeypatch)
    problem = default_primal_instance() if mode == "primal-dr" else default_dual_instance()
    run = lambda starts: _batch(problem, mode, [0.9] * 3, [0.3] * 3, starts, 20, 1e-13)
    at, values = np.array([6, 1, 0]), np.array([1.0, -2.0, 0.0])  # and a start of zero
    coordinates, rows = run((at, values)), run(_unit_rows(8, at, values))
    assert coordinates.distances.tobytes() == rows.distances.tobytes()
    assert shapes == [(3, 1), (3, 8)]
    # one-row runs from a unit Vec step whole rows too
    trace = run_dr(default_primal_instance(), SplitParams(0.9, 0.3), _unit(8, 1), max_iter=5)
    assert shapes[-1] == (1, 8) and trace.iterates[3].coeffs.shape == (8,)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("mode", splitting.MODES)
def test_a_start_whose_one_entry_is_not_finite_is_reported_by_its_row(monkeypatch, mode, value):
    # as coordinates and as full rows, the same message names the same row
    shapes = _engine_shapes(monkeypatch)
    problem = default_primal_instance() if mode == "primal-dr" else default_dual_instance()
    at, values = np.array([2, 5, 0, 0]), np.array([1.0, value, 0.0, 0.5])
    messages = []
    for starts in ((at, values), _unit_rows(8, at, values)):
        with pytest.raises(ValueError, match="row 1 is not") as raised:
            run_rows(problem, mode, [0.9] * 4, [0.3] * 4, _starts(starts))
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert shapes == [(4, 1), (4, 8)]


@pytest.mark.parametrize(
    "at, values",
    [
        ([0, 8], [1.0, 1.0]),
        ([-1, 0], [1.0, 1.0]),
        ([0.0, 1.0], [1.0, 1.0]),
        ([True, False], [1.0, 1.0]),
        ([0, 1, 2], [1.0, 1.0]),
        ([[0, 1]], [1.0, 1.0]),
        ([0, 1], [1.0]),
    ],
    ids=["past-dim", "negative", "float", "bool", "long", "2-d", "short-values"],
)
def test_run_rows_rejects_bad_unit_starts_before_any_block(monkeypatch, primal, at, values):
    def built(*args, **kwargs):
        raise AssertionError("a block ran")

    monkeypatch.setattr(splitting, "_run_blocks", built)
    with pytest.raises(ValueError, match=r"one integer coordinate in \[0, 8\) and one value per row"):
        run_rows(primal, "primal-dr", [1.0, 0.5], [0.3, 0.3], (at, values))


@pytest.mark.parametrize("mode", splitting.MODES)
def test_short_rows_walked_in_column_blocks_step_as_whole_rows(mode):
    # rows of 40 elements in column blocks of 16, past which no operand of a
    # step is copied to the state's shape, walked by two processes: the
    # distances are those of the same rows stepped whole, chunk by chunk
    if mode == "primal-dr":
        problem = make_primal_instance(SIGMA, BETA, 40, range(20))
    else:
        problem = make_dual_instance(SIGMA, BETA, 1.0, 3.0, 40, range(20), pairing="crossed")
    starts = np.random.default_rng(40).uniform(-1.0, 1.0, (3, 40))
    run = lambda: run_rows(problem, mode, [0.6, 0.9, 1.2], [0.1, 0.3, 0.5], _starts(starts), max_iter=30, tol=0.0)
    with mock.patch.multiple(splitting, NORM_CHUNK=8):
        whole = run()
    with mock.patch.multiple(splitting, NORM_CHUNK=8, COLUMN_BLOCK=16, RUN_ELEMENTS=16, WORKERS=2):
        blocked = run()
    assert blocked.steps.tolist() == [30] * 3
    assert blocked.distances.tobytes() == whole.distances.tobytes()


def test_batch_rows_stop_for_each_reason_in_one_batch(primal):
    # one row per stop reason: tol, the 10x guard, a fixed-point start, and
    # the iteration budget
    gamma = GAMMA_STAR
    upper = alpha_upper_bound(gamma, SIGMA, BETA)
    alphas = np.array([1.0, 1.9 * upper, 0.5, 0.05])
    starts = np.array([np.ones(8), np.ones(8), np.zeros(8), np.ones(8)])
    runs = run_rows(primal, "primal-dr", alphas, np.full(4, gamma), lambda rows: starts[rows], max_iter=40, tol=1e-3)
    assert list(runs.diverged) == [False, True, False, False]
    assert runs.steps[2] == 0 and runs.steps[3] == 40
    assert 0 < runs.steps[0] < 40 and 0 < runs.steps[1] < 40
    for i in range(4):
        trace, diverged = _single_run(primal, "primal-dr", alphas[i], gamma, starts[i], 40, 1e-3)
        assert (trace.n_steps, diverged) == (runs.steps[i], runs.diverged[i])
        assert runs.distances[i, : trace.n_steps + 1].tobytes() == trace.distances.tobytes()


def _mostly_stopped(problem, curvatures):
    """Four rows of which all but one stop within 3 steps, over a budget of
    40 steps at tol 0: a zero start stops at step 0, two rows far above
    alpha_upper_bound trip the guard at steps 1 and 2, and a feasible row
    runs the budget. Returns (alphas, gammas, starts)."""
    gamma = 30.0 / math.sqrt(curvatures.sigma * curvatures.beta)
    upper = alpha_upper_bound(gamma, curvatures.sigma, curvatures.beta)
    starts = np.random.default_rng(3).uniform(-1.0, 1.0, (4, problem.dim))
    starts[0] = 0.0
    return np.array([0.5, 8.0, 4.0, 0.9]) * upper, np.full(4, gamma), starts


@pytest.mark.parametrize("mode", splitting.MODES)
def test_batch_rows_stopping_at_many_steps_equal_their_single_runs(mode):
    # 48 rows that stop by tol, by the guard, at a zero start, or at the
    # budget, at many distinct steps, and a batch in which all rows but one
    # stop within 3 steps: stopped rows are stepped on as NaN rows until the
    # run ends, and no live row may notice
    problem = default_primal_instance() if mode == "primal-dr" else default_dual_instance("crossed")
    curvatures = problem.f if mode == "primal-dr" else dual_function(problem)
    rng = np.random.default_rng(29)
    n = 48
    gammas = 10.0 ** rng.uniform(-1.5, 1.5, n) / math.sqrt(curvatures.sigma * curvatures.beta)
    upper = alpha_upper_bound(gammas, curvatures.sigma, curvatures.beta)
    kinds = rng.choice(3, n, p=[0.7, 0.2, 0.1])
    alphas = upper * np.where(kinds == 1, rng.uniform(1.05, 1.9, n), rng.uniform(0.05, 0.99, n))
    starts = rng.uniform(-1.0, 1.0, (n, problem.dim))
    starts[kinds == 2] = 0.0
    batches = [(alphas, gammas, starts, 60, 1e-6), (*_mostly_stopped(problem, curvatures), 40, 0.0)]
    many, mostly = [
        run_rows(problem, mode, a, g, lambda rows, s=s: s[rows], max_iter=m, tol=t) for a, g, s, m, t in batches
    ]
    assert len(set(many.steps.tolist())) >= 15
    assert many.diverged.any() and (many.steps == 0).any() and (many.steps == 60).any()
    assert mostly.steps.tolist() == [0, 1, 2, 40]
    for runs, (alphas, gammas, starts, max_iter, tol) in zip((many, mostly), batches):
        for i in range(len(alphas)):
            trace, diverged = _single_run(problem, mode, alphas[i], gammas[i], starts[i], max_iter, tol)
            assert (trace.n_steps, diverged) == (runs.steps[i], runs.diverged[i])
            assert runs.distances[i, : trace.n_steps + 1].tobytes() == trace.distances.tobytes()
            assert np.all(np.isnan(runs.distances[i, trace.n_steps + 1 :]))


@pytest.mark.parametrize("mode", splitting.MODES)
@pytest.mark.parametrize("dim", [8, 2 * splitting.NORM_CHUNK + 3])
def test_a_batch_keeps_its_shape_while_its_rows_stop(monkeypatch, mode, dim):
    # all rows but one stop within 3 steps; every step, and every pass over
    # long rows, still reads the whole batch, with the stopped rows as NaN
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    half = range(dim // 2)
    if mode == "primal-dr":
        problem = make_primal_instance(SIGMA, BETA, dim, half)
        curvatures = problem.f
    else:
        problem = make_dual_instance(SIGMA, BETA, 1.0, 3.0, dim, half, pairing="crossed")
        curvatures = dual_function(problem)
    alphas, gammas, starts = _mostly_stopped(problem, curvatures)
    calls = []
    iterate = splitting._iterate

    def watched(engine, start, max_iter, tol):
        def step(state, steps=1):
            calls.append((state.shape, steps, np.count_nonzero(np.isnan(state).all(axis=1))))
            return engine.step(state, steps)

        return iterate(engine._replace(step=step), start, max_iter, tol)

    monkeypatch.setattr(splitting, "_iterate", watched)
    runs = run_rows(problem, mode, alphas, gammas, lambda rows: starts[rows], max_iter=40, tol=0.0)
    assert runs.steps.tolist() == [0, 1, 2, 40]
    assert {shape for shape, _, _ in calls} == {(4, dim)}
    # passes of several steps over long rows, one step at a time over short
    assert max(steps for _, steps, _ in calls) == (splitting.PASS_STEPS if dim > splitting.COLUMN_BLOCK else 1)
    # the first step stops rows 0 and 1, the second row 2
    assert [nan_rows for nan_rows, _ in itertools.groupby(n for _, _, n in calls)] == [0, 2, 3]


@pytest.mark.parametrize("mode", splitting.MODES)
def test_stopped_rows_stepped_on_raise_no_float_warnings(mode):
    # one row trips the guard at once; the other three keep the batch
    # running for 3000 steps, so the stopped row is stepped on all that
    # time. Left to grow, it would overflow, and pytest turns the
    # overflow warning into an error.
    problem = default_primal_instance() if mode == "primal-dr" else default_dual_instance("crossed")
    curvatures = problem.f if mode == "primal-dr" else dual_function(problem)
    gamma = 30.0 / math.sqrt(curvatures.sigma * curvatures.beta)
    upper = alpha_upper_bound(gamma, curvatures.sigma, curvatures.beta)
    alphas = np.array([4.0 * upper, 0.999 * upper, 0.998 * upper, 0.997 * upper])
    starts = np.ones((4, problem.dim))
    runs = run_rows(problem, mode, alphas, np.full(4, gamma), lambda rows: starts[rows], max_iter=3000, tol=0.0)
    assert list(runs.diverged) == [True, False, False, False]
    assert list(runs.steps[1:]) == [3000] * 3
    assert np.all(np.isnan(runs.distances[0, runs.steps[0] + 1 :]))


# -- replayed iterates ----------------------------------------------------------


def _norm(v):
    return math.sqrt(float(np.dot(v, v)))


def _reference_dr(weights, negate, alpha, gamma, z, max_iter, tol, norm=_norm):
    """One relaxed DR run written out as a loop that keeps every iterate,
    with the step's expressions before iterates were replayed and before
    steps ran in column blocks, normed by ``norm``: (iterates, diverged)."""
    gw = gamma * weights
    refl = (1.0 - gw) / (1.0 + gw)
    if negate:
        refl = -refl
    iterates, first = [z], norm(z)
    for k in range(max_iter):
        z_next = z * (1.0 - alpha) + refl * z * alpha
        if k == 0 and np.array_equal(z_next, z):
            break
        iterates.append(z_next)
        if first > 0.0 and norm(z_next) > 10.0 * first:
            return iterates, True
        if norm(z_next - z) <= tol:
            break
        z = z_next
    return iterates, False


def _reference_admm(lam, nu, alpha, rho, u, max_iter, tol, norm=_norm):
    """One scaled ADMM run written out the same way, from ``x = w = 0``, with
    the passes over ``w`` that the engine drops as identities: (iterates,
    diverged, final x)."""
    relax, scale, denom = 2.0 * alpha, rho * nu, lam + rho * nu**2
    x, w = np.zeros(u.shape), np.zeros(u.shape)
    iterates = [rho * u]
    first = norm(iterates[0])
    for k in range(max_iter):
        x_new = scale * (w - u) / denom
        v = relax * (nu * x_new) + (1.0 - relax) * w
        w_new = np.zeros(w.shape)
        u_new = u + v - w_new
        if k == 0 and all(map(np.array_equal, (x_new, w_new, u_new), (x, w, u))):
            return iterates, False, x_new
        x, w, u_prev, u = x_new, w_new, u, u_new
        iterates.append(rho * u)
        if first > 0.0 and norm(iterates[-1]) > 10.0 * first:
            return iterates, True, x
        if rho * norm(u - u_prev) <= tol:
            break
    return iterates, False, x


def _check_replay(problem, mode, alpha, gamma, start, max_iter, tol):
    """Run one engine, read its replayed iterates (and ADMM's ``final_x``) and
    compare them bit for bit with the reference loop; returns (steps,
    diverged)."""
    if mode == "admm":
        u0 = start * (1.0 / gamma)
        reference = _reference_admm(problem.f.weights, problem.a.weights, alpha, gamma, u0, max_iter, tol)
        run = lambda: run_admm(problem, gamma, alpha, u0=Vec(u0), max_iter=max_iter, tol=tol)
    else:
        if mode == "dual-dr":
            problem = CompositeProblem(dual_function(problem), GFunction.ZERO)
        negate = problem.g is GFunction.ZERO_INDICATOR
        reference = _reference_dr(problem.f.weights, negate, alpha, gamma, start, max_iter, tol) + (None,)
        run = lambda: run_dr(problem, SplitParams(alpha, gamma), Vec(start), max_iter=max_iter, tol=tol)
    try:
        trace, diverged = run(), False
    except DivergenceError as exc:
        trace, diverged = exc.trace, True
    iterates, ref_diverged, ref_x = reference
    assert diverged == ref_diverged
    assert len(trace.iterates) == trace.n_steps + 1 == len(iterates)
    assert [v.coeffs.tobytes() for v in trace.iterates] == [z.tobytes() for z in iterates]
    assert trace.distances.tobytes() == np.array([_norm(z) for z in iterates]).tobytes()
    if mode == "admm":
        assert trace.final_x.coeffs.tobytes() == ref_x.tobytes()
    return trace.n_steps, diverged


def _chunked_norm(v):
    return float(splitting._norms(v[None])[0])


#: the default pass length and pass-length rule (see splitting._iterate)
PASS_STEPS, FORESEEN = splitting.PASS_STEPS, splitting._foreseen


def _passes(monkeypatch, steps=None):
    """Walk long rows in passes of ``steps`` steps after the first, cut by
    the budget alone, so that rows stop at every offset within a pass; with
    None, in the default passes, which end at the stops the rows foresee."""
    monkeypatch.setattr(splitting, "PASS_STEPS", steps or PASS_STEPS)
    monkeypatch.setattr(splitting, "_foreseen", FORESEEN if steps is None else lambda *args: math.inf)


@pytest.mark.parametrize("mode", splitting.MODES)
@pytest.mark.parametrize("extra", [-1, 0, 1, splitting.NORM_CHUNK + 3, 2 * splitting.NORM_CHUNK + 5])
def test_column_blocks_equal_the_unblocked_steps_bitwise(monkeypatch, mode, extra):
    # one chunk per column block keeps the dims small: a row of NORM_CHUNK
    # + extra elements is one block (extra <= 0), or two, three or four
    # blocks, the last of width 1, 3 or 5. The rows stop by tol, by the
    # guard, at a zero start and at the budget, so stopped rows are stepped
    # on as NaN rows until the run ends. The blocks run on 1, 2
    # and 3 processes, in uneven runs (4 blocks on 3 processes run 1, 1 and
    # 2), in fixed passes of 1 to 4 steps, so that rows stop at every
    # offset within a pass, and in the default passes, and every worker
    # count and pass length gives the same bits.
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    dim = splitting.NORM_CHUNK + extra
    half = range(dim // 2)
    if mode == "primal-dr":
        problem = make_primal_instance(SIGMA, BETA, dim, half)
        curvatures = problem.f
    else:
        problem = make_dual_instance(SIGMA, BETA, 1.0, 3.0, dim, half, pairing="crossed")
        curvatures = dual_function(problem)
    rng = np.random.default_rng(dim)
    gammas = np.array([1.0, 1.0, 1.0, 0.5, 1.0]) / math.sqrt(curvatures.sigma * curvatures.beta)
    upper = alpha_upper_bound(gammas, curvatures.sigma, curvatures.beta)
    alphas = np.array([1.0, 1.9 * upper[1], 0.5 * upper[2], 0.6 * upper[3], 0.05 * upper[4]])
    starts = rng.uniform(-1.0, 1.0, (5, dim))
    starts[2] = 0.0
    max_iter, tol = 60, 1e-2
    references = []
    for i in range(5):
        if mode == "admm":
            u0 = starts[i] * (1.0 / gammas[i])
            iterates, diverged, ref_x = _reference_admm(
                problem.f.weights, problem.a.weights, alphas[i], gammas[i], u0, max_iter, tol, _chunked_norm
            )
        else:
            weights = problem.f.weights if mode == "primal-dr" else curvatures.weights
            iterates, diverged = _reference_dr(
                weights, False, alphas[i], gammas[i], starts[i], max_iter, tol, _chunked_norm
            )
            ref_x = None
        distances = np.array([_chunked_norm(z) for z in iterates]).tobytes()
        references.append((len(iterates) - 1, diverged, distances, ref_x))
    monkeypatch.setattr(splitting, "RUN_ELEMENTS", 1)
    for pass_steps, workers in itertools.product((1, 2, 3, 4, None), (1, 2, 3)):
        _passes(monkeypatch, pass_steps)
        monkeypatch.setattr(splitting, "WORKERS", workers)
        runs = run_rows(problem, mode, alphas, gammas, lambda rows: starts[rows], max_iter=max_iter, tol=tol)
        assert 0 < runs.steps[0] < max_iter and runs.diverged[1] and runs.steps[2] == 0
        assert runs.steps[4] == max_iter
        for i, (steps, diverged, distances, ref_x) in enumerate(references):
            assert (runs.steps[i], runs.diverged[i]) == (steps, diverged)
            assert runs.distances[i, : steps + 1].tobytes() == distances
            if mode == "admm":
                u0 = Vec(starts[i] * (1.0 / gammas[i]))
                try:
                    trace = run_admm(problem, gammas[i], alphas[i], u0=u0, max_iter=max_iter, tol=tol)
                except DivergenceError as exc:
                    trace = exc.trace
                assert trace.final_x.coeffs.tobytes() == ref_x.tobytes()


def _forked_runs(monkeypatch):
    """Rows of more than two ``NORM_CHUNK`` columns walked in blocks of that
    many, in two runs, the second on a forked worker where this process may
    fork; returns the list of the pids forked here from then on."""
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    monkeypatch.setattr(splitting, "WORKERS", 2)
    monkeypatch.setattr(splitting, "RUN_ELEMENTS", 1)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
    return forks


#: long-row workers are forked only on Linux, and these tests read ``/proc/self/fd``
linux_only = pytest.mark.skipif(sys.platform != "linux", reason="long rows fork workers only on Linux")


def test_a_worker_raises_in_the_caller(monkeypatch):
    # numpy's error handling is the caller's: a worker raises every error
    # the caller would not ignore, and a walk that raised there is walked
    # again in the caller, so what it warns or raises reaches the caller,
    # under raise, warn and warnings made errors. Only the last of the
    # three blocks, which the worker walks, holds an entry of 1e154, whose
    # square is finite. The last coordinate has curvature BETA, so at
    # alpha = gamma = 1 the step scales it by -9/11: the square of the
    # step, 20/11 of it, overflows, and the distance's square does not
    forks = _forked_runs(monkeypatch)
    dim = 2 * splitting.NORM_CHUNK + 3
    problem = make_primal_instance(SIGMA, BETA, dim, range(dim // 2))
    start = np.ones((1, dim))
    start[0, -1] = 1e154
    runs = lambda: run_rows(problem, "primal-dr", [1.0], [1.0], lambda rows: start, max_iter=2, tol=0.0)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
        runs()
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            runs()
    with np.errstate(all="warn"), pytest.warns(RuntimeWarning, match="overflow"):
        warned = runs()
    with np.errstate(over="ignore"):
        ignored = runs()
    assert ignored.steps[0] == 2 and np.isfinite(ignored.distances).all()
    assert warned.distances.tobytes() == ignored.distances.tobytes()
    assert len(forks) == (4 if sys.platform == "linux" else 0)


@pytest.mark.parametrize(
    "pass_steps, walks, steps",
    [(4, 9, 30), (1, 30, 30), (4, 16, 60), (None, 2, 30)],
    ids=["4-9", "1-30", "4-16-60", "default-2"],
)
def test_a_long_row_run_walks_its_row_once_per_pass(monkeypatch, pass_steps, walks, steps):
    # 30 steps in passes of 4: the first step alone, 7 passes of 4, and a
    # pass of the one step left. 60 steps: the first alone, 14 passes of 4,
    # and a pass of the 3 steps left, which ends at the budget. In the
    # default passes of up to 32 steps, 30 steps are the first alone and
    # one pass of 29: tol 0 foresees no stop, nor does a contracting row
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    _passes(monkeypatch, pass_steps)
    passes = []
    run = splitting._ColumnBlocks.run
    monkeypatch.setattr(splitting._ColumnBlocks, "run", lambda self, *a: passes.append(a[3]) or run(self, *a))
    dim = 2 * splitting.NORM_CHUNK + 3
    problem = make_primal_instance(SIGMA, BETA, dim, range(dim // 2))
    alpha, gamma, _ = optimal_params(SIGMA, BETA)
    z0 = Vec(np.random.default_rng(30).uniform(-1.0, 1.0, dim))
    trace = run_dr(problem, SplitParams(alpha, gamma), z0, max_iter=steps, tol=0.0)
    assert trace.n_steps == steps
    assert (len(passes), sum(passes)) == (walks, steps)
    if pass_steps is None:
        assert passes == [1, 29]


def test_a_pass_that_a_row_stops_in_is_kept_and_cut_at_the_stop(monkeypatch):
    # tol is the row's own step norm at step 7, inside the fixed pass of
    # steps 6 to 9: after step 1 alone and the pass of 2 to 5, that pass is
    # walked once and kept, and the run ends at step 7 with the distances
    # of its run of one step a walk
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    dim = 2 * splitting.NORM_CHUNK + 3
    problem = make_primal_instance(SIGMA, BETA, dim, range(dim // 2))
    params = SplitParams(*optimal_params(SIGMA, BETA)[:2])
    z0 = Vec(np.random.default_rng(31).uniform(-1.0, 1.0, dim))
    iterates = run_dr(problem, params, z0, max_iter=7, tol=0.0).iterates
    tol = _chunked_norm(iterates[7].coeffs - iterates[6].coeffs)
    _passes(monkeypatch, 1)
    alone = run_dr(problem, params, z0, max_iter=30, tol=tol)
    _passes(monkeypatch, 4)
    walks = []
    run = splitting._ColumnBlocks.run
    monkeypatch.setattr(splitting._ColumnBlocks, "run", lambda self, *a: walks.append(a[3]) or run(self, *a))
    trace = run_dr(problem, params, z0, max_iter=30, tol=tol)
    assert trace.n_steps == alone.n_steps == 7 and trace.converged
    assert walks == [1, 4, 4]
    assert trace.distances.tobytes() == alone.distances.tobytes()


def test_a_foreseen_stop_ends_a_pass(monkeypatch):
    # at the bound-minimizing parameters both bands shrink by the same
    # factor, so the step norms do too: from its first step on, the run
    # foresees its tol stop, halfway between two step norms, and walks its
    # rows twice, with no step past the stop
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    dim = 2 * splitting.NORM_CHUNK + 3
    problem = make_primal_instance(SIGMA, BETA, dim, range(dim // 2))
    params = SplitParams(*optimal_params(SIGMA, BETA)[:2])
    z0 = Vec(np.random.default_rng(32).uniform(-1.0, 1.0, dim))
    z = [v.coeffs for v in run_dr(problem, params, z0, max_iter=20, tol=0.0).iterates]
    tol = math.sqrt(_chunked_norm(z[20] - z[19]) * _chunked_norm(z[19] - z[18]))
    walks = []
    run = splitting._ColumnBlocks.run
    monkeypatch.setattr(splitting._ColumnBlocks, "run", lambda self, *a: walks.append(a[3]) or run(self, *a))
    trace = run_dr(problem, params, z0, max_iter=60, tol=tol)
    assert trace.n_steps == 20 and trace.converged
    assert walks == [1, 19]


def _one_row(problem, mode, alpha, gamma, start, max_iter, tol):
    """The one-row run of ``mode`` from ``start``, as :func:`run_rows` runs
    a row from it: ``(trace, diverged)``."""
    if mode == "admm":
        run = lambda: run_admm(problem, gamma, alpha, u0=Vec(start * (1.0 / gamma)), max_iter=max_iter, tol=tol)
    else:
        if mode == "dual-dr":
            problem = CompositeProblem(dual_function(problem), GFunction.ZERO)
        run = lambda: run_dr(problem, SplitParams(alpha, gamma), Vec(start), max_iter=max_iter, tol=tol)
    try:
        return run(), False
    except DivergenceError as exc:
        return exc.trace, True


@pytest.mark.parametrize("mode", splitting.MODES)
def test_a_pass_that_rows_stop_in_is_kept(monkeypatch, mode):
    # ten rows stop by tol and ten by the guard (relaxations past their
    # limit), at every offset within fixed passes of 4 steps (steps 2-5,
    # 6-9, ...). The kept passes give the steps, flags and distances of one
    # step a walk bit for bit, for the batch and for one-row runs at each
    # kind of stop and offset, and ADMM's final x too
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    dim = 2 * splitting.NORM_CHUNK + 3
    half = range(dim // 2)
    if mode == "primal-dr":
        problem = make_primal_instance(SIGMA, BETA, dim, half)
        curvatures = problem.f
    else:
        problem = make_dual_instance(SIGMA, BETA, 1.0, 3.0, dim, half, pairing="crossed")
        curvatures = dual_function(problem)
    gammas = np.full(20, 1.0 / math.sqrt(curvatures.sigma * curvatures.beta))
    shares = np.concatenate([np.linspace(0.1, 0.9, 10), np.linspace(1.05, 2.0, 10)])
    alphas = shares * alpha_upper_bound(gammas, curvatures.sigma, curvatures.beta)
    starts = np.random.default_rng(40).uniform(-1.0, 1.0, (20, dim))
    max_iter, tol = 60, 0.1
    runs = lambda: run_rows(problem, mode, alphas, gammas, lambda rows: starts[rows], max_iter=max_iter, tol=tol)
    _passes(monkeypatch, 1)
    alone = runs()
    _passes(monkeypatch, 4)
    kept = runs()
    for name in ("steps", "converged", "diverged", "distances"):
        assert getattr(kept, name).tobytes() == getattr(alone, name).tobytes(), name
    inside = (alone.steps > 1) & (alone.steps < max_iter)
    # the first row of each kind of stop at each offset
    picks = {}
    for i in np.flatnonzero(inside):
        picks.setdefault((bool(alone.diverged[i]), (alone.steps[i] - 2) % 4), i)
    assert set(picks) == set(itertools.product((False, True), range(4)))
    for (diverged, _), i in sorted(picks.items()):
        traces = []
        for pass_steps in (1, 4):
            _passes(monkeypatch, pass_steps)
            trace, tripped = _one_row(problem, mode, alphas[i], gammas[i], starts[i], max_iter, tol)
            assert (trace.n_steps, tripped, trace.converged) == (alone.steps[i], diverged, not diverged)
            assert trace.distances.tobytes() == alone.distances[i, : trace.n_steps + 1].tobytes()
            traces.append(trace)
        if mode == "admm":
            assert traces[0].final_x.coeffs.tobytes() == traces[1].final_x.coeffs.tobytes()


def test_a_tol_stop_inside_a_pass_is_no_divergence_after_it(monkeypatch):
    # at alpha 1.265 and gamma 1 the sigma band's factor is -0.265 and the
    # beta band's -1.3: from a start ten times larger on the sigma band, the
    # step norm shrinks, then grows, and the distance passes 10x its start
    # at step 18. tol at step 2's norm stops the run there, inside a fixed
    # pass of 32 steps that runs on past step 18: the run converged, as it
    # does one step a walk
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    dim = 2 * splitting.NORM_CHUNK + 3
    problem = make_primal_instance(SIGMA, BETA, dim, range(dim // 2))
    params = SplitParams(1.265, 1.0)
    start = Vec(np.where(np.arange(dim) < dim // 2, 1.0, 0.1))
    with pytest.raises(DivergenceError) as exc:
        run_dr(problem, params, start, max_iter=40, tol=0.0)
    z = [v.coeffs for v in exc.value.trace.iterates]
    assert len(z) == 19
    tol = _chunked_norm(z[2] - z[1])
    traces = []
    for pass_steps in (1, 32):
        _passes(monkeypatch, pass_steps)
        traces.append(run_dr(problem, params, start, max_iter=40, tol=tol))
    assert [(t.n_steps, t.converged) for t in traces] == [(2, True)] * 2
    assert traces[0].distances.tobytes() == traces[1].distances.tobytes()


def test_a_row_stopping_inside_a_pass_stops_there(monkeypatch):
    # row 0 stops by tol inside a fixed pass while the two slow rows run
    # on: the pass is kept, cut at row 0's stop, and row 0 is stepped on as
    # a NaN row, so its steps and distances stay those of its single run
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    _passes(monkeypatch, 4)
    dim = 2 * splitting.NORM_CHUNK + 3
    problem = make_primal_instance(SIGMA, BETA, dim, range(dim // 2))
    alpha, gamma, _ = optimal_params(SIGMA, BETA)
    slow = 0.05 * alpha_upper_bound(gamma, SIGMA, BETA)
    alphas, gammas = np.array([alpha, slow, slow]), np.full(3, gamma)
    starts = np.random.default_rng(11).uniform(-1.0, 1.0, (3, dim))
    offsets = set()
    for tol in 10.0 ** -np.arange(1.0, 9.0):
        runs = run_rows(problem, "primal-dr", alphas, gammas, lambda rows: starts[rows], max_iter=40, tol=tol)
        trace = run_dr(problem, SplitParams(alpha, gamma), Vec(starts[0]), max_iter=40, tol=tol)
        assert list(runs.steps) == [trace.n_steps, 40, 40]
        assert runs.distances[0, : trace.n_steps + 1].tobytes() == trace.distances.tobytes()
        assert np.all(np.isnan(runs.distances[0, trace.n_steps + 1 :]))
        offsets.add((trace.n_steps - 2) % 4)
    assert offsets == set(range(4))


def test_an_admm_run_stopping_inside_a_pass_keeps_its_last_x(monkeypatch):
    # a one-row run that stops by tol inside a fixed pass keeps the pass,
    # and its final x is replayed from the state its final step read: at
    # every offset within a pass, its distances and final x are the
    # reference loop's
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    _passes(monkeypatch, 4)
    dim = 2 * splitting.NORM_CHUNK + 5
    problem = make_dual_instance(SIGMA, BETA, 1.0, 3.0, dim, range(dim // 2), pairing="crossed")
    curvatures = dual_function(problem)
    rho = 0.5 / math.sqrt(curvatures.sigma * curvatures.beta)
    alpha = 0.6 * alpha_upper_bound(rho, curvatures.sigma, curvatures.beta)
    lam, nu = problem.f.weights, problem.a.weights
    u0 = np.random.default_rng(5).uniform(-1.0, 1.0, dim) * (1.0 / rho)
    # the norms the reference takes: the start's, then each step's distance
    # and step norm
    seen = []
    _reference_admm(lam, nu, alpha, rho, u0, 12, 0.0, lambda v: seen.append(_chunked_norm(v)) or seen[-1])
    offsets = set()
    for step_norm in seen[2::2]:
        tol = rho * step_norm
        iterates, _, ref_x = _reference_admm(lam, nu, alpha, rho, u0, 40, tol, _chunked_norm)
        trace = run_admm(problem, rho, alpha, u0=Vec(u0), max_iter=40, tol=tol)
        assert trace.n_steps == len(iterates) - 1
        assert trace.distances.tobytes() == np.array([_chunked_norm(z) for z in iterates]).tobytes()
        assert trace.final_x.coeffs.tobytes() == ref_x.tobytes()
        # steps 2 to 5 are the first pass
        offsets.add((trace.n_steps - 2) % 4)
    assert offsets == set(range(4))


def check_no_float_error_past_a_stop(monkeypatch, cols: slice):
    """Row 1 trips the guard at step 2, the first of a pass, from a start
    whose columns ``cols`` are scaled so that the squares of its later
    steps overflow. Only the steps the runs take may raise: none here, and
    the batch is the batch of one step per walk, in fixed passes of 4 and
    of 32 steps, whose first pass raises and is walked again one step at a
    time, and in the default passes. Scaled 8x more, the row's norm
    overflows at step 2 itself, which raises, warns, or raises its
    warning, as it does one step per walk."""
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    dim = 2 * splitting.NORM_CHUNK + 3
    problem = make_primal_instance(SIGMA, BETA, dim, range(dim // 2))
    upper = alpha_upper_bound(GAMMA_STAR, SIGMA, BETA)
    alphas, gammas = np.array([0.3 * upper, 4.0, 0.7 * upper]), np.full(3, GAMMA_STAR)
    starts = np.random.default_rng(7).uniform(-1.0, 1.0, (3, dim))
    scaled = np.zeros((1, dim))
    scaled[0, cols] = starts[1, cols]
    engine = splitting._engine(problem, "primal-dr", GAMMA_STAR)(4.0, GAMMA_STAR, scaled)
    norms = [splitting._norms(z)[0] for z in splitting._stepped(engine, 4)]
    assert norms[1] > 10.0 * splitting._norms(scaled)[0] >= norms[0]
    starts[1, cols] *= 2.0 ** math.floor(math.log2(4e153 / norms[1]))
    engine = splitting._engine(problem, "primal-dr", GAMMA_STAR)(4.0, GAMMA_STAR, starts[1:2])
    with np.errstate(over="ignore"):
        norms = [splitting._norms(z)[0] for z in splitting._stepped(engine, 4)]
    assert math.isfinite(norms[1]) and math.isinf(norms[3])
    runs = lambda: run_rows(problem, "primal-dr", alphas, gammas, lambda rows: starts[rows], max_iter=40, tol=0.0)
    walks = []
    run = splitting._ColumnBlocks.run
    monkeypatch.setattr(splitting._ColumnBlocks, "run", lambda self, *a: walks.append(a[3]) or run(self, *a))
    results = set()
    for pass_steps, how in itertools.product((1, 4, 32, None), ("raise", "warn")):
        _passes(monkeypatch, pass_steps)
        walks.clear()
        with np.errstate(all=how), warnings.catch_warnings():
            warnings.simplefilter("error")
            r = runs()
        assert list(r.steps) == [40, 2, 40] and list(r.diverged) == [False, True, False]
        if pass_steps == 32:
            # the pass of steps 2 to 33 raised, and its steps were walked again
            assert walks[:3] == [1, 32, 1] and sum(walks) == 72
        results.add(r.distances.tobytes())
    assert len(results) == 1
    starts[1, cols] *= 8.0
    for pass_steps in (1, 4, 32, None):
        _passes(monkeypatch, pass_steps)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
            runs()
        with np.errstate(all="warn"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                runs()
        with np.errstate(all="warn"), pytest.warns(RuntimeWarning, match="overflow"):
            r = runs()
        assert list(r.steps) == [40, 2, 40] and list(r.diverged) == [False, True, False]
        results.add(r.distances.tobytes())
    assert len(results) == 2


def test_a_pass_reports_no_float_error_of_a_step_past_a_stop(monkeypatch):
    check_no_float_error_past_a_stop(monkeypatch, slice(None))


def test_a_forked_pass_reports_no_float_error_of_a_step_past_a_stop(monkeypatch):
    # the same in two runs, with only the worker's columns scaled: it meets
    # every overflow, and what it meets is raised or warned in the caller
    forks = _forked_runs(monkeypatch)
    check_no_float_error_past_a_stop(monkeypatch, slice(splitting.NORM_CHUNK, None))
    assert forks or sys.platform != "linux"


def _lifetime_runs():
    """Calls that walk rows of ``2 * NORM_CHUNK + 3`` columns, each as its
    own engine or engines: the one-row runs, a batch, the replays of a
    trace's iterates and of ADMM's final x, and a batch that raises
    partway, at the overflow of its first step."""
    dim = 2 * splitting.NORM_CHUNK + 3
    primal = make_primal_instance(SIGMA, BETA, dim, range(dim // 2))
    dual = make_dual_instance(SIGMA, BETA, 1.0, 3.0, dim, range(dim // 2), pairing="crossed")
    params = SplitParams(*optimal_params(SIGMA, BETA)[:2])
    start = np.random.default_rng(dim).uniform(-1.0, 1.0, (3, dim))
    overflowing = np.ones((1, dim))
    overflowing[0, -1] = 1e154

    def raises():
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
            run_rows(primal, "primal-dr", [1.0], [1.0], lambda rows: overflowing, max_iter=2, tol=0.0)

    return {
        "run_dr": lambda: run_dr(primal, params, Vec(start[0]), max_iter=12, tol=0.0),
        "run_admm": lambda: run_admm(dual, 0.3, 0.9, Vec(start[0]), max_iter=12, tol=0.0),
        "run_rows": lambda: run_rows(primal, "primal-dr", [0.5, 0.9, 1.1], [0.3] * 3, lambda rows: start[rows], 12),
        "iterates": lambda: run_dr(primal, params, Vec(start[0]), max_iter=12, tol=0.0).iterates[-1],
        "final_x": lambda: run_admm(dual, 0.3, 0.9, Vec(start[0]), max_iter=12, tol=0.0).final_x,
        "raises": raises,
    }


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@linux_only
@pytest.mark.parametrize("call", ["run_dr", "run_admm", "run_rows", "iterates", "final_x", "raises"])
def test_no_worker_outlives_its_run(monkeypatch, call):
    # each engine's workers are stopped and reaped when its run, its replay
    # or its walk that raised ends, while the engine itself is still held:
    # no child is left and no pipe is open
    forks = _forked_runs(monkeypatch)
    engines = []
    iterate, stepped = splitting._iterate, splitting._stepped
    monkeypatch.setattr(splitting, "_iterate", lambda engine, *args: engines.append(engine) or iterate(engine, *args))
    monkeypatch.setattr(splitting, "_stepped", lambda engine, steps: engines.append(engine) or stepped(engine, steps))
    fds = _open_fds()
    _lifetime_runs()[call]()
    assert len(forks) == len(engines) == (2 if call in ("iterates", "final_x") else 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


@linux_only
@pytest.mark.parametrize("mode", ["dual-dr", "admm"])
def test_a_worker_killed_mid_run_changes_no_distance(monkeypatch, mode):
    # a worker killed by SIGKILL at the start of its third walk gives no
    # reply: it is reaped, and the caller walks its run from then on, with
    # the same bits as one process. 70 steps are walked as the first step
    # alone, two passes of up to PASS_STEPS and the rest. The worker kills
    # itself: killed from the caller, it may have replied already, since it
    # can take its whole walk while the caller waits for a core
    dim = 2 * splitting.NORM_CHUNK + 3
    problem = make_dual_instance(SIGMA, BETA, 1.0, 3.0, dim, range(dim // 2), pairing="crossed")
    starts = np.random.default_rng(dim).uniform(-1.0, 1.0, (2, dim))
    run = lambda: run_rows(problem, mode, [0.5, 0.9], [0.3, 0.3], lambda rows: starts[rows], max_iter=70, tol=0.0)
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    monkeypatch.setattr(splitting, "WORKERS", 1)
    alone = run()
    forks = _forked_runs(monkeypatch)
    # each walk's steps: the caller's of the first run, and its own of the
    # worker's run; a worker counts its own walks in its copy of the list
    parent, walks, taken = os.getpid(), [], []
    walk = splitting._ColumnBlocks._walk

    def killing(self, *args):
        if os.getpid() != parent:
            walks.append(args[4])
            if len(walks) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
        (walks if args[5] == 0 else taken).append(args[4])
        return walk(self, *args)

    monkeypatch.setattr(splitting._ColumnBlocks, "_walk", killing)
    fds = _open_fds()
    forked = run()
    # the caller took the worker's run over from the third walk, a pass of
    # several steps, on
    assert len(forks) == 1 and len(walks) > 2 and walks[2] > 1 and taken == walks[2:]
    assert forked.distances.tobytes() == alone.distances.tobytes()
    assert forked.steps.tolist() == alone.steps.tolist() == [70, 70]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


@linux_only
@pytest.mark.parametrize("error", [DeprecationWarning("multi-threaded"), KeyboardInterrupt()])
def test_a_fork_that_raises_leaves_no_pipe(monkeypatch, error):
    # an exception from os.fork other than OSError (a warning made an error,
    # an interrupt) reaches the caller, with the worker's pipes closed
    _forked_runs(monkeypatch)

    def raising():
        raise error

    monkeypatch.setattr(os, "fork", raising)
    fds = _open_fds()
    with pytest.raises(type(error)):
        _lifetime_runs()["run_dr"]()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


@linux_only
@pytest.mark.parametrize("mode", ["dual-dr", "admm"])
def test_workers_fork_beside_a_thread_python_does_not_run(monkeypatch, mode):
    # faulthandler's watchdog is an OS thread that the threading module does
    # not count, as a BLAS pool's are: the steps still fork, and with
    # warnings made errors, as Python 3.12's fork-with-threads warning would
    # be, the runs keep their bits and leave no child and no pipe
    import faulthandler

    dim = 2 * splitting.NORM_CHUNK + 3
    problem = make_dual_instance(SIGMA, BETA, 1.0, 3.0, dim, range(dim // 2), pairing="crossed")
    starts = np.random.default_rng(dim).uniform(-1.0, 1.0, (2, dim))
    run = lambda: run_rows(problem, mode, [0.5, 0.9], [0.3, 0.3], lambda rows: starts[rows], max_iter=12, tol=0.0)
    alone = run()
    forks = _forked_runs(monkeypatch)
    fds = _open_fds()
    faulthandler.dump_traceback_later(600)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forked = run()
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert len(forks) == 1
    assert forked.distances.tobytes() == alone.distances.tobytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def test_a_wrong_sized_start_is_rejected_before_its_engine_is_built():
    # the start's dimension is checked before the engine's buffers are made,
    # so a start of rows long enough for two workers forks and maps nothing
    code = (
        "import os, tracemalloc, numpy as np\n"
        "from splitrate import splitting\n"
        "from splitrate.hilbert import Vec\n"
        "from splitrate.worstcase import default_primal_instance\n"
        "splitting.WORKERS = 2\n"
        "os.fork = None\n"
        "problem, v = default_primal_instance(), Vec(np.ones(10**6))\n"
        "tracemalloc.start()\n"
        "try:\n"
        "    splitting.run_dr(problem, splitting.SplitParams(1.0, 0.3), v)\n"
        "except ValueError as exc:\n"
        "    assert str(exc) == 'start rows have shape (1, 1000000), expected (1, 8)', exc\n"
        "else:\n"
        "    raise AssertionError('a wrong-sized start ran')\n"
        "assert tracemalloc.get_traced_memory()[1] < 1 << 20, tracemalloc.get_traced_memory()\n"
        "assert splitting._mapped == 0\n"
    )
    src = str(Path(splitting.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_short_rows_and_the_battery_fork_nothing_and_map_nothing(monkeypatch, capsys):
    # workers, and the shared mappings of their state buffers, are for rows
    # longer than COLUMN_BLOCK: default sweeps and the battery's criteria
    # make neither, even where two workers may step long rows
    def made(*args):
        raise AssertionError("forked or mapped")

    monkeypatch.setattr(splitting, "WORKERS", 2)
    monkeypatch.setattr(os, "fork", made)
    monkeypatch.setattr(mmap, "mmap", made)
    assert [cli.main(["sweep", "--mode", mode]) for mode in splitting.MODES] == [0, 0, 0]
    capsys.readouterr()
    results = [acceptance.run_criterion(name) for name in acceptance.CRITERIA]
    assert all(result.passed for result in results), [r.line() for r in results]


@pytest.mark.parametrize("mode", ["primal-dr", "admm"])
def test_a_step_holds_no_row_sized_temporary(monkeypatch, mode):
    # a step's temporaries are column blocks: from the engine's build to
    # its twentieth step, the traced peak stays within a few blocks of the
    # buffers the engine holds, where one row is 1.6 MB. The blocks run on
    # two processes, the worker with its own copy of the temporaries. A
    # start at the fixed point stays unchanged, so the first step's test
    # reads every column block, ADMM's x-test included, and stops it there
    monkeypatch.setattr(splitting, "WORKERS", 2)
    monkeypatch.setattr(splitting, "RUN_ELEMENTS", splitting.COLUMN_BLOCK)
    dim = 200_000
    half = range(dim // 2)
    rows = np.random.default_rng(28).uniform(-1.0, 1.0, (1, dim))
    if mode == "admm":
        problem = make_dual_instance(SIGMA, BETA, 1.0, 3.0, dim, half, pairing="crossed")
    else:
        problem = make_primal_instance(SIGMA, BETA, dim, half)
    for start, taken in ((rows, 20), (np.zeros_like(rows), 0)):
        tracemalloc.start()
        try:
            engine = splitting._engine(problem, mode, 0.5)(0.9, 0.5, start)
            first = splitting._norms(engine.record(engine.state))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, steps, _, diverged = splitting._iterate(engine, first, 20, 0.0)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert steps[0] == taken and not diverged[0]
        # two column blocks of booleans: the first step's fixed-point test
        # compares one block of columns at a time
        assert peak < 2 * splitting.COLUMN_BLOCK


@pytest.mark.parametrize("mode", splitting.MODES)
def test_only_short_rows_hold_their_parameters_at_the_state_shape(monkeypatch, mode):
    # engines built as run_rows builds them, from (rows, 1) parameter
    # columns. Short rows' engines hold their own state-sized arrays: DR its
    # reflection factor, ADMM its u, scale and denominator. Rows of at most
    # 64 elements add one state-sized copy of each operand that the update
    # broadcasts (DR: alpha and 1 - alpha; ADMM: 2 alpha, rho and nu); longer
    # rows add no row-sized copy of a parameter. Long rows hold no parameter
    # row, only their pair of state buffers (ADMM's u is written into the
    # first) and one run's column blocks: the spare, the update's
    # temporaries and the blocks their parameters are formed in
    monkeypatch.setattr(splitting, "WORKERS", 1)
    own, broadcast, temps, params = (3, 3, 2, 2) if mode == "admm" else (1, 2, 1, 1)
    cases = ((64, 1024), (splitting.COLUMN_BLOCK, 2), (2 * splitting.COLUMN_BLOCK, 4), (200_000, 2))
    for dim, count in cases:
        half = range(dim // 2)
        if mode == "primal-dr":
            problem = make_primal_instance(SIGMA, BETA, dim, half)
        else:
            problem = make_dual_instance(SIGMA, BETA, 1.0, 3.0, dim, half, pairing="crossed")
        build = splitting._engine(problem, mode, 0.5)
        alphas, gammas = np.resize([[0.9], [1.1]], (count, 1)), np.resize([[0.5], [0.3]], (count, 1))
        rows = np.random.default_rng(dim).uniform(-1.0, 1.0, (count, dim))
        tracemalloc.start()
        try:
            engine = build(alphas, gammas, rows)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        state = rows.nbytes
        if dim > splitting.COLUMN_BLOCK:
            least, added = 2 * state, (1 + temps + params) * count * splitting.COLUMN_BLOCK * 8
        elif dim > 64:
            least, added = own * state, 0
        else:
            least, added = (own + broadcast) * state, 0
        assert least <= held < least + added + (1 << 16), (dim, held / state)
        assert engine.state.shape == rows.shape


def _parameter_blocks(self) -> int:
    """How many parameter blocks a ``_ColumnBlocks`` of long rows holds
    besides its spare block and temporaries."""
    return len(self.blocks) - 1 - self.temps


@linux_only
@pytest.mark.parametrize("mode", ["primal-dr", "admm"])
def test_every_block_buffer_starts_at_its_own_offset_in_a_page(monkeypatch, mode):
    # the spare block, the temporaries and the parameter blocks that a walk
    # passes to the update start at low 12 address bits that differ from
    # one another's and from 0, the offset of the state's blocks in their
    # shared mappings, in the caller and in a forked worker alike: where a
    # step stores into one array a few elements ahead of where it loads
    # from another at the same offset within a page, the loads wait on the
    # stores (4K aliasing)
    forks = _forked_runs(monkeypatch)
    dim = 2 * splitting.NORM_CHUNK + 3
    problem = make_dual_instance(SIGMA, BETA, 1.0, 3.0, dim, range(dim // 2), pairing="crossed")
    if mode == "primal-dr":
        problem = make_primal_instance(SIGMA, BETA, dim, range(dim // 2))
    # the offsets of each run's blocks: the caller's run first, the worker's second
    seen = np.frombuffer(mmap.mmap(-1, 2 * 8 * 8), dtype=np.int64).reshape(2, 8)
    block = splitting._ColumnBlocks._block

    def recorded(self, form, cols):
        spare, temps, columns = block(self, form, cols)
        offsets = [a.ctypes.data % 4096 for a in (spare, *temps, *columns[: _parameter_blocks(self)])]
        seen[int(cols.start > 0), : len(offsets)] = offsets
        return spare, temps, columns

    monkeypatch.setattr(splitting._ColumnBlocks, "_block", recorded)
    starts = np.random.default_rng(dim).uniform(-1.0, 1.0, (2, dim))
    runs = run_rows(problem, mode, [0.5, 0.9], [0.3, 0.3], lambda rows: starts[rows], max_iter=3, tol=0.0)
    assert runs.steps.tolist() == [3, 3] and len(forks) == 1
    count = 5 if mode == "admm" else 3
    for offsets in seen.tolist():
        assert len(set(offsets[:count])) == count and 0 not in offsets[:count], offsets
    assert seen[0].tolist() == seen[1].tolist()


@linux_only
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "column"])
def test_parameters_formed_by_the_block_are_the_whole_row_forms_bitwise(monkeypatch, workers, per_row):
    # long rows form DR's factor and ADMM's scale and denominator one column
    # block per walk, in the caller and in a forked worker, and ADMM's x one
    # block at a time: each element has the bits of the whole-row forms,
    # written out here, at a scalar step size and at one per row, for the
    # factor that g the origin indicator negates, and over a last block of
    # 5 columns. The curvatures span six decades
    forks = _forked_runs(monkeypatch)
    monkeypatch.setattr(splitting, "WORKERS", workers)
    rows, dim = 3, 3 * splitting.NORM_CHUNK + 5
    rng = np.random.default_rng(41)
    f = DiagQuadratic(10.0 ** rng.uniform(-3.0, 3.0, dim))
    coupled = CompositeProblem(f, GFunction.ZERO_INDICATOR, DiagOperator(rng.choice([1.0, 3.0], dim), 1.0, 3.0))
    cases = [
        ("primal-dr", CompositeProblem(f, GFunction.ZERO)),
        ("primal-dr", CompositeProblem(f, GFunction.ZERO_INDICATOR)),
        ("dual-dr", coupled),
        ("admm", coupled),
    ]
    gamma = np.geomspace(0.05, 3.0, rows)[:, None] if per_row else 0.7
    u = rng.uniform(-1.0, 1.0, (rows, dim)) * np.exp2(rng.integers(-40, 40, (rows, dim)))
    # each parameter as the walks formed it, the worker's columns included
    seen = np.frombuffer(mmap.mmap(-1, 2 * 8 * rows * dim)).reshape(2, rows, dim)
    block = splitting._ColumnBlocks._block

    def recorded(self, form, cols):
        spare, temps, columns = block(self, form, cols)
        for record, column in zip(seen, columns[: _parameter_blocks(self)]):
            record[:, cols] = column
        return spare, temps, columns

    monkeypatch.setattr(splitting._ColumnBlocks, "_block", recorded)
    for mode, problem in cases:
        seen.fill(np.nan)
        engine = splitting._engine(problem, mode, 3.0)(0.9, gamma, u)
        state = engine.step(engine.state)[0]
        if mode == "admm":
            nu = problem.a.weights
            whole = [gamma * nu, gamma * (nu * nu) + f.weights]
        else:
            w = f.weights if mode == "primal-dr" else dual_function(problem).weights
            refl = (1.0 - gamma * w) / (1.0 + gamma * w)
            whole = [-refl if problem.g is GFunction.ZERO_INDICATOR and mode == "primal-dr" else refl]
        for record, form in zip(seen, whole):
            assert record.tobytes() == np.broadcast_to(form, (rows, dim)).tobytes(), mode
        if mode == "admm":
            assert engine.x(state).tobytes() == ((0.0 - state) * whole[0] / whole[1]).tobytes()
        engine.stop()
    assert len(forks) == (len(cases) if workers == 2 else 0)


def _signed_zeros(rng, dim, share):
    """A uniform(-1, 1) vector with about ``share`` of its coordinates set to
    +0.0 or -0.0."""
    v = rng.uniform(-1.0, 1.0, dim)
    hit = rng.random(dim) < share
    v[hit] = np.copysign(0.0, rng.uniform(-1.0, 1.0, hit.sum()))
    return v


@st.composite
def replay_cases(draw):
    """An instance of the :func:`dr_cases` family run by one engine (the dual
    side couples the same bands), a relaxation below or above
    alpha_upper_bound, and starts with signed zeros in them, sometimes all
    zero. The budgets and tols let runs stop for every reason."""
    sigma, beta, dim, idx_sigma = draw(two_bands())
    mode = draw(st.sampled_from(splitting.MODES))
    if mode == "primal-dr":
        g = draw(st.sampled_from([GFunction.ZERO, GFunction.ZERO_INDICATOR]))
        problem = CompositeProblem(f=make_primal_instance(sigma, beta, dim, idx_sigma).f, g=g)
        curvatures = problem.f
    else:
        theta = 10.0 ** draw(st.floats(-1.0, 1.0))
        zeta = theta * 10.0 ** draw(st.floats(0.01, 1.0))
        pairing = draw(st.sampled_from(["aligned", "crossed"]))
        problem = make_dual_instance(sigma, beta, theta, zeta, dim, idx_sigma, pairing)
        curvatures = dual_function(problem)
    gamma = 10.0 ** draw(st.floats(-2.0, 2.0)) / math.sqrt(curvatures.sigma * curvatures.beta)
    alpha = alpha_upper_bound(gamma, curvatures.sigma, curvatures.beta) * draw(
        st.floats(0.01, 0.99) | st.floats(1.05, 1.9)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = _signed_zeros(rng, dim, draw(st.sampled_from([0.0, 0.3, 1.0])))
    max_iter = draw(st.integers(0, 60))
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-4, 1e-2, 0.3]))
    return problem, mode, alpha, gamma, start, max_iter, tol


@settings(deadline=None, max_examples=120)
@given(replay_cases())
def test_replayed_iterates_equal_the_reference_loop_bitwise(case):
    _check_replay(*case)


@pytest.mark.parametrize("mode", splitting.MODES)
@pytest.mark.parametrize("reason", ["tol", "guard", "zero-start", "budget"])
def test_replay_for_each_stop_reason(mode, reason):
    problem = default_primal_instance() if mode == "primal-dr" else default_dual_instance("crossed")
    curvatures = problem.f if mode == "primal-dr" else dual_function(problem)
    gamma = 1.0 / math.sqrt(curvatures.sigma * curvatures.beta)
    upper = alpha_upper_bound(gamma, curvatures.sigma, curvatures.beta)
    alpha = 1.9 * upper if reason == "guard" else 0.5 * upper
    start = _signed_zeros(np.random.default_rng(26), 8, 1.0 if reason == "zero-start" else 0.3)
    max_iter, tol = (25, 0.0) if reason == "budget" else (500, 1e-6)
    steps, diverged = _check_replay(problem, mode, alpha, gamma, start, max_iter, tol)
    assert diverged == (reason == "guard")
    if reason == "zero-start":
        assert steps == 0
    elif reason == "budget":
        assert steps == 25
    else:
        assert 0 < steps < max_iter


@st.composite
def admm_cases(draw):
    """A coupled instance (condition number up to 1e8, theta < zeta, dim
    2..32, random band split, either pairing) and a batch of feasible
    points (alpha, rho) for its dual curvatures."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    beta = sigma * 10.0 ** draw(st.floats(0.0, 8.0))
    theta = 10.0 ** draw(st.floats(-1.0, 1.0))
    zeta = theta * 10.0 ** draw(st.floats(0.01, 1.0))
    dim = draw(st.integers(2, 32))
    idx_sigma = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))
    pairing = draw(st.sampled_from(["aligned", "crossed"]))
    problem = make_dual_instance(sigma, beta, theta, zeta, dim, idx_sigma, pairing)
    quad = dual_function(problem)
    gamma_star = 1.0 / math.sqrt(quad.sigma * quad.beta)
    rhos = np.array([gamma_star * 10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(draw(st.integers(1, 12)))])
    alphas = alpha_upper_bound(rhos, quad.sigma, quad.beta) * np.array(
        [draw(st.floats(0.01, 0.99)) for _ in rhos]
    )
    return problem, quad, alphas, rhos


#: dual curvatures both 1: at alpha 1 and rho 1 both runs reach the origin
#: in one step, and neither fits a rate
_ONE_STEP = make_dual_instance(1.0, 10.0, 1.0, 10**0.5, 2, {0}, "aligned")


@settings(deadline=None, max_examples=80)
@given(admm_cases())
@example((_ONE_STEP, dual_function(_ONE_STEP), np.array([1.0]), np.array([1.0])))
def test_admm_rates_match_dual_dr_rates(case):
    # the battery's 1e-8 tolerance, over the whole instance family, from the
    # worst start of the dual curvatures
    problem, quad, alphas, rhos = case
    index = worst_coordinates(quad, alphas, rhos)
    fits = {}
    for mode in ("dual-dr", "admm"):
        runs = run_rows(problem, mode, alphas, rhos, lambda rows: basis_rows(problem.dim, index[rows]), max_iter=40, tol=0.0)
        assert not runs.diverged.any()
        fits[mode] = fit_rates(runs.step_ratios)
    dual, admm = fits["dual-dr"], fits["admm"]
    both = ~np.isnan(dual) & ~np.isnan(admm)
    assert np.all(np.abs(dual - admm)[both] <= 1e-8)
    # one fit is missing only where the run contracts so fast that rounding
    # decides whether a fifth distance clears the ratio floor; both are
    # missing where both runs reach the origin within a few steps
    one = np.isnan(dual) != np.isnan(admm)
    assert np.all(np.fmax(dual, admm)[one] < 1e-2)


# entries of u: both zeros, subnormals, values near overflow and ordinary ones
U_ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.7e308, -1e308]) | st.floats(-1e3, 1e3)


@st.composite
def admm_steps(draw):
    """ADMM parameters and a batch of u rows, some of them rows of NaN, as
    the engine leaves a stopped row."""
    rows, dim = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    positive = lambda size: 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=size, max_size=size)))
    f_weights, nu, rho = positive(dim), positive(dim), positive(rows)[:, None]
    alpha = np.array(draw(st.lists(st.floats(0.01, 1.99), min_size=rows, max_size=rows)))[:, None]
    u = np.array(draw(st.lists(st.lists(U_ENTRIES, min_size=dim, max_size=dim), min_size=rows, max_size=rows)))
    u[np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))] = np.nan
    return f_weights, nu, alpha, rho, u


@given(admm_steps())
def test_the_admm_step_is_the_textbook_update_bit_for_bit(case):
    # the step forms -x = u * scale / denom and subtracts relax * nu * -x
    # from u: rounding commutes with negation and u + (-t) is u - t, so it
    # gives the bits of u + relax * (nu * x), signed zeros and NaN included
    f_weights, nu, alpha, rho, u = case
    with np.errstate(all="ignore"):
        stepped = splitting._admm_engine(f_weights, nu, alpha, rho, u).step(u)[0]
        scale, denom = rho * nu, rho * (nu * nu) + f_weights
        textbook = u + 2.0 * alpha * (nu * ((0.0 - u) * scale / denom))
    assert stepped.tobytes() == textbook.tobytes()


@pytest.mark.parametrize("mode", ["primal-dr", "admm"])
def test_run_memory_does_not_grow_with_steps(mode):
    # a kept iterate is dim * 8 bytes, so a run that kept them would peak
    # 100 iterates higher at 120 steps than at 20
    dim = 200_000
    half = range(dim // 2)
    rng = np.random.default_rng(27)
    if mode == "admm":
        problem = make_dual_instance(SIGMA, BETA, 1.0, 3.0, dim, half, pairing="crossed")
        u0 = Vec(rng.uniform(-1.0, 1.0, dim))
        run = lambda steps: run_admm(problem, rho=0.5, alpha=0.9, u0=u0, max_iter=steps, tol=0.0)
    else:
        problem = make_primal_instance(SIGMA, BETA, dim, half)
        z0 = Vec(rng.uniform(-1.0, 1.0, dim))
        run = lambda steps: run_dr(problem, SplitParams(0.9, GAMMA_STAR), z0, max_iter=steps, tol=0.0)
    peaks = []
    tracemalloc.start()
    try:
        for steps in (20, 120):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            trace = run(steps)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            assert len(trace.iterates) == steps + 1 and trace.n_steps == steps
            assert tracemalloc.get_traced_memory()[1] - held < dim
            del trace
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < dim * 8 // 4


def test_dr_rejects_a_step_size_whose_product_with_beta_overflows(primal):
    # the rate formulas' check: gamma * beta = inf made the reflection factor
    # NaN, with a warning, and the row read NaN distances with diverged=False
    with pytest.raises(ValueError, match=r"gamma \* beta must be finite"):
        run_rows(primal, "primal-dr", [1.0], [1e308], lambda rows: np.ones((1, 8)))
    with pytest.raises(ValueError, match=r"gamma \* beta must be finite"):
        run_dr(primal, SplitParams(1.0, 1e308), _unit(8, 0))
    # a product that stays finite still runs
    assert run_rows(primal, "primal-dr", [1.0], [1e307], lambda rows: np.ones((1, 8))).steps[0] > 0


def test_admm_rejects_a_step_size_whose_own_products_overflow():
    # beta_hat = zeta**2 / sigma = 0.1, so rho * beta_hat and the bound are
    # finite at rho = 1e305, but the engine's rho * nu**2 = 1e309 is not
    coupled = make_dual_instance(1e5, 1e6, 1.0, 100.0, 8, range(4), pairing="crossed")
    starts = lambda rows: np.ones((2, 8))
    for call in (
        lambda: run_rows(coupled, "admm", [1.0, 1.0], [1.0, 1e305], starts),
        lambda: run_admm(coupled, 1e305, 1.0),
    ):
        with pytest.raises(ValueError, match=r"gamma \* nu\*\*2 must be finite"):
            call()
    assert not run_rows(coupled, "dual-dr", [1.0, 1.0], [1.0, 1e305], starts).diverged.any()


def test_the_fixed_point_test_reads_every_column_block(monkeypatch):
    # rows of 11 columns in blocks of 4: a row that moves only in its last
    # column, in the ragged last block, or only in the second block, did move
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", 4)
    before = np.arange(44.0).reshape(4, 11)
    moved = before.copy()
    moved[1, -1] = -0.5
    moved[2, 5] = -0.5
    assert splitting._unchanged(before, moved).tolist() == [True, False, False, True]
    assert splitting._unchanged(before, before.copy()).tolist() == [True] * 4


@pytest.mark.parametrize("mode", ["primal-dr", "dual-dr"])
def test_one_block_builds_its_factors_once(monkeypatch, mode):
    # the check before any block runs builds no engine: one block forms the
    # reflection factor, and the dual curvatures, once
    calls = {"_reflection": 0, "dual_function": 0}
    for name in calls:
        original = getattr(splitting, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(splitting, name, counted)
    problem = default_primal_instance() if mode == "primal-dr" else default_dual_instance("crossed")
    runs = run_rows(problem, mode, [1.0, 0.5], [0.3, 0.3], lambda rows: np.ones((2, 8)), max_iter=5, tol=0.0)
    assert runs.steps.tolist() == [5, 5]
    assert calls == {"_reflection": 1, "dual_function": int(mode == "dual-dr")}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("which", ["alphas", "gammas"])
def test_run_rows_rejects_bad_parameters(primal, which, bad):
    values = {"alphas": np.array([1.0, 0.5]), "gammas": np.array([0.3, 0.3])}
    values[which][1] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        run_rows(primal, "primal-dr", values["alphas"], values["gammas"], lambda rows: np.ones((2, 8))[rows])


def test_run_rows_rejects_bad_mode_and_start_shape(primal):
    one, none = np.array([1.0]), np.array([])
    # a batch of no rows runs no block, and is rejected all the same
    for alphas in (one, none):
        starts = lambda part: np.ones((alphas.size, 8))
        with pytest.raises(ValueError, match="mode"):
            run_rows(primal, "newton", alphas, alphas, starts)
        with pytest.raises(ValueError, match="identity coupling"):
            run_rows(default_dual_instance(), "primal-dr", alphas, alphas, starts)
        with pytest.raises(ValueError, match="indicator of the origin"):
            run_rows(primal, "admm", alphas, alphas, starts)
    with pytest.raises(ValueError, match="shape"):
        run_rows(primal, "primal-dr", one, one, lambda part: np.ones((1, 3)))
    runs = run_rows(primal, "primal-dr", none, none, lambda part: np.ones((0, 8)))
    assert runs.distances.shape == (0, 1) and runs.steps.size == runs.diverged.size == 0


@pytest.mark.parametrize("mode", splitting.MODES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_run_rows_rejects_a_start_that_is_not_finite(monkeypatch, mode, bad):
    # one entry of the second of three rows is not finite: the batch raises
    # before any step, in every mode
    def stepped(*args):
        raise AssertionError("a step ran")

    problem = default_primal_instance() if mode == "primal-dr" else default_dual_instance("crossed")
    starts = np.ones((3, 8))
    starts[1, 5] = bad
    monkeypatch.setattr(splitting, "_iterate", stepped)
    with pytest.raises(ValueError, match="must be finite .*: row 1 is not"):
        run_rows(problem, mode, [1.0] * 3, [0.3] * 3, lambda rows: starts[rows])


def test_run_rows_rejects_an_admm_step_size_whose_inverse_overflows():
    # the least step size of the batch is checked, not only the greatest,
    # before any block draws its starts
    def starts(rows):
        raise AssertionError("a block drew its starts")

    with pytest.raises(ValueError, match=r"1 / gamma must be finite .*gamma=1e-310"):
        run_rows(default_dual_instance("crossed"), "admm", [1.0, 1.0], [1.0, 1e-310], starts)


def test_run_rows_rejects_an_admm_relaxation_whose_double_overflows():
    # 2 * alpha is ADMM's over-relaxation: at inf, the first step made every
    # zero coordinate NaN (0 * inf), which no stop test meets. The largest
    # relaxation of the batch is checked before any block draws its starts
    def starts(rows):
        raise AssertionError("a block drew its starts")

    coupled = default_dual_instance("crossed")
    with pytest.raises(ValueError, match=r"2 \* alpha must be finite .*alpha=9e\+307"):
        run_rows(coupled, "admm", [1.0, 9e307], [0.3, 0.3], starts)
    with pytest.raises(ValueError, match=r"2 \* alpha must be finite"):
        run_admm(coupled, 0.3, 9e307)
    # relaxed DR has no such product: the row diverges, past where its
    # distance's square overflows
    with np.errstate(over="ignore"):
        assert run_rows(coupled, "dual-dr", [9e307], [0.3], lambda rows: np.ones((1, 8))).diverged.all()


@pytest.mark.parametrize("mode", splitting.MODES)
@pytest.mark.parametrize("start", ["worst", "random"])
def test_small_blocks_give_the_same_sweep_bytes(tmp_path, monkeypatch, mode, start):
    flags = ["sweep", "--mode", mode, "--start", start, "--seed", "7", "--iters", "30"]
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    assert cli.main(flags + ["--out", str(whole)]) == 0
    # 24 state elements a block: for the 400 grid points, 134 blocks of 3
    # rows of dim 8 from random starts, 17 blocks of 24 one-column rows from
    # worst starts
    monkeypatch.setattr(splitting, "BLOCK_ELEMENTS", 24)
    assert cli.main(flags + ["--out", str(blocked)]) == 0
    assert blocked.read_bytes() == whole.read_bytes()


def test_one_block_and_many_record_the_same_distances_in_fortran_order(monkeypatch, primal):
    # the rows stop at different steps, so the record ends each in NaN
    alphas, gammas = [0.5, 1.0, 1.9], [GAMMA_STAR] * 3
    starts = lambda rows: np.ones((rows.stop - rows.start, primal.dim))
    whole = run_rows(primal, "primal-dr", alphas, gammas, starts)
    # one row a block
    monkeypatch.setattr(splitting, "BLOCK_ELEMENTS", 1)
    blocked = run_rows(primal, "primal-dr", alphas, gammas, starts)
    assert np.isnan(whole.distances).any()
    assert whole.distances.flags.f_contiguous and blocked.distances.flags.f_contiguous
    np.testing.assert_array_equal(blocked.distances, whole.distances)
