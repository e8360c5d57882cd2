"""The engines against a closed form that shares no code with them, at any
dim, and their exact invariance under power-of-two rescaling.

On a two-band instance every coordinate scales by its band's factor at each
step, so from any start the squared distance after k steps is
``S_s c_s**(2k) + S_b c_b**(2k)``: ``S`` is the start's squared norm on a
band and ``c`` that band's factor. That is O(1) per step at any dim, so it
checks the column blocks, the worker runs and the multi-step passes of long
rows. ``check_closed_form`` is also run at dim 1e6 outside the test suite::

    python -c "import sys; sys.path.insert(0, 'tests'); import test_closed_form as t; \\
        print(t.check_closed_form('admm', *t.default_case('admm', 10**6), 30, 0.0))"
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitrate import splitting
from splitrate.functions import dual_function
from splitrate.rates import alpha_upper_bound, optimal_params
from splitrate.splitting import run_rows
from splitrate.worstcase import make_dual_instance, make_primal_instance

SIGMA, BETA, THETA, ZETA = 1.0, 10.0, 1.0, 3.0

#: the dim of the fixed check: 9 column blocks, the last of 3 columns
FIXED_DIM = 2**18 + 3


def _instance(mode, sigma, beta, theta, zeta, on_sigma):
    """The two-band instance ``mode`` runs on, with the crossed pairing on
    the dual side."""
    idx_sigma = np.flatnonzero(on_sigma)
    if mode == "primal-dr":
        return make_primal_instance(sigma, beta, on_sigma.size, idx_sigma)
    return make_dual_instance(sigma, beta, theta, zeta, on_sigma.size, idx_sigma, "crossed")


def band_curvatures(mode):
    """The curvature of the map ``mode`` iterates on the sigma band and on
    the beta band: sigma and beta, or the crossed dual curvatures
    ``zeta**2 / sigma`` and ``theta**2 / beta``."""
    return (SIGMA, BETA) if mode == "primal-dr" else (ZETA**2 / SIGMA, THETA**2 / BETA)


def default_case(mode, dim, seed=1):
    """``(on_sigma, alpha, gamma, start)`` of the fixed check: the first half
    of the coordinates as the sigma band, the bound-minimizing relaxation and
    step size of the mode's curvatures, and a seeded normal start."""
    alpha, gamma, _ = optimal_params(*sorted(band_curvatures(mode)))
    start = np.random.default_rng(seed).standard_normal(dim)
    return np.arange(dim) < dim // 2, alpha, gamma, start


def predict(mode, on_sigma, alpha, gamma, start, max_iter, tol):
    """The closed form: the distance to the origin after each of
    ``max_iter`` steps, and the step at which the run stops (by the 10x
    guard or by ``tol``; ``max_iter`` if it does not)."""
    w_s, w_b = band_curvatures(mode)
    c_s = 1.0 - alpha + alpha * (1.0 - gamma * w_s) / (1.0 + gamma * w_s)
    c_b = 1.0 - alpha + alpha * (1.0 - gamma * w_b) / (1.0 + gamma * w_b)
    s_s, s_b = math.fsum(start[on_sigma] ** 2), math.fsum(start[~on_sigma] ** 2)
    k = np.arange(max_iter + 1)
    # each band's squared norm after each step
    band_s, band_b = s_s * c_s ** (2 * k), s_b * c_b ** (2 * k)
    distances = np.sqrt(band_s + band_b)
    # step k + 1 moves each coordinate by (c - 1) times its value after step k
    step_norms = np.sqrt((c_s - 1.0) ** 2 * band_s[:-1] + (c_b - 1.0) ** 2 * band_b[:-1])
    stops = (distances[1:] > 10.0 * distances[0]) | (step_norms <= tol)
    return distances, int(np.argmax(stops)) + 1 if stops.any() else max_iter


def check_closed_form(mode, on_sigma, alpha, gamma, start, max_iter, tol):
    """Run ``mode`` from ``start`` through :func:`run_rows` and assert that
    it stops where the closed form does and that every distance it reports
    is within relative 1e-12 of it; returns ``(worst relative error,
    steps)``."""
    problem = _instance(mode, SIGMA, BETA, THETA, ZETA, on_sigma)
    runs = run_rows(problem, mode, [alpha], [gamma], lambda rows: start[None], max_iter=max_iter, tol=tol)
    predicted, steps = predict(mode, on_sigma, alpha, gamma, start, max_iter, tol)
    assert runs.steps[0] == steps
    error = np.max(np.abs(runs.distances[0, : steps + 1] - predicted[: steps + 1]) / predicted[: steps + 1])
    assert error <= 1e-12, error
    return float(error), steps


@pytest.mark.parametrize("mode", splitting.MODES)
def test_long_rows_follow_the_closed_form(monkeypatch, mode):
    # 9 column blocks in 2 runs, with a ragged last block, in the default
    # passes and in fixed passes of 4 steps (steps 2-5, 6-9, ...), in which
    # tol 0.1 stops each run at the second step of a pass: at step 15 in
    # primal DR, at step 43 on the dual side
    monkeypatch.setattr(splitting, "WORKERS", 2)
    case = default_case(mode, FIXED_DIM)
    assert check_closed_form(mode, *case, 30, 0.0)[1] == 30
    stops = [check_closed_form(mode, *case, 60, 0.1)[1]]
    monkeypatch.setattr(splitting, "PASS_STEPS", 4)
    monkeypatch.setattr(splitting, "_foreseen", lambda *args: math.inf)
    stops.append(check_closed_form(mode, *case, 60, 0.1)[1])
    assert stops[0] == stops[1] < 58 and (stops[1] - 2) % 4 == 1


def _sigma_band(draw, dim):
    """A random split of ``dim`` coordinates into two non-empty bands, as
    the mask of the sigma band."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.permutation(dim) < draw(st.integers(1, dim - 1))


@st.composite
def closed_form_cases(draw):
    """A mode, a dim with several tiny column blocks, a band split, a
    relaxation up to 1.5x its limit, a step size, a start, a budget and a
    tol; and the worker count and pass length to run them with, and
    whether passes end at foreseen stops or are cut by the budget alone."""
    mode = draw(st.sampled_from(splitting.MODES))
    dim = draw(st.integers(2, 120))
    on_sigma = _sigma_band(draw, dim)
    w_s, w_b = band_curvatures(mode)
    gamma = 10.0 ** draw(st.floats(-1.5, 1.5)) / math.sqrt(w_s * w_b)
    alpha = draw(st.floats(0.05, 1.5)) * alpha_upper_bound(gamma, min(w_s, w_b), max(w_s, w_b))
    start = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(dim)
    max_iter = draw(st.integers(0, 40))
    tol = draw(st.sampled_from([0.0, 1e-10, 1e-6, 1e-3, 1e-1]))
    workers, pass_steps, foresee = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3, 4, 32])), draw(st.booleans())
    return (mode, on_sigma, alpha, gamma, start, max_iter, tol), workers, pass_steps, foresee


@settings(deadline=None, max_examples=120)
@given(closed_form_cases())
def test_every_row_follows_the_closed_form(case):
    # 4-element chunks in blocks of 8 columns put dims up to 120 in up to 15
    # blocks, in as many runs as there are workers
    args, workers, pass_steps, foresee = case
    predicted, steps = predict(*args)
    # squares of distances this small are subnormal in the engine's norms
    assume(predicted[: steps + 1].min() > 1e-100)
    sizes = {"NORM_CHUNK": 4, "COLUMN_BLOCK": 8, "RUN_ELEMENTS": 1, "WORKERS": workers, "PASS_STEPS": pass_steps}
    with pytest.MonkeyPatch.context() as patch:
        for name, value in sizes.items():
            patch.setattr(splitting, name, value)
        if not foresee:
            patch.setattr(splitting, "_foreseen", lambda *args: math.inf)
        check_closed_form(*args)


def _drop_the_last_tail(monkeypatch):
    # a block narrower than the row that ends it loses its tail's dots
    chunk_dots = splitting._chunk_dots

    def dropped(block, start, dots, tails):
        width = block.shape[1]
        if tails is not None and width < FIXED_DIM:
            block = block[:, : width - width % splitting.NORM_CHUNK]
        chunk_dots(block, start, dots, tails)

    monkeypatch.setattr(splitting, "_chunk_dots", dropped)


def _repeat_a_pass_step(monkeypatch):
    # each block's first step of a pass of several steps runs twice
    run = splitting._ColumnBlocks.run

    def repeated(self, update, z, columns, steps=1):
        def twice(block, *rest):
            if np.shares_memory(block, z):
                block = update(block, *rest)[0].copy()
            return update(block, *rest)

        return run(self, twice if steps > 1 else update, z, columns, steps)

    monkeypatch.setattr(splitting._ColumnBlocks, "run", repeated)


@pytest.mark.parametrize("defect", [_drop_the_last_tail, _repeat_a_pass_step])
@pytest.mark.parametrize("mode", ["primal-dr", "admm"])
def test_the_closed_form_check_catches_a_planted_defect(monkeypatch, defect, mode):
    defect(monkeypatch)
    with pytest.raises(AssertionError):
        check_closed_form(mode, *default_case(mode, FIXED_DIM), 30, 0.0)


def test_the_closed_form_check_pins_the_divergence_guard(monkeypatch):
    # a relaxation 2% past its limit: the distance grows slowly, so it
    # passes 9x, 10x and 11x its start at three different steps, and a
    # guard at 9x or 11x stops the run at a step the closed form does not
    on_sigma, _, gamma, start = default_case("primal-dr", 64)
    alpha = 1.02 * alpha_upper_bound(gamma, SIGMA, BETA)
    case = ("primal-dr", on_sigma, alpha, gamma, start, 200, 0.0)
    distances, steps = predict(*case)
    crossings = [int(np.argmax(distances > factor * distances[0])) for factor in (9.0, 10.0, 11.0)]
    assert 0 < crossings[0] < crossings[1] == steps < crossings[2]
    for factor in (9.0, 10.0, 11.0):
        monkeypatch.setattr(splitting, "DIVERGENCE_FACTOR", factor)
        if factor == 10.0:
            assert check_closed_form(*case)[1] == steps
        else:
            with pytest.raises(AssertionError):
                check_closed_form(*case)


# -- power-of-two invariance ----------------------------------------------------


@st.composite
def scaled_batches(draw):
    """A two-band instance's levels and band split, a mode, a batch of rows
    (relaxations up to 1.9x their limit, so some rows diverge), a tol and a
    power of two."""
    dim = draw(st.integers(2, 39))
    on_sigma = _sigma_band(draw, dim)
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    beta = sigma * 10.0 ** draw(st.floats(0.0, 6.0))
    theta = 10.0 ** draw(st.floats(-1.0, 1.0))
    zeta = theta * 10.0 ** draw(st.floats(0.01, 1.0))
    levels = (sigma, beta, theta, zeta)
    mode = draw(st.sampled_from(splitting.MODES))
    problem = _instance(mode, *levels, on_sigma)
    curvatures = problem.f if mode == "primal-dr" else dual_function(problem)
    rows = draw(st.integers(1, 6))
    gammas = 10.0 ** np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=rows, max_size=rows)))
    gammas /= math.sqrt(curvatures.sigma * curvatures.beta)
    shares = np.array(draw(st.lists(st.floats(0.01, 1.9), min_size=rows, max_size=rows)))
    alphas = shares * alpha_upper_bound(gammas, curvatures.sigma, curvatures.beta)
    starts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, (rows, dim))
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-4, 1e-2]))
    t = draw(st.sampled_from([0.25, 2.0, 1024.0]))
    return mode, levels, on_sigma, alphas, gammas, starts, tol, t


@settings(deadline=None, max_examples=180)
@given(scaled_batches())
def test_power_of_two_rescaling_changes_no_bit(case):
    # the engines read gamma * sigma, gamma * beta and alpha only: primal DR
    # runs the same at (t sigma, t beta, gamma / t), dual DR at (t sigma,
    # t beta, t gamma), and ADMM there too from t times the starts, with t
    # times the distances and step norms
    mode, (sigma, beta, theta, zeta), on_sigma, alphas, gammas, starts, tol, t = case
    problem = _instance(mode, sigma, beta, theta, zeta, on_sigma)
    scaled = _instance(mode, t * sigma, t * beta, theta, zeta, on_sigma)
    scaled_gammas = gammas / t if mode == "primal-dr" else gammas * t
    scale = t if mode == "admm" else 1.0
    runs = run_rows(problem, mode, alphas, gammas, lambda rows: starts[rows], max_iter=40, tol=tol)
    scaled_runs = run_rows(
        scaled, mode, alphas, scaled_gammas, lambda rows: scale * starts[rows], max_iter=40, tol=scale * tol
    )
    assert np.array_equal(scaled_runs.steps, runs.steps)
    assert np.array_equal(scaled_runs.diverged, runs.diverged)
    assert scaled_runs.distances.tobytes() == (runs.distances * scale).tobytes()
