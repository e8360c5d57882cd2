"""Memory of one-row runs, traced from call to return: a run holds its
engine's arrays and column blocks and no other row-sized array but ADMM's
recorded start, which goes before the first step, and its trace keeps no
row; reading ADMM's final x adds that row. ``check_one_row_memory`` is also
run at dim 1e6 outside the test suite::

    python -c "import sys; sys.path.insert(0, 'tests'); import test_run_memory as t; \\
        print(t.check_one_row_memory('admm', 10**6))"
"""

import tracemalloc

import numpy as np
import pytest

from splitrate import splitting
from splitrate.hilbert import Vec
from splitrate.splitting import SplitParams, run_admm, run_dr
from splitrate.worstcase import default_dual_instance, make_dual_instance, make_primal_instance

SIGMA, BETA, THETA, ZETA = 1.0, 10.0, 1.0, 3.0
ALPHA, GAMMA = 0.9, 0.5

#: a few small arrays: distances, ratios, chunk dots
SMALL = 1 << 16


def _case(mode, dim, seed=1):
    """The two-band instance ``mode`` runs on, with the first half of the
    coordinates as the sigma band (crossed gains on the dual side), and a
    seeded uniform start."""
    half = range(dim // 2)
    if mode == "admm":
        problem = make_dual_instance(SIGMA, BETA, THETA, ZETA, dim, half, pairing="crossed")
    else:
        problem = make_primal_instance(SIGMA, BETA, dim, half)
    return problem, Vec(np.random.default_rng(seed).uniform(-1.0, 1.0, dim))


def _run(mode, problem, start, steps):
    if mode == "admm":
        return run_admm(problem, rho=GAMMA, alpha=ALPHA, u0=start, max_iter=steps, tol=0.0)
    return run_dr(problem, SplitParams(ALPHA, GAMMA), start, max_iter=steps, tol=0.0)


def _traced(call):
    """``(result, held, peak)``: what ``call()`` returns, the bytes it left
    traced and the most it traced at once, each over what was traced
    before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


def _engine_bytes(mode, problem, start):
    """The bytes one build of the engine of a one-row run holds, column
    blocks included."""
    build = splitting._engine(problem, mode, GAMMA)
    return _traced(lambda: build(ALPHA, GAMMA, start.coeffs[None], rows_are_u=True))[1]


def check_one_row_memory(mode, dim, steps=30):
    """Run ``mode`` ("primal-dr" or "admm") on one row of ``dim`` elements
    and assert that, from call to return, the run peaks at no more than the
    arrays of its engine (column blocks included, as one build of it holds
    them) and, for ADMM, the row of its recorded start ``rho * u0``; returns
    ``(peak, bound)`` in rows of ``8 * dim`` bytes."""
    problem, start = _case(mode, dim)
    _run(mode, problem, start, steps)  # the first long-row run makes the worker pool
    engine_bytes = _engine_bytes(mode, problem, start)
    trace, _, peak = _traced(lambda: _run(mode, problem, start, steps))
    assert trace.n_steps == steps
    row = 8 * dim
    bound = engine_bytes + (row if mode == "admm" else 0) + SMALL
    assert peak <= bound, (peak / row, bound / row)
    return round(peak / row, 3), round(bound / row, 3)


@pytest.mark.parametrize("mode", ["primal-dr", "admm"])
def test_a_one_row_run_holds_only_its_engines_arrays(monkeypatch, mode):
    # rows of 1.6 MB in two runs of column blocks, each with its own blocks.
    # A run whose trace made a row of zeros for the fixed point, or an ADMM
    # run that kept its recorded start while it stepped, would peak a row
    # higher
    monkeypatch.setattr(splitting, "WORKERS", 2)
    monkeypatch.setattr(splitting, "RUN_ELEMENTS", splitting.COLUMN_BLOCK)
    check_one_row_memory(mode, 200_000)


@pytest.mark.parametrize("mode", ["primal-dr", "admm"])
def test_a_finished_trace_holds_no_row(monkeypatch, mode):
    # once a run returns, its trace holds no row: the fixed point is a view
    # of one zero, and the iterates, the first included, and ADMM's final x
    # are rebuilt when read. ADMM's first iterate is then the same rho * u0
    # product as the run normed
    monkeypatch.setattr(splitting, "WORKERS", 2)
    monkeypatch.setattr(splitting, "RUN_ELEMENTS", splitting.COLUMN_BLOCK)
    dim = 200_000
    problem, start = _case(mode, dim)
    _run(mode, problem, start, 30)
    trace, held, _ = _traced(lambda: _run(mode, problem, start, 30))
    assert trace.n_steps == 30
    assert held <= SMALL, held / (8 * dim)
    assert trace.fixed_point.coeffs.tobytes() == bytes(8 * dim)
    first = trace.iterates[0].coeffs
    assert first.tobytes() == (GAMMA * start.coeffs if mode == "admm" else start.coeffs).tobytes()
    assert trace.distances[0] == splitting._norms(first[None])[0]


def test_reading_the_final_x_holds_one_row(monkeypatch):
    # the replay of final_x keeps only the state that the next step reads:
    # it peaks at one build of the engine and the x it returns, and leaves
    # that x alone behind; it records no iterate
    monkeypatch.setattr(splitting, "WORKERS", 2)
    monkeypatch.setattr(splitting, "RUN_ELEMENTS", splitting.COLUMN_BLOCK)
    dim = 200_000
    problem, start = _case("admm", dim)
    trace = _run("admm", problem, start, 30)
    engine_bytes = _engine_bytes("admm", problem, start)
    x, held, peak = _traced(lambda: trace.final_x)
    assert trace.final_x is x and x.dim == dim
    row = 8 * dim
    assert row <= held <= row + SMALL, held / row
    assert peak <= engine_bytes + row + SMALL, (peak / row, engine_bytes / row)


def test_an_admm_block_drops_its_start_rows_once_its_engine_is_built(monkeypatch):
    # starts drawn fresh, as the command line's are: the engine steps its own
    # u = start / rho, so the start row goes once the engine is built, and
    # the run peaks at its engine's arrays, its u and one more row (the
    # start while the engine is built, then the recorded start). A block
    # that kept its start rows peaked a row higher
    monkeypatch.setattr(splitting, "WORKERS", 2)
    monkeypatch.setattr(splitting, "RUN_ELEMENTS", splitting.COLUMN_BLOCK)
    dim = 200_000
    problem, start = _case("admm", dim)
    fresh = lambda rows: start.coeffs[None].copy()
    run = lambda: splitting.run_rows(problem, "admm", [ALPHA], [GAMMA], fresh, max_iter=30, tol=0.0)
    run()  # the first long-row run makes the worker pool
    engine_bytes = _engine_bytes("admm", problem, start)
    runs, _, peak = _traced(run)
    assert runs.steps.tolist() == [30]
    row = 8 * dim
    assert peak <= engine_bytes + 2 * row + SMALL, (peak / row, engine_bytes / row)


def test_an_overflowing_recorded_start_raises_before_any_step(monkeypatch):
    # rho * u0 overflows in one coordinate: the run raises ValueError before
    # its first step; a start whose norm alone overflows runs
    def stepped(*args):
        raise AssertionError("a step ran")

    problem = default_dual_instance("crossed")
    u0 = np.ones(8)
    u0[3] = 1e10
    monkeypatch.setattr(splitting, "_iterate", stepped)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
        run_admm(problem, rho=1e300, alpha=1.0, u0=Vec(u0))
    monkeypatch.undo()
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run_admm(problem, rho=1.0, alpha=0.5, u0=Vec(np.full(8, 1e200)), max_iter=5, tol=0.0)
    assert trace.n_steps == 5 and np.isinf(trace.distances).all()
