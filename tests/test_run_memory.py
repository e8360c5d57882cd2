"""Memory of runs of long rows, traced from call to return: a run holds its
engine's arrays, one column block of its recorded start at a time and no
other row-sized array (ADMM's recorded start ``rho * u0`` is normed a
column block at a time, and a ``u`` that the engine makes from its start is
written into its first state buffer), and its trace keeps no row; reading
ADMM's final x adds that row. An engine of long rows holds its pair of
state buffers and its column blocks, and no parameter row: DR's reflection
factor and ADMM's scale and denominator are formed a column block at a
time. A worst-start sweep makes no start row at any dim.
``check_run_memory`` is also run at dim 1e6 outside the test suite::

    python -c "import sys; sys.path.insert(0, 'tests'); import test_run_memory as t; \\
        print(t.check_run_memory('admm', 10**6))"
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from splitrate import cli, splitting
from splitrate.hilbert import Vec
from splitrate.rates import optimal_params
from splitrate.splitting import RowRuns, SplitParams, run_admm, run_dr, run_rows
from splitrate.worstcase import default_dual_instance, make_dual_instance, make_primal_instance

SIGMA, BETA, THETA, ZETA = 1.0, 10.0, 1.0, 3.0
ALPHA, GAMMA = 0.9, 0.5

#: a few small arrays: distances, ratios, chunk dots
SMALL = 1 << 16

#: the column blocks of each mode's engine of long rows, each as wide as
#: the state's rows: the spare block, the update's temporaries and the
#: blocks its parameters are formed in (DR: the reflection factor; ADMM: the
#: scale and the denominator)
BLOCKS = {"primal-dr": 1 + 1 + 1, "dual-dr": 1 + 1 + 1, "admm": 1 + 2 + 2}


def _case(mode, dim, seed=1, rows=None):
    """The two-band instance ``mode`` runs on, with the first half of the
    coordinates as the sigma band (crossed gains on the dual side), and a
    seeded uniform start, or ``rows`` of them as a ``(rows, dim)`` array."""
    half = range(dim // 2)
    if mode == "primal-dr":
        problem = make_primal_instance(SIGMA, BETA, dim, half)
    else:
        problem = make_dual_instance(SIGMA, BETA, THETA, ZETA, dim, half, pairing="crossed")
    starts = np.random.default_rng(seed).uniform(-1.0, 1.0, (rows or 1, dim))
    return problem, (Vec(starts[0]) if rows is None else starts)


def _run(mode, problem, start, steps, batch=False):
    """One run of ``mode`` from ``start``: through ``run_dr`` or ``run_admm``,
    or, with ``batch`` and for dual DR, which has no one-row API, as a
    one-row batch of ``run_rows`` whose start row is ``start`` itself, as
    the command line runs it (ADMM's engine then makes its own ``u``). A
    ``(rows, dim)`` array ``start`` runs as a batch of those rows."""
    if isinstance(start, np.ndarray):
        count = len(start)
        return run_rows(problem, mode, [ALPHA] * count, [GAMMA] * count, lambda rows: start[rows], steps, 0.0)
    if batch or mode == "dual-dr":
        starts = lambda rows: start.coeffs[None]
        return run_rows(problem, mode, [ALPHA], [GAMMA], starts, max_iter=steps, tol=0.0)
    if mode == "admm":
        return run_admm(problem, rho=GAMMA, alpha=ALPHA, u0=start, max_iter=steps, tol=0.0)
    return run_dr(problem, SplitParams(ALPHA, GAMMA), start, max_iter=steps, tol=0.0)


def _steps(result) -> int:
    """The fewest steps a row of a run of :func:`_run` took."""
    return int(result.steps.min()) if isinstance(result, RowRuns) else result.n_steps


def _traced(call):
    """``(result, held, peak)``: what ``call()`` returns, the bytes it left
    traced and the most it traced at once, each over what was traced
    before the call. The shared mappings of long rows' state buffers and
    step dots (see ``splitting._shared``), which tracemalloc does not see,
    count as traced while they are live: the peak is taken over each
    stretch between the mappings' creations and releases, where their
    bytes do not change."""
    peaks = []

    def cut(change):
        def counted(*args):
            peaks.append(tracemalloc.get_traced_memory()[1] + splitting._mapped)
            tracemalloc.reset_peak()
            return change(*args)

        return counted

    tracemalloc.start()
    try:
        with mock.patch.multiple(splitting, _shared=cut(splitting._shared), _release=cut(splitting._release)):
            before = tracemalloc.get_traced_memory()[0] + splitting._mapped
            result = call()
            held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    mapped = splitting._mapped
    return result, held + mapped - before, max([peak + mapped, *peaks]) - before


def _engine_bytes(mode, problem, start):
    """The bytes one build of the engine of a run from ``start`` (see
    :func:`_run`) holds, column blocks and its builder's arrays (dual DR's
    curvatures) included."""
    rows = start if isinstance(start, np.ndarray) else start.coeffs[None]

    def build():
        builder = splitting._engine(problem, mode, GAMMA)
        return builder, builder(ALPHA, GAMMA, rows, rows_are_u=True)

    return _traced(build)[1]


def _engine_cap(mode, rows, dim):
    """The most one build of an engine of ``rows`` rows of ``dim`` elements,
    longer than ``COLUMN_BLOCK``, may hold, whatever ``dim``: its pair of
    state buffers, its column blocks (see ``BLOCKS``; each in a span a page
    longer, see ``splitting._staggered``), its step dots (one float per
    ``NORM_CHUNK`` elements of a row, for each step of a walk), dual DR's
    curvature row and ``SMALL``. An engine that held a parameter row would
    exceed it by that row."""
    blocks = BLOCKS[mode] * (8 * rows * splitting.COLUMN_BLOCK + 4096)
    dots = 8 * 2 * splitting.PASS_STEPS * rows * (dim // splitting.NORM_CHUNK + 1)
    curvatures = 8 * dim if mode == "dual-dr" else 0
    return 2 * 8 * rows * dim + blocks + dots + curvatures + SMALL


def check_run_memory(mode, dim, steps=30, batch=False, rows=None):
    """Run ``mode`` on one row of ``dim`` elements, or on a batch of ``rows``
    of them (see :func:`_run`), and assert that, from call to return, the
    run peaks at no more than the arrays of its engine (column blocks and
    its builder's arrays included, as one build of it holds them) and one
    column block of its recorded start, and that its engine holds no more
    than :func:`_engine_cap`; returns ``(peak, bound, cap)`` in rows of ``8
    * dim`` bytes."""
    problem, start = _case(mode, dim, rows=rows)
    _run(mode, problem, start, steps, batch)  # as every later run, the measured one finds a spare mapping
    engine_bytes = _engine_bytes(mode, problem, start)
    result, _, peak = _traced(lambda: _run(mode, problem, start, steps, batch))
    assert _steps(result) == steps
    row, count = 8 * dim, rows or 1
    bound = engine_bytes + 8 * count * splitting.COLUMN_BLOCK + SMALL
    cap = _engine_cap(mode, count, dim)
    assert peak <= bound, (peak / row, bound / row)
    assert engine_bytes <= cap, (engine_bytes / row, cap / row)
    return round(peak / row, 3), round(bound / row, 3), round(cap / row, 3)


@pytest.mark.parametrize(
    "mode, batch",
    [("primal-dr", False), ("primal-dr", True), ("dual-dr", True), ("admm", False), ("admm", True)],
    ids=["primal-dr", "primal-dr-run_rows", "dual-dr", "admm", "admm-run_rows"],
)
def test_a_one_row_run_holds_only_its_engines_arrays(monkeypatch, mode, batch):
    # rows of 1.6 MB in two runs of column blocks, each with its own blocks.
    # A run whose trace made a row of zeros for the fixed point, an ADMM run
    # that made its recorded start rho * u0 as a row to norm it, or an ADMM
    # batch whose engine made its u = start / rho as a row of its own (not
    # in its first state buffer) would peak a row higher
    monkeypatch.setattr(splitting, "WORKERS", 2)
    monkeypatch.setattr(splitting, "RUN_ELEMENTS", splitting.COLUMN_BLOCK)
    check_run_memory(mode, 200_000, batch=batch)


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
    # starts drawn fresh, as the command line's are: the engine writes its
    # own u = start / rho into its first state buffer, so the start row goes
    # once the engine is built, and the run peaks at its engine's arrays and
    # the start row while the engine is built. A block that kept its start
    # rows, or an engine that made u as a row of its own, peaked a row higher
    monkeypatch.setattr(splitting, "WORKERS", 2)
    monkeypatch.setattr(splitting, "RUN_ELEMENTS", splitting.COLUMN_BLOCK)
    dim = 200_000
    problem, start = _case("admm", dim)
    fresh = lambda rows: start.coeffs[None].copy()
    run = lambda: run_rows(problem, "admm", [ALPHA], [GAMMA], fresh, max_iter=30, tol=0.0)
    run()  # as every later run, the measured one finds a spare mapping
    engine_bytes = _engine_bytes("admm", problem, start)
    runs, _, peak = _traced(run)
    assert runs.steps.tolist() == [30]
    row = 8 * dim
    assert peak <= engine_bytes + row + 8 * splitting.COLUMN_BLOCK + SMALL, (peak / row, engine_bytes / row)


@pytest.mark.parametrize("mode, alphas, gamma", [("primal-dr", [0.6, ALPHA, 1.0, 1.1], GAMMA), ("admm", [ALPHA, 1.0], 1.0)])
def test_a_run_with_no_step_limit_holds_only_the_steps_it_takes(mode, alphas, gamma):
    # max_iter has no upper bound: a run whose rows stop within 100 steps
    # returns then, and holds each step's distances and nothing made at the
    # length of max_iter (one float a step would be 8 GB)
    problem, start = _case(mode, 8)
    starts = lambda rows: np.tile(start.coeffs, (len(alphas), 1))
    run = lambda: run_rows(problem, mode, alphas, [gamma] * len(alphas), starts, max_iter=10**9, tol=1e-6)
    runs, _, peak = _traced(run)
    steps = runs.steps.max()
    assert runs.converged.all() and 0 < steps < 100
    assert runs.distances.shape == (len(alphas), steps + 1)
    # per step: one (rows,) distance array, its list entry and the step's
    # temporaries, a few hundred bytes
    assert peak <= 4096 + 1024 * steps, peak


def _long_engines(dim, rows):
    """Engines of every mode, each from ``rows`` seeded start rows of
    ``dim`` elements whose magnitudes span many binades, at a relaxation and
    a step size per row; ADMM makes its own ``u`` from them."""
    rng = np.random.default_rng(dim + rows)
    starts = rng.uniform(-1.0, 1.0, (rows, dim)) * np.exp2(rng.integers(-60, 60, (rows, dim)))
    alphas, gammas = np.linspace(0.3, 1.4, rows)[:, None], np.geomspace(0.05, 3.0, rows)[:, None]
    problem, _ = _case("admm", dim)
    yield splitting._engine(make_primal_instance(SIGMA, BETA, dim, range(dim // 3)), "primal-dr", 3.0)(
        alphas, gammas, starts
    )
    for mode in ("dual-dr", "admm"):
        yield splitting._engine(problem, mode, 3.0)(alphas, gammas, starts)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize(
    "chunks, tail", [(1, -1), (1, 1), (2, 3), (3, 0), (17, 5)], ids=["N-1", "N+1", "2N+3", "3N", "17N+5"]
)
def test_start_norms_by_column_block_are_the_norms_of_the_whole_record(monkeypatch, rows, chunks, tail):
    # one chunk per column block, so the record is normed over several
    # blocks, the last with or without a tail of its own: the chunk dots
    # are summed as _norms sums them, so every bit is the same. Past 8
    # chunks numpy's sum is pairwise, not a running sum over the blocks
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    dim = chunks * splitting.NORM_CHUNK + tail
    for engine in _long_engines(dim, rows):
        whole = splitting._norms(engine.record(engine.state))
        assert splitting._start_norms(engine, 0).tobytes() == whole.tobytes()


def test_a_long_recorded_start_that_is_not_finite_is_reported_by_its_row(monkeypatch):
    # the lowest row that holds a NaN or an infinity is named, even where a
    # higher row's lies in an earlier column block; a finite row whose
    # squares overflow is no error
    monkeypatch.setattr(splitting, "COLUMN_BLOCK", splitting.NORM_CHUNK)
    dim = 3 * splitting.NORM_CHUNK + 5
    problem, _ = _case("primal-dr", dim)
    build = splitting._engine(problem, "primal-dr", GAMMA)
    rows = np.ones((4, dim))
    rows[0, 7] = 1e200
    rows[1, dim - 1] = np.nan
    rows[3, splitting.NORM_CHUNK + 1] = np.inf
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="row 6 is not"):
            splitting._start_norms(build(ALPHA, GAMMA, rows), 5)
        rows[1, dim - 1] = 1.0
        with pytest.raises(ValueError, match="row 3 is not"):
            splitting._start_norms(build(ALPHA, GAMMA, rows), 0)
        rows[3, splitting.NORM_CHUNK + 1] = -1e300
        norms = splitting._start_norms(build(ALPHA, GAMMA, rows), 0)
    assert np.isinf(norms[[0, 3]]).all() and np.isfinite(norms[1:3]).all()


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


def _worst_sweep(mode, dim):
    """The default worst-start sweep of ``mode`` at ``dim``, as ``splitrate
    sweep --K dim`` runs it: its config, with the default grids, and its
    instance, built beforehand."""
    cfg = cli.SweepConfig(dim=dim, mode=mode, start="worst")
    instance = cli._instance(cfg)
    _, gamma_star, _ = optimal_params(*instance[1:3])
    cfg.alpha_grid = cli.parse_grid("linear:0.1:1.9:20")
    cfg.gamma_grid = cli.parse_grid(f"log:{gamma_star / 20!r}:{gamma_star * 20!r}:20")
    return cfg, instance


@pytest.mark.parametrize("mode", splitting.MODES)
def test_a_worst_sweep_at_dim_1e6_makes_no_start_row(monkeypatch, mode):
    # worst starts reach the engine as coordinates: the 400 points run as
    # one block of one-column rows, and the sweep peaks as it does at dim 8.
    # The dual modes also make the dual curvatures, one row, to pick the
    # worst starts. A sweep that made full start rows would peak a row
    # higher in every mode, and run as 400 one-row blocks
    blocks = []
    iterate = splitting._iterate

    def counted(*args):
        blocks.append(1)
        return iterate(*args)

    monkeypatch.setattr(splitting, "_iterate", counted)
    peaks = {}
    for dim in (8, 10**6):
        cfg, instance = _worst_sweep(mode, dim)
        cli._sweep(cfg, instance)
        blocks.clear()
        (_, runs), _, peaks[dim] = _traced(lambda: cli._sweep(cfg, instance))
        assert len(blocks) == 1 and runs.steps.size == 400
    dual = 0 if mode == "primal-dr" else 8 * 10**6
    assert peaks[10**6] <= peaks[8] + (1 << 20) + dual, peaks
