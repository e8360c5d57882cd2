"""Tests of the benchmark itself: self-time arithmetic, the failure counter,
and that tracing leaves outputs unchanged.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import hashlib
import time

import numpy as np
import pytest

import checks
import hostspeed
import ops
import tracer as tracing

import splitrate
from splitrate import acceptance, cli, functions, splitting


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 100] has children a [10, 40], b [30, 60] (overlapping a) and
    # c [90, 120] (running past its parent); a has a1 [15, 20]; r2 is a
    # second root with no children
    spans = {
        "root": (-1, 0, 100),
        "a": (0, 10, 40),
        "b": (0, 30, 60),
        "c": (0, 90, 120),
        "a1": (1, 15, 20),
        "r2": (-1, 200, 210),
    }
    parent, start, end = (np.array(col) for col in zip(*spans.values()))
    own = dict(zip(spans, tracing.self_times(parent, start, end)))
    # root: 100 minus the union [10, 60] + [90, 100] = 100 - 60
    assert own == {"root": 40.0, "a": 25.0, "b": 30.0, "c": 30.0, "a1": 5.0, "r2": 10.0}


def test_self_times_of_nested_disjoint_children_sum_to_the_root():
    parent = np.array([-1, 0, 0, 1, 1, 2])
    start = np.array([0, 5, 50, 6, 20, 60])
    end = np.array([100, 40, 90, 10, 30, 61])
    own = tracing.self_times(parent, start, end)
    assert own.sum() == 100.0
    assert list(own) == [25.0, 21.0, 39.0, 4.0, 10.0, 1.0]


def _small_sweep_csv(tmp_path, mode="primal-dr", start="worst") -> bytes:
    path = tmp_path / f"{mode}-{start}.csv"
    flags = ["sweep", "--mode", mode, "--start", start, "--seed", "3"]
    flags += ["--alpha", "linear:0.1:1.9:6", "--gamma", "log:0.05:3:5", "--out", str(path)]
    assert cli.main(flags) == 0
    return path.read_bytes()


def test_failure_counter_catches_a_corrupted_csv(tmp_path):
    data = _small_sweep_csv(tmp_path)
    reference = hashlib.sha256(data).hexdigest()
    assert checks.check_sweep_csv(data, reference) == []

    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 1
    assert checks.check_sweep_csv(bytes(flipped), reference)

    header, first, *rest = data.decode().splitlines()
    cells = first.split(",")
    cells[3] = repr(float(cells[2]) + 1e-6)  # empirical above theoretical
    cells[5], cells[6] = "1e-08", "tight"  # a tight row whose gap is too wide
    corrupted = "\n".join([header, ",".join(cells), *rest]).encode()
    failures = checks.check_sweep_csv(corrupted)
    assert any("above theoretical" in msg for msg in failures)
    assert any("tight row" in msg for msg in failures)


def test_random_start_csv_passes_the_row_invariants(tmp_path):
    assert checks.check_sweep_csv(_small_sweep_csv(tmp_path, "dual-dr", "random")) == []


def test_failure_counter_catches_a_fitted_rate_off_by_more_than_1e_10():
    bound = 0.5195289597641074
    assert checks.check_fit("dr", bound + 5e-11, bound) == []
    assert len(checks.check_fit("dr", bound + 2e-10, bound)) == 1
    assert len(checks.check_fit("dr", float("nan"), bound)) == 1


def test_battery_check_counts_criteria_one_by_one():
    lines = [f"[PASS] {name}: ok (0.01s)" for name in checks.CRITERIA]
    assert checks.check_battery(0, lines) == []
    failed = lines[:2] + ["[FAIL] contraction-bound-grid: bad (1.00s)"] + lines[4:]
    assert len(checks.check_battery(1, failed)) == 2  # one FAIL, one missing
    assert len(checks.check_battery(1, lines)) == len(checks.CRITERIA)


def test_battery_digest_ignores_timing_text():
    fast = ["[PASS] optimal-rate-exactness: gap 1e-16; runtime 0.01s < 1s (0.01s)"]
    slow = ["[PASS] optimal-rate-exactness: gap 1e-16; runtime 0.73s < 1s (0.73s)"]
    assert checks.battery_digest(fast) == checks.battery_digest(slow)


def test_tracer_wraps_every_binding_and_restores_it():
    original = functions.dual_function
    with tracing.Tracer() as t:
        assert splitting.dual_function is functions.dual_function is cli.dual_function
        assert functions.dual_function is not original
        assert splitrate.dual_function is functions.dual_function
    assert functions.dual_function is original
    assert splitting.dual_function is original
    assert cli.dual_function is original
    assert "hilbert.Vec" in t.names


def test_traced_run_produces_the_same_output_digests(tmp_path, monkeypatch):
    monkeypatch.setattr(ops, "LARGE_DIM", 2000)

    def outputs(label):
        out = tmp_path / label
        out.mkdir()
        args = argparse.Namespace(seed=5, seconds=0.0, reps=1, timed=0, workdir=out)
        large = ops.op_large(args, hostspeed.WallClock())
        assert large["failures"] == []
        csvs = [_small_sweep_csv(out, mode, start) for mode in ops.MODES for start in ("worst", "random")]
        battery = [acceptance.check_dual_admm_transfer(), acceptance.check_optimal_rate_exactness()]
        assert all(r.passed for r in battery)
        return large["digests"], checks.digest(*csvs), checks.battery_digest([r.line() for r in battery])

    plain = outputs("plain")
    with tracing.Tracer() as t:
        traced = outputs("traced")
    assert traced == plain
    summary = tracing.summarize(t)
    assert summary["calls"]["hilbert.Vec"] > 0
    assert summary["engines"]["splitting.run_admm"]["runs"] >= 1
    assert summary["engines"]["splitting.run_dr"]["trace_bytes"] >= (ops.LARGE_STEPS + 1) * 2000 * 8


@pytest.mark.parametrize("values, expected", [([1.0] * 9, None), (list(range(20)), (50.0, 9))])
def test_tail_percentile_needs_ten_samples_beyond_it(values, expected):
    import run

    assert run.tail_percentile(values) == expected



def test_scaled_time_weighs_each_stretch_by_its_neighbouring_kernels():
    probe = hostspeed.SpeedProbe()
    # kernels at 0, 1 and 2 s, taking the reference time, twice it, and it
    probe.starts = [0.0, 1.0, 2.0]
    ref = hostspeed.REFERENCE_S
    probe.kernel_s = [ref, 2 * ref, ref]
    probe.ends = [t + k for t, k in zip(probe.starts, probe.kernel_s)]
    # [0.5, 1.0] next to kernels of ref and 2 ref; [1 + 2 ref, 1.5] next to
    # kernels of 2 ref and ref: both stretches count two thirds
    expected = (0.5 + (0.5 - 2 * ref)) * 2.0 / 3.0
    assert probe.scaled(0.5, 1.5) == pytest.approx(expected)
    assert probe.scaled(0.25, 0.75) == pytest.approx(0.5 * 2.0 / 3.0)
    with pytest.raises(ValueError):
        probe.scaled(1.5, 2.5)


def test_speed_probe_runs_kernels_during_the_work_and_leaves_out_their_time():
    with hostspeed.SpeedProbe(interval=0.01) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        probe.record("busy", t0, time.perf_counter())
    scaled, wall = probe.results()
    assert len(probe.kernel_s) >= 3
    assert wall["busy"][0] >= 0.1
    assert probe.summary()["kernel_runs"] == len(probe.kernel_s)
    assert scaled["busy"][0] > 0.0


def test_cross_process_checks_catch_a_differing_output():
    import run

    a = {"op": "sweep", "digests": {"admm worst": "x", "admm random": "y"}}
    b = {"op": "sweep", "digests": {"admm worst": "x", "admm random": "z"}}
    c = {"op": "large", "digests": {"admm worst": "q"}}
    assert run.cross_process_checks([a, a, c]) == (2, [])
    attempted, failures = run.cross_process_checks([a, b, c])
    assert attempted == 2 and len(failures) == 1 and "admm random" in failures[0]
