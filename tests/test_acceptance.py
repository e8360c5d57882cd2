"""End-to-end gate: every verification criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion. ``splitrate verify`` runs the same
battery from the command line.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import splitrate
from splitrate import acceptance, cli, splitting
from splitrate.functions import DiagQuadratic, dual_function
from splitrate.worstcase import PAIRINGS, default_dual_instance

#: each property sub-check also runs here on a stream of its own, apart from
#: the one stream the battery shares between them
PROPERTY_SEEDS = {
    "psi-monotonicity": 16,
    "psi-reciprocal": 17,
    "prox-oracle": 12,
    "coupling-operator": 7,
    "coefficient-norm": 2,
}


@pytest.mark.parametrize("name", acceptance.CRITERIA, ids=lambda name: name.replace("-", "_"))
def test_criterion(name):
    result = acceptance.run_criterion(name)
    print(result.line())
    assert result.passed, result.detail


def test_a_crashed_or_slow_criterion_fails(monkeypatch):
    def crash():
        raise RuntimeError("boom")

    monkeypatch.setitem(acceptance.CRITERIA, "crash", (crash, None))
    monkeypatch.setitem(acceptance.CRITERIA, "slow", (lambda: (True, "ran"), 0.0))
    crashed, slow = acceptance.run_criterion("crash"), acceptance.run_criterion("slow")
    assert not crashed.passed and crashed.detail == "raised RuntimeError('boom')"
    assert not slow.passed and "exceeded the 0s budget" in slow.detail


def test_contraction_bound_grid_detail_is_unchanged():
    passed, detail = acceptance._contraction_bound_grid()
    assert passed
    assert detail == "11200 runs over 224 feasible grid points, max(empirical - bound) = 1.110e-16 <= 1e-9"


def test_closed_form_evolution_detail_is_unchanged():
    passed, detail = acceptance._closed_form_evolution()
    assert passed
    assert detail == "25 parameter draws x 2 curvature bands x 30 steps, max coordinate error 9.992e-16 <= 1e-12"


def test_property_suites_detail_is_unchanged():
    passed, detail = acceptance._property_suites()
    assert passed
    assert detail == "all property suites passed (prox-oracle max error 3.038e-12)"


def test_conjugate_oracle_detail_is_unchanged():
    passed, detail = acceptance._conjugate_oracle_agreement()
    assert passed
    assert detail == "5 instances x 100 points, max |closed form - numeric conjugate| = 2.842e-14 <= 1e-8"


def test_rotated_basis_reference_detail_is_unchanged():
    passed, detail = acceptance._rotated_basis_reference()
    assert passed
    assert detail == (
        "176 dense runs at dims 8 and 24 x 2 rotations: worst |dense - bound| = 4.441e-16 <= 1e-10 at 40 "
        "Case I-III points, worst |dense - diagonal engine| = 4.441e-16 <= 1e-10 at all 44 feasible points "
        "(4 not classified)"
    )


@pytest.mark.parametrize("name", acceptance._PROPERTY_CHECKS)
def test_property_check(name):
    passed, note = acceptance._PROPERTY_CHECKS[name](np.random.default_rng(PROPERTY_SEEDS[name]))
    assert passed, note


def test_coefficient_norm_fails_on_a_scaled_norm(monkeypatch):
    norms = acceptance._norms
    monkeypatch.setattr(acceptance, "_norms", lambda z: norms(z) * (1.0 + 1e-9))
    passed, _ = acceptance._coefficient_norm(np.random.default_rng(PROPERTY_SEEDS["coefficient-norm"]))
    assert not passed


@pytest.mark.parametrize("name", ["psi-monotonicity", "psi-reciprocal"])
def test_psi_checks_fail_on_a_wrong_psi(monkeypatch, name):
    # psi of |x| rises on (-1, 0), where psi falls, and makes psi(y) for
    # y in (-1, 0) negative where x * y >= 1 is false
    psi = acceptance._psi
    monkeypatch.setattr(acceptance, "_psi", lambda x: psi(np.abs(x)))
    passed, _ = acceptance._PROPERTY_CHECKS[name](np.random.default_rng(PROPERTY_SEEDS[name]))
    assert not passed


def test_coupling_operator_fails_on_a_corrupted_gain(monkeypatch):
    instance = default_dual_instance("aligned")
    gains = instance.a.weights.copy()
    gains[-1] *= 1.0 + 1e-9
    object.__setattr__(instance.a, "weights", gains)
    monkeypatch.setattr(acceptance, "default_dual_instance", lambda pairing: instance)
    passed, _ = acceptance._coupling_operator(np.random.default_rng(PROPERTY_SEEDS["coupling-operator"]))
    assert not passed


def test_property_seeds_cover_the_property_checks():
    assert PROPERTY_SEEDS.keys() == acceptance._PROPERTY_CHECKS.keys()


@pytest.mark.parametrize(
    "module", ["", ".functions", ".hilbert", ".prox", ".rates", ".splitting", ".worstcase", ".acceptance", ".cli"]
)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(f"splitrate{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing


def test_battery_details_are_the_same_in_every_process():
    # the benchmark digests the battery's detail text in each of its
    # processes; a fresh interpreter on two BLAS threads must print the same
    # line for every criterion, and running the criteria in reverse table
    # order there shows that none leans on state an earlier one left
    code = "import splitrate.acceptance as a; print({n: c() for n, (c, _) in reversed(list(a.CRITERIA.items()))})"
    src = str(Path(splitrate.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    here = {name: check() for name, (check, _) in acceptance.CRITERIA.items()}
    assert all(passed for passed, _ in here.values())
    there = ast.literal_eval(proc.stdout)
    assert list(there) == list(reversed(here))
    assert there == here


#: ``run_all`` forks only on Linux, and these tests read ``/proc/self/fd``
linux_only = pytest.mark.skipif(sys.platform != "linux", reason="run_all forks only on Linux")


@pytest.fixture
def one_thread():
    """This process with its main thread alone, as ``run_all`` needs to fork:
    the long-row pool's threads, if an earlier test made them, are stopped,
    and the next long-row step makes a new pool."""
    if splitting._pool is not None:
        splitting._pool[2].shutdown(wait=True)
        splitting._pool = None
    assert threading.active_count() == 1, threading.enumerate()


#: three criteria that cost nothing, the middle one failing, and the lines
#: that ``verify_lines`` gives for them
STAND_INS = {
    "a": (lambda: (True, "ran"), None),
    "b": (lambda: (False, "planted"), None),
    "c": (lambda: (True, "ran"), None),
}
STAND_IN_LINES = ["[PASS] a: ran ", "[FAIL] b: planted ", "[PASS] c: ran "]


def verify_lines(capsys):
    """``splitrate verify``'s exit code and lines, with the timing text
    stripped."""
    code = cli.main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    return code, [re.sub(r"runtime [0-9.]+s|\([0-9.]+s\)$", "", line) for line in lines]


@linux_only
def test_verify_prints_the_one_worker_lines_on_every_worker(monkeypatch, capsys, one_thread):
    forks = []  # the pids forked in this process
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
    monkeypatch.setattr(splitting, "WORKERS", max(2, splitting.WORKERS))
    code, lines = verify_lines(capsys)
    assert code == 0
    assert len(forks) == min(splitting.WORKERS, len(acceptance.CRITERIA)) - 1
    assert [line.split(":")[0] for line in lines] == [f"[PASS] {name}" for name in acceptance.CRITERIA]
    forked = len(forks)
    monkeypatch.setattr(splitting, "WORKERS", 1)
    assert verify_lines(capsys) == (0, lines)
    assert len(forks) == forked


def test_a_failed_check_fails_its_line_in_its_place(monkeypatch, capsys, one_thread):
    monkeypatch.setattr(acceptance, "CRITERIA", STAND_INS)
    monkeypatch.setattr(splitting, "WORKERS", 2)
    assert verify_lines(capsys) == (1, STAND_IN_LINES)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@linux_only
def test_a_worker_that_exits_inside_a_check_is_reported(monkeypatch, capsys, one_thread):
    parent = os.getpid()

    def check():
        if os.getpid() != parent:
            os._exit(7)
        time.sleep(0.05)  # time for the child to take a criterion
        return True, "ran in the parent"

    monkeypatch.setattr(acceptance, "CRITERIA", {name: (check, None) for name in "abcd"})
    monkeypatch.setattr(splitting, "WORKERS", 2)
    fds = open_fds()
    code, lines = verify_lines(capsys)
    assert code == 1
    assert [line.split(" ")[1] for line in lines] == ["a:", "b:", "c:", "d:"]
    # the child dies on the first criterion it takes, and this process runs the rest
    failed = [line for line in lines if line.endswith(": not reported: a worker exited with status 7 ")]
    passed = [line for line in lines if line.endswith(": ran in the parent ")]
    assert len(failed) == 1 and len(passed) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


@linux_only
def test_an_interrupt_kills_and_reaps_the_workers(monkeypatch, one_thread):
    parent = os.getpid()

    def check():
        if os.getpid() != parent:
            time.sleep(30.0)
        time.sleep(0.05)  # time for the child to take a criterion
        raise KeyboardInterrupt

    monkeypatch.setattr(acceptance, "CRITERIA", {"a": (check, None), "b": (check, None)})
    monkeypatch.setattr(splitting, "WORKERS", 2)
    fds = open_fds()
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        acceptance.run_all(verbose=False)
    assert time.perf_counter() - start < 10.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


def test_with_another_thread_verify_forks_nothing(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("forked with another thread running")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(splitting, "WORKERS", 2)
    monkeypatch.setattr(acceptance, "CRITERIA", STAND_INS)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert verify_lines(capsys) == (1, STAND_IN_LINES)
    finally:
        stop.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()


@linux_only
def test_more_workers_than_cores_run_each_criterion_once(monkeypatch, one_thread):
    # each check writes its name to a pipe that every worker shares (a
    # write of a few bytes to a pipe is atomic): a criterion taken twice
    # would show up twice, and one taken by no worker not at all
    log, note = os.pipe()

    def check(name):
        os.write(note, f"{name}\n".encode())
        time.sleep(0.001)  # long enough that every worker takes some
        return True, name

    names = [f"c{i}" for i in range(60)]
    monkeypatch.setattr(acceptance, "CRITERIA", {name: (lambda name=name: check(name), None) for name in names})
    monkeypatch.setattr(splitting, "WORKERS", 8)
    results = acceptance.run_all(verbose=False)
    os.close(note)
    with os.fdopen(log, "rb") as ran:
        assert sorted(ran.read().decode().split()) == sorted(names)
    assert [(r.name, r.passed, r.detail) for r in results] == [(name, True, name) for name in names]


def test_a_perturbed_reflection_fails_the_reference_checks(monkeypatch):
    # the dense reference and the half-step prox check share no arithmetic
    # with the engine's reflection factor, so a relative error of 1e-6 in
    # gamma * w_i fails both
    reflection = splitting._reflection
    monkeypatch.setattr(splitting, "_reflection", lambda w, g, gamma: reflection(w * (1.0 + 1e-6), g, gamma))
    result = acceptance.run_criterion("rotated-basis-reference")
    assert not result.passed
    assert result.detail == (
        "dim 8, rotation 1: |dense - diagonal engine| = 1.249e-08 > 1e-10 at (alpha=1, gamma=0.00632456)"
    )
    passed, note = acceptance._PROPERTY_CHECKS["prox-oracle"](np.random.default_rng(PROPERTY_SEEDS["prox-oracle"]))
    assert not passed, note


def test_closed_form_evolution_fails_on_a_perturbed_reflection(monkeypatch):
    # the first iterate already moves off the closed form, in the first run
    reflection = splitting._reflection
    monkeypatch.setattr(splitting, "_reflection", lambda w, g, gamma: reflection(w * (1.0 + 1e-6), g, gamma))
    result = acceptance.run_criterion("closed-form-evolution")
    assert not result.passed
    assert result.detail == "iterate 1 off closed form by 2.779e-07 at (alpha=0.748376, gamma=0.326944, curvature=1)"


@pytest.mark.parametrize(
    "widen, detail",
    [
        (1.2, "diverged after 9 steps at (alpha=1.49398, gamma=0.337752, curvature=10)"),
        (2.0, "diverged after 10 steps at (alpha=1.48631, gamma=0.326944, curvature=10)"),
    ],
)
def test_closed_form_evolution_fails_on_a_diverging_run(monkeypatch, widen, detail):
    # relaxations drawn past the limit: the first run in draw order that
    # trips the 10x guard fails the criterion, with its draw and step count
    upper = acceptance.alpha_upper_bound
    monkeypatch.setattr(acceptance, "alpha_upper_bound", lambda gamma, sigma, beta: widen * upper(gamma, sigma, beta))
    result = acceptance.run_criterion("closed-form-evolution")
    assert not result.passed
    assert result.detail == detail


def test_battery_imports_no_scipy():
    # the battery, the conjugate oracle included, runs on numpy alone
    code = (
        "import sys, splitrate, splitrate.acceptance as a\n"
        "assert a.run_criterion('conjugate-oracle').passed\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    src = str(Path(splitrate.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("pairing", PAIRINGS)
def test_dual_admm_transfer_fails_when_a_dual_run_gives_nan(monkeypatch, pairing):
    # a diverged or unfittable run fits as NaN, which fails both comparisons
    # at the optimal dual parameters
    runs, gains = acceptance._worst_start_runs, default_dual_instance(pairing).a.weights

    def nan_for_pairing(problem, mode, *args, **kwargs):
        fits = runs(problem, mode, *args, **kwargs)
        if mode == "dual-dr" and np.array_equal(problem.a.weights, gains):
            return np.full(fits.shape, np.nan)
        return fits

    monkeypatch.setattr(acceptance, "_worst_start_runs", nan_for_pairing)
    result = acceptance.run_criterion("dual-admm-transfer")
    assert not result.passed
    missed = {"crossed": "missed the dual bound: gap nan", "aligned": "exceeded the dual bound: nan"}
    assert result.detail.startswith(f"{pairing} pairing {missed[pairing]}"), result.detail


def _scaled_weights(p):
    return DiagQuadratic(dual_function(p).weights * (1.0 + 1e-6))


def _unsquared_gain(p):
    return DiagQuadratic(p.a.weights / p.f.weights)


def _swapped_bands(p):
    w = dual_function(p).weights
    return DiagQuadratic(np.where(w == w.min(), w.max(), w.min()))


#: each wrong dual's error at the first draw that it fails, in draw order
WRONG_DUAL_ERRORS = {_scaled_weights: "5.727e-05", _unsquared_gain: "4.596e+01", _swapped_bands: "4.107e+01"}


@pytest.mark.parametrize("wrong_dual", WRONG_DUAL_ERRORS)
def test_conjugate_oracle_catches_a_wrong_dual(monkeypatch, wrong_dual):
    # the oracle never reads the closed form it checks, so a wrong one fails
    monkeypatch.setattr(acceptance, "dual_function", wrong_dual)
    result = acceptance.run_criterion("conjugate-oracle")
    assert not result.passed
    err = WRONG_DUAL_ERRORS[wrong_dual]
    assert result.detail == f"closed-form dual value off the numeric conjugate by {err} > 1e-8"


def test_conjugate_oracle_fails_on_a_nan_value(monkeypatch):
    # a NaN from the oracle is not agreement
    oracle = acceptance.conjugate_oracle
    monkeypatch.setattr(acceptance, "conjugate_oracle", lambda p, mu: np.where(mu[:, 0] > 2.9, np.nan, oracle(p, mu)))
    result = acceptance.run_criterion("conjugate-oracle")
    assert not result.passed
    assert result.detail == "closed-form dual value off the numeric conjugate by nan > 1e-8"
