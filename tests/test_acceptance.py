"""End-to-end gate: every verification criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion. ``splitrate verify`` runs the same
battery from the command line.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import splitrate
from splitrate import acceptance, splitting
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


@pytest.mark.parametrize("name", acceptance._PROPERTY_CHECKS)
def test_property_check(name):
    passed, note = acceptance._PROPERTY_CHECKS[name](np.random.default_rng(PROPERTY_SEEDS[name]))
    assert passed, note


def test_coefficient_norm_fails_on_a_scaled_norm(monkeypatch):
    norms = acceptance._norms
    monkeypatch.setattr(acceptance, "_norms", lambda z: norms(z) * (1.0 + 1e-9))
    passed, _ = acceptance._coefficient_norm(np.random.default_rng(PROPERTY_SEEDS["coefficient-norm"]))
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


def test_rotated_basis_reference_detail_is_the_same_in_every_process():
    # the benchmark digests the battery's detail text in each of its
    # processes; a fresh interpreter on two BLAS threads must print the same
    code = "import splitrate.acceptance as a; print(a._rotated_basis_reference())"
    src = str(Path(splitrate.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    here = acceptance._rotated_basis_reference()
    assert here[0]
    assert proc.stdout.strip() == repr(here)


def test_a_perturbed_reflection_fails_the_reference_checks(monkeypatch):
    # the dense reference and the half-step prox check share no arithmetic
    # with the engine's reflection factor, so a relative error of 1e-6 in
    # gamma * w_i fails both
    reflection = splitting._reflection
    monkeypatch.setattr(splitting, "_reflection", lambda w, g, gamma: reflection(w * (1.0 + 1e-6), g, gamma))
    result = acceptance.run_criterion("rotated-basis-reference")
    assert not result.passed
    assert "|dense - diagonal engine|" in result.detail
    passed, note = acceptance._PROPERTY_CHECKS["prox-oracle"](np.random.default_rng(PROPERTY_SEEDS["prox-oracle"]))
    assert not passed, note


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


@pytest.mark.parametrize("wrong_dual", [_scaled_weights, _unsquared_gain, _swapped_bands])
def test_conjugate_oracle_catches_a_wrong_dual(monkeypatch, wrong_dual):
    # the oracle never reads the closed form it checks, so a wrong one fails
    monkeypatch.setattr(acceptance, "dual_function", wrong_dual)
    result = acceptance.run_criterion("conjugate-oracle")
    assert not result.passed
    assert "off the numeric conjugate" in result.detail
