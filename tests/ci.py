"""The checks that CI runs after tier-1, one test per stage, each in fresh interpreters (:func:`_child`).
Pytest collects this file only when it is named: ``python -m pytest -q tests/ci.py --durations=0`` runs and
times every stage, ``-k <stage>`` one. A check made three ways (``WAYS``) runs on every usable core; in
development mode with every warning an error, where an unclosed pipe or a fork with threads running is
reported on stderr as an ignored exception, which sets no exit code, so any stderr fails; and on one core."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
WAYS = {"every-core": ((), False), "dev-mode": (("-X", "dev", "-W", "error"), False), "one-core": ((), True)}


def _child(*argv: str, one_cpu: bool = False) -> str:
    """Run ``python *argv`` in the checkout on its ``src``, pinned by the child itself to the first usable CPU
    if ``one_cpu``; assert that it exits 0 and, under ``-X dev``, writes nothing to stderr. Returns its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    pin = (lambda cpu={min(os.sched_getaffinity(0))}: os.sched_setaffinity(0, cpu)) if one_cpu else None
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, preexec_fn=pin, capture_output=True, text=True)
    print(proc.stdout + proc.stderr)
    assert proc.returncode == 0, f"exit {proc.returncode}"
    assert not ("dev" in argv and proc.stderr), "stderr in development mode"
    return proc.stdout


def test_scheduler_property_alone():
    """The long-row scheduler property in a run of its own: hypothesis mixes constants found in the loaded
    modules into its draws, so its derandomised draws in a run of one test differ from those of the suite."""
    _child("-m", "pytest", "-q", "tests/test_splitting.py", "-k", "test_run_rows_is_the_plain_loop_over_every_knob")


def test_line_counts(capsys):
    """Each module's and test file's lines, as ``wc -l`` counts them, and the number of public names, read
    with no import, so that no thread of numpy's runs in this process, which forks the pinned children."""
    init = ast.parse((ROOT / "src" / "splitrate" / "__init__.py").read_bytes())
    public = next(node.value.elts for node in init.body if isinstance(node, ast.Assign) and node.targets[0].id == "__all__")
    files = sorted(ROOT.glob("src/splitrate/*.py")) + sorted(ROOT.glob("tests/*.py"))
    lines = {p.relative_to(ROOT): p.read_bytes().count(b"\n") for p in files}
    with capsys.disabled():
        print("", *(f"{n:6} {p}" for p, n in lines.items()), f"{sum(lines.values()):6} total", sep="\n")
        print("public names:", len(public))


@pytest.mark.parametrize("flags, one_cpu", WAYS.values(), ids=WAYS)
def test_battery(flags, one_cpu):
    _child(*flags, "-m", "splitrate", "verify", one_cpu=one_cpu)


@pytest.mark.parametrize("workload", ["sweep", "large-dim"])
def test_benchmark_output_checks(workload):
    out = _child("perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "4", "--trace", "0")
    assert json.loads(out.splitlines()[-1])["correct"] is True


@pytest.mark.parametrize("flags, one_cpu", WAYS.values(), ids=WAYS)
def test_golden(flags, one_cpu):
    """Every pinned output, the dim-1e6 ones too, with every warning an error."""
    _child(*flags, "-W", "error", "tests/golden.py", one_cpu=one_cpu)


@pytest.mark.parametrize("one_cpu", [False, True], ids=["every-core", "one-core"])
@pytest.mark.parametrize("check", ["closed_form", "run_memory", "scheduler"])
def test_dim_1e6_checks(check, one_cpu):
    """A check of the test modules at dim 1e6, run in a child as ``python tests/ci.py <check>``."""
    _child(__file__, check, one_cpu=one_cpu)


def closed_form():  # every mode against the two-band closed form
    import test_closed_form as t
    for mode in t.splitting.MODES:
        print(mode, t.check_closed_form(mode, *t.default_case(mode, 10**6), 30, 0.0))


def run_memory():  # a run's peak and its engine's cap, one-row, in a batch, and in a batch of two long rows
    import test_run_memory as t
    for mode, batch in (("primal-dr", False), ("dual-dr", True), ("admm", False), ("admm", True)):
        print(mode, batch, t.check_run_memory(mode, 10**6, batch=batch))
    for mode in ("primal-dr", "admm"):
        print(mode, "rows=2", t.check_run_memory(mode, 2**17, rows=2))


def scheduler():  # run_rows, the one-row run, its iterates and ADMM's final x against the plain loop
    import test_splitting as t
    for mode in t.splitting.MODES:
        print(mode, t.check_scheduler(t.scheduler_case(mode, 10**6)).steps)


if __name__ == "__main__":
    globals()[sys.argv[1]]()
