"""One benchmark operation, run in a fresh interpreter by ``run.py``.

    python3 perfbench/ops.py {verify,sweep,large} --seed N --workdir DIR \
        [--seconds S] [--reps R] [--first {worst,random}] [--timed {0,1}] [--trace {0,1}]

``splitrate`` (with ``splitrate.acceptance``) is imported before anything is
timed. ``verify`` runs one battery, so that each battery pays the one-time
costs a user's ``splitrate verify`` pays. ``sweep`` and ``large`` run
``--reps`` repetitions, then more while the next one is expected to end within
``--seconds``. A ``sweep`` repetition is one round of the three modes; rounds
alternate between the worst and the seeded random start, beginning with
``--first``. A ``large`` repetition is one ``run_dr`` and one ``run_admm``.

``--timed 1`` is set by the timed runs. The battery and the sweeps then run
with the calibration kernel every 0.2 s (see ``hostspeed.py``) and their
samples are scaled to the reference host speed, and ``large`` runs one
untimed pair first, so that the timed ones find the allocator warm.

With ``--trace 1`` every public splitrate function is wrapped first (see
``tracer.py``) and the spans are written to the work directory.

The last line of stdout is one JSON object: timing samples (scaled, and
wall), attempted and failed output checks with the failure messages, output
digests, the timed wall time, and the process's peak resident memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import splitrate
import splitrate.acceptance  # noqa: F401  (pulls in scipy.optimize, as verify does)
from splitrate import cli, hilbert, rates, splitting, worstcase

import checks
import hostspeed
import tracer as tracing

MODES = {"primal-dr": "sweep_primal_s", "dual-dr": "sweep_dual_s", "admm": "sweep_admm_s"}

#: large-dim instance: dimension, steps per run, curvatures and coupling gains
LARGE_DIM = 10**6
LARGE_STEPS = 30
SIGMA, BETA, THETA, ZETA = 1.0, 10.0, 1.0, 3.0


class Repeats:
    """Counts repetitions from its creation: ``reps`` of them, then more
    while one more is expected (at the pace of the slowest so far) to end
    within ``seconds``."""

    def __init__(self, reps: int, seconds: float):
        self.reps = reps
        self.seconds = seconds
        self.started = self._last = time.perf_counter()
        self.slowest = 0.0

    def __iter__(self):
        done = 0
        while done < self.reps or self._last - self.started + self.slowest <= self.seconds:
            yield done
            now = time.perf_counter()
            self.slowest = max(self.slowest, now - self._last)
            self._last = now
            done += 1


def op_verify(args: argparse.Namespace, clock: hostspeed.WallClock) -> dict:
    """One full battery through ``cli.main(["verify"])``, timed after import."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify"])
    clock.record("verify_s", t0, time.perf_counter())
    lines = buf.getvalue().splitlines()
    return {
        "attempted": len(checks.CRITERIA),
        "failures": checks.check_battery(code, lines),
        "digests": {"verify": checks.battery_digest(lines)},
    }


def _load_reference() -> dict:
    path = Path(__file__).with_name("reference.json")
    return json.loads(path.read_text(encoding="utf-8"))["sweep_worst_sha256"]


def op_sweep(args: argparse.Namespace, clock: hostspeed.WallClock) -> dict:
    """Rounds of the default 20x20 sweep in each mode, through ``cli.main``
    with ``--out``, alternating between the worst start and the random start
    with the seed."""
    reference = _load_reference()
    failures: list[str] = []
    outputs: dict[str, bytes] = {}
    attempted = csv_bytes = 0
    starts = ("worst", "random") if args.first == "worst" else ("random", "worst")
    for rep in Repeats(args.reps, args.seconds):
        start = starts[rep % 2]
        for mode, key in MODES.items():
            path = args.workdir / f"sweep-{mode}-{start}.csv"
            flags = ["sweep", "--mode", mode, "--start", start, "--out", str(path)]
            if start == "random":
                flags += ["--seed", str(args.seed)]
            t0 = time.perf_counter()
            code = cli.main(flags)
            clock.record(key, t0, time.perf_counter())
            attempted += 1
            data = path.read_bytes()
            csv_bytes += len(data)
            found = [] if code == 0 else [f"exit code {code}"]
            found += checks.check_sweep_csv(data, reference[mode] if start == "worst" else None)
            if outputs.setdefault(f"{mode} {start}", data) != data:
                found.append("bytes differ from the first round with the same seed")
            failures += [f"sweep {mode} --start {start}: {msg}" for msg in found]
    return {
        "attempted": attempted,
        "failures": failures,
        "digests": {name: checks.digest(data) for name, data in outputs.items()},
        "csv_bytes": csv_bytes,
    }


def op_large(args: argparse.Namespace, clock: hostspeed.WallClock) -> dict:
    """``run_dr`` and ``run_admm`` at dim 1e6 from seeded random starts,
    ``LARGE_STEPS`` steps each with ``tol=0``; per-step wall time. With
    ``args.timed`` one untimed, unchecked pair runs before the timed ones."""
    idx_sigma = range(LARGE_DIM // 2)
    primal = worstcase.make_primal_instance(SIGMA, BETA, LARGE_DIM, idx_sigma)
    alpha, gamma, bound = rates.optimal_params(SIGMA, BETA)
    params = splitting.SplitParams(alpha, gamma)
    dual = worstcase.make_dual_instance(SIGMA, BETA, THETA, ZETA, LARGE_DIM, idx_sigma, pairing="crossed")
    d_alpha, d_gamma, d_bound = rates.dual_rate_constants(SIGMA, BETA, THETA, ZETA).optimal_dual_params()
    rng = np.random.default_rng(args.seed)
    z0 = hilbert.Vec(rng.uniform(-1.0, 1.0, LARGE_DIM))
    u0 = hilbert.Vec(rng.uniform(-1.0, 1.0, LARGE_DIM))

    runs = {
        "large_dr_step_ms": lambda: splitting.run_dr(primal, params, z0, max_iter=LARGE_STEPS, tol=0.0),
        "large_admm_step_ms": lambda: splitting.run_admm(
            dual, rho=d_gamma, alpha=d_alpha, u0=u0, max_iter=LARGE_STEPS, tol=0.0
        ),
    }
    bounds = {"large_dr_step_ms": bound, "large_admm_step_ms": d_bound}
    if args.timed:
        for run in runs.values():
            run()
    failures: list[str] = []
    outputs: dict[str, str] = {}
    attempted = 0
    for _ in Repeats(args.reps, args.seconds):
        for key, run in runs.items():
            t0 = time.perf_counter()
            trace = run()
            t1 = time.perf_counter()
            attempted += 1
            steps = trace.n_steps
            fit = splitting.fit_rate(trace)
            del trace
            clock.record(key, t0, t1, scale=1e3 / max(steps, 1))
            found = checks.check_fit(key, fit, bounds[key])
            if steps != LARGE_STEPS:
                found.append(f"{key}: took {steps} steps, expected {LARGE_STEPS}")
            failures += found
            outputs.setdefault(key, f"{steps}|{fit.hex()}")
    return {
        "attempted": attempted,
        "failures": failures,
        "digests": outputs,
        "dim": LARGE_DIM,
    }


OPS = {"verify": op_verify, "sweep": op_sweep, "large": op_large}

#: operations whose timings are scaled by the python calibration kernel. The
#: dim-1e6 runs are not: no kernel tried tracked their slowdowns (see
#: ``hostspeed.py``), so scaling them would add noise, not remove it.
CALIBRATED = ("verify", "sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("op", choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--first", choices=("worst", "random"), default="worst")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--timed", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)

    calibrate = args.timed and args.op in CALIBRATED
    clock = hostspeed.SpeedProbe() if calibrate else hostspeed.WallClock()
    tracer = tracing.Tracer().install() if args.trace else None
    t0 = time.perf_counter()
    try:
        with clock:
            result = OPS[args.op](args, clock)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    result["samples"], result["wall_samples"] = clock.results()
    result["calibration"] = clock.summary()
    result["op"] = args.op
    result["op_wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["splitrate_file"] = splitrate.__file__
    if tracer is not None:
        result["layers"] = tracing.summarize(tracer)
        criteria = tracer.results["acceptance.run_all"]
        result["criteria_s"] = {r.name: r.elapsed for batch in criteria for r in batch}
        tracer.write(args.workdir / f"spans-{args.op}.npz")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
