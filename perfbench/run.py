"""splitrate benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload {sweep,large-dim} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it uses that checkout's ``src/`` and
nothing installed. Every operation runs in a fresh interpreter
(``perfbench/ops.py``), one at a time, with the BLAS and OpenMP pools pinned
to one thread. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit, median, tail percentile and sample count, the failure
count, and the machine record. A full record is also written to
``.perfbench/results/``.

``--trace 0`` measures every end-to-end metric. Each run starts the five
processes of the workload's entry in ``SCHEDULES``, each followed by an import
probe: the workload's own operation first and last, sharing ``--seconds``;
between them the other operation, one acceptance battery, and the other
operation again. The battery and the sweeps are timed with the calibration
kernel of ``hostspeed.py`` running alongside, and reported scaled to the
reference host speed; the import probes are scaled by the kernel timed just
before and after them. The dim-1e6 runs and peak memory are not scaled. The
median wall time of every timing is printed too and kept in the record.

``--trace 1`` runs the workload's operation once untraced and once traced,
then the other operations traced, and reports every per-layer metric plus
the tracing overhead (traced over untraced wall time of the workload's
operation). The traced and untraced output digests must agree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import hostspeed
from checks import CRITERIA
from tracer import ENGINES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OPS_SCRIPT = HERE / "ops.py"

OP_ORDER = ("verify", "sweep", "large")

#: workload -> the operation it repeats
WORKLOADS = {"sweep": "sweep", "large-dim": "large"}

#: workload -> the processes of a timed run, in order, as (operation, options
#: for ops.py), each followed by an import probe. The workload's own
#: operation runs in the first and the last process, each for half of
#: ``--seconds``; the others run their operation one to three times, so that
#: every run measures every end-to-end metric. Samples of each metric are
#: spread over the run and the battery sits in the middle.
SCHEDULES = {
    "sweep": (
        ("sweep", {"first": "worst", "reps": 2, "share": 0.5}),
        ("large", {"reps": 3}),
        ("verify", {}),
        ("large", {"reps": 3}),
        ("sweep", {"first": "random", "reps": 2, "share": 0.5}),
    ),
    "large-dim": (
        ("large", {"share": 0.5}),
        ("sweep", {"first": "worst"}),
        ("verify", {}),
        ("sweep", {"first": "random"}),
        ("large", {"share": 0.5}),
    ),
}
SETUP_PROBE = "import splitrate, splitrate.acceptance, time; print(time.monotonic()); print(splitrate.__file__)"

#: the whole run must end well inside the 180 s a run is allowed
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "verify_s": "s",
    "sweep_primal_s": "s",
    "sweep_dual_s": "s",
    "sweep_admm_s": "s",
    "large_dr_step_ms": "ms",
    "large_admm_step_ms": "ms",
    "peak_rss_mb": "MB",
}

#: computed cost of one refl_prox_diag call per vector element, read off its
#: array expressions: gamma*w, 1-gw, 1+gw, (1-gw)/(1+gw) and *y are five
#: float64 passes of 16, 16, 16, 24 and 24 bytes and one flop each; the Vec
#: built from the result copies it (16 bytes) and checks it finite (8 bytes
#: read, 1 written, 1 read by np.all). refl_prox_g of the zero function
#: returns its argument and costs nothing. Cache misses are ignored.
REFL_DIAG_BYTES_PER_ELEM = 16 + 16 + 16 + 24 + 24 + 16 + 9 + 1
REFL_DIAG_FLOPS_PER_ELEM = 5

#: per-layer metric -> (unit, operations it is measured on)
ALL, SMALL, SWEEPS = OP_ORDER, ("verify", "sweep"), ("sweep",)
PER_LAYER = {
    "hilbert.vec_built": ("count", ALL),
    "hilbert.s": ("s", ALL),
    "splitting.runs": ("count", SMALL),
    "splitting.steps": ("count", SMALL),
    "splitting.engine_s": ("s", SMALL),
    "splitting.step_us": ("us", SMALL),
    "splitting.fit_calls": ("count", SMALL),
    "splitting.fit_s": ("s", SMALL),
    "splitting.diverged": ("count", ALL),
    "splitting.trace_bytes": ("bytes", ("large",)),
    "prox.refl_calls": ("count", ("large",)),
    "prox.refl_s": ("s", ("large",)),
    "prox.bytes_per_step": ("bytes", ("large",)),
    "prox.flops_per_step": ("flop", ("large",)),
    "prox.oracle_s": ("s", ("verify",)),
    **{f"acceptance.{name}_s": ("s", ("verify",)) for name in CRITERIA},
    "acceptance.conjugate_oracle_s": ("s", ("verify",)),
    "functions.dual_calls": ("count", SWEEPS),
    "functions.dual_s": ("s", SWEEPS),
    "cli.evaluate_point_s": ("s", SWEEPS),
    "cli.render_s": ("s", SWEEPS),
    "cli.write_s": ("s", SWEEPS),
    "cli.csv_bytes": ("bytes", SWEEPS),
    "rates.calls": ("count", ALL),
    "rates.s": ("s", ALL),
    "worstcase.calls": ("count", ALL),
    "worstcase.s": ("s", ALL),
    "trace_overhead": ("ratio", ()),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# -- running operations --------------------------------------------------------


def child_env() -> dict:
    """The caller's environment with this checkout's ``src/`` first on the
    path, single-threaded BLAS and OpenMP pools, and bytecode caching on, so
    that imports after the first use cached bytecode, as installed copies do."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _check_source(path: str) -> None:
    if Path(path).resolve() != (ROOT / "src" / "splitrate" / "__init__.py").resolve():
        raise BenchError(f"imported splitrate from {path}, not from this checkout's src/")


class Runner:
    def __init__(self, seed: int, workdir: Path, deadline: float):
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.kernel = hostspeed.Kernel()

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded its {RUN_BUDGET_S:g} s budget")
        return left

    def _run(self, cmd: list, what: str) -> str:
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=self._remaining()
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{what} did not finish within the run budget") from exc
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc.stdout

    def op(self, name: str, seconds: float = 0.0, **options) -> dict:
        cmd = [
            sys.executable, str(OPS_SCRIPT), name, "--seed", str(self.seed), "--seconds", repr(seconds),
            "--workdir", str(self.workdir),
        ]  # fmt: skip
        for key, value in options.items():
            cmd += [f"--{key}", str(value)]
        result = json.loads(self._run(cmd, f"operation {name}").strip().splitlines()[-1])
        _check_source(result["splitrate_file"])
        return result

    def setup_probe(self) -> tuple[float, float]:
        """Fresh interpreter until ``import splitrate.acceptance`` is done,
        as (scaled, wall) seconds. The python calibration kernel is timed
        just before the interpreter starts and just after it exits; the
        probe is short next to the host's slow stretches, so the mean of the
        two gives its speed."""
        before = hostspeed.time_kernel(self.kernel)
        t0 = time.monotonic()
        done, path = self._run([sys.executable, "-c", SETUP_PROBE], "import probe").split()
        wall = float(done) - t0
        after = hostspeed.time_kernel(self.kernel)
        _check_source(path)
        return wall * 2.0 * hostspeed.REFERENCE_S / (before + after), wall


# -- statistics ----------------------------------------------------------------


def tail_percentile(values: list) -> tuple | None:
    """Highest of the usual percentiles with at least ten samples beyond it,
    as (percentile, value), or None when there are too few samples."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            ordered = sorted(values)
            return p, ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)]
    return None


def describe(name: str, unit: str, values: list) -> str:
    med = statistics.median(values)
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]:g} {tail[1]:.6g}" if tail else "no percentile has 10 samples beyond it"
    return f"{name:<22} {med:>14.6g} {unit:<6} median of n={len(values)}; {tail_text}"


# -- machine record ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def machine_record() -> dict:
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "src_lines": src_lines,
        "note": (
            "src_lines is informational and not gated. A dim-1e6 vector is 8 MB, so a "
            "large-dim step's arrays fit in a last-level cache of this size; large-dim "
            "reports computed bytes and flops per step and makes no bandwidth or roofline claim."
        ),
    }


# -- the two kinds of run ------------------------------------------------------


def cross_process_checks(results: list) -> tuple[int, list]:
    """Every output that two processes of the same operation both produced
    must have the same digest. Returns (checks made, failures)."""
    seen: dict[tuple, str] = {}
    attempted, failures = 0, []
    for res in results:
        for key, value in res["digests"].items():
            where = (res["op"], key)
            if where in seen:
                attempted += 1
                if seen[where] != value:
                    failures.append(f"{res['op']} {key}: output digest differs between processes")
            seen.setdefault(where, value)
    return attempted, failures


def timed_run(runner: Runner, workload: str, seconds: float) -> tuple:
    """Runs the workload's schedule, with an import probe before the first
    process and after each.

    Returns (metrics, samples, operation results, checks made here, failures).
    """
    focus = WORKLOADS[workload]
    results, setups = [], [runner.setup_probe()]
    for op, options in SCHEDULES[workload]:
        options = dict(options)
        share = options.pop("share", 0.0)
        results.append(runner.op(op, seconds=share * seconds, timed=1, **options))
        setups.append(runner.setup_probe())
    samples: dict[str, list] = {"setup_s": [scaled for scaled, _ in setups]}
    wall: dict[str, list] = {"setup_s": [w for _, w in setups]}
    for res in results:
        for key, values in res["samples"].items():
            samples.setdefault(key, []).extend(values)
        for key, values in res["wall_samples"].items():
            wall.setdefault(key, []).extend(values)
    samples["peak_rss_mb"] = wall["peak_rss_mb"] = [res["peak_rss_mb"] for res in results if res["op"] == focus]
    samples["wall"] = wall
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
    attempted, failures = cross_process_checks(results)
    return metrics, samples, results, attempted + len(setups), failures


def layer_metrics(summaries: dict, extra: dict) -> dict:
    """Per-layer metrics from the traced operations' span summaries, each
    summed over the operations ``PER_LAYER`` names for it."""

    def total(field: str, ops, names) -> float:
        return sum(summaries[op][field].get(n, 0) for op in ops for n in names)

    def layer_total(field: str, ops, layer: str) -> float:
        return sum(v for op in ops for n, v in summaries[op][field].items() if n.startswith(layer + "."))

    def engines(field: str, ops, names=ENGINES) -> float:
        return sum(summaries[op]["engines"].get(n, {}).get(field, 0) for op in ops for n in names)

    def per_dr_step(per_elem: int):
        def rule(ops) -> float:
            calls = total("calls", ops, ("prox.refl_prox_diag",))
            return calls * per_elem * extra["dim"] / max(engines("steps", ops, ("splitting.run_dr",)), 1)

        return rule

    refl = ("prox.refl_prox_diag", "prox.refl_prox_g")
    rules = {
        "hilbert.vec_built": lambda ops: total("calls", ops, ("hilbert.Vec",)),
        "hilbert.s": lambda ops: layer_total("self_s", ops, "hilbert"),
        "splitting.runs": lambda ops: engines("runs", ops),
        "splitting.steps": lambda ops: engines("steps", ops),
        "splitting.engine_s": lambda ops: total("self_s", ops, ENGINES),
        "splitting.step_us": lambda ops: 1e6 * engines("incl_s", ops) / max(engines("steps", ops), 1),
        "splitting.fit_calls": lambda ops: total("calls", ops, ("splitting.fit_rate",)),
        "splitting.fit_s": lambda ops: total("incl_s", ops, ("splitting.fit_rate",)),
        "splitting.diverged": lambda ops: engines("diverged", ops),
        "splitting.trace_bytes": lambda ops: engines("trace_bytes", ops),
        "prox.refl_calls": lambda ops: total("calls", ops, refl),
        "prox.refl_s": lambda ops: total("incl_s", ops, refl),
        "prox.bytes_per_step": per_dr_step(REFL_DIAG_BYTES_PER_ELEM),
        "prox.flops_per_step": per_dr_step(REFL_DIAG_FLOPS_PER_ELEM),
        "prox.oracle_s": lambda ops: total("incl_s", ops, ("prox.prox_oracle",)),
        **{f"acceptance.{name}_s": (lambda ops, name=name: extra["criteria_s"][name]) for name in CRITERIA},
        "acceptance.conjugate_oracle_s": lambda ops: total("incl_s", ops, ("acceptance.conjugate_oracle",)),
        "functions.dual_calls": lambda ops: total("calls", ops, ("functions.dual_function",)),
        "functions.dual_s": lambda ops: total("incl_s", ops, ("functions.dual_function",)),
        "cli.evaluate_point_s": lambda ops: total("incl_s", ops, ("cli.evaluate_point",)),
        "cli.render_s": lambda ops: total("incl_s", ops, ("cli.render_sweep_csv",)),
        "cli.write_s": lambda ops: total("incl_s", ops, ("cli._write_text",)),
        "cli.csv_bytes": lambda ops: extra["csv_bytes"],
        "rates.calls": lambda ops: layer_total("calls", ops, "rates"),
        "rates.s": lambda ops: layer_total("self_s", ops, "rates"),
        "worstcase.calls": lambda ops: layer_total("calls", ops, "worstcase"),
        "worstcase.s": lambda ops: layer_total("self_s", ops, "worstcase"),
        "trace_overhead": lambda ops: extra["trace_overhead"],
    }
    return {name: rules[name](ops) for name, (_, ops) in PER_LAYER.items()}


#: options of each operation in a traced run: one round from each sweep
#: start, one large pair without warm-up
TRACED_OPTIONS = {"verify": {}, "sweep": {"reps": 2}, "large": {}}


def traced_run(runner: Runner, workload: str) -> tuple:
    """The workload's operation untraced and traced, then the others traced.

    Returns (metrics, samples, operation results, checks made here, failures);
    the checks made here are that tracing left the workload's outputs
    unchanged.
    """
    focus = WORKLOADS[workload]
    plain = runner.op(focus, **TRACED_OPTIONS[focus])
    order = [focus, *(op for op in OP_ORDER if op != focus)]
    traced = {op: runner.op(op, trace=1, **TRACED_OPTIONS[op]) for op in order}
    attempted, failures = cross_process_checks([plain, traced[focus]])
    summaries = {op: res["layers"] for op, res in traced.items()}
    extra = {
        "dim": traced["large"]["dim"],
        "criteria_s": traced["verify"]["criteria_s"],
        "csv_bytes": traced["sweep"]["csv_bytes"],
        "trace_overhead": traced[focus]["op_wall_s"] / plain["op_wall_s"],
    }
    return layer_metrics(summaries, extra), {}, [plain, *traced.values()], attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "splitrate" / "__init__.py").is_file():
        print(f"error: no splitrate sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / "work"
    results_dir = ROOT / ".perfbench" / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)

    started = time.monotonic()
    runner = Runner(args.seed, workdir, started + RUN_BUDGET_S)
    try:
        if args.trace:
            metrics, samples, results, attempted, failures = traced_run(runner, args.workload)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            metrics, samples, results, attempted, failures = timed_run(runner, args.workload, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for res in results:
        attempted += res["attempted"]
        failures += res["failures"]
    failed = len(failures)
    machine = machine_record()

    print(
        f"splitrate benchmark: workload {args.workload}, seed {args.seed}, "
        f"seconds {args.seconds:g}, trace {args.trace}"
    )
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items() if k != "note"))
    print("note: " + machine["note"])
    for name, unit in units.items():
        if not args.trace:
            print(describe(name, unit, samples[name]) + f"; wall median {statistics.median(samples['wall'][name]):.6g}")
        else:
            scope = ",".join(PER_LAYER[name][1]) or args.workload
            print(f"{name:<40} {metrics[name]:>16.6g} {unit:<6} on {scope}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print("peak RSS per process (MB): " + ", ".join(f"{r['op']} {r['peak_rss_mb']:.1f}" for r in results))
    for msg in failures[:20]:
        print(f"FAILED: {msg}")
    print(f"wall {time.monotonic() - started:.1f} s")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
