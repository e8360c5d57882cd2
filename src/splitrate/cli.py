"""Command-line front end: rate formulas, single solver runs, parameter-grid
sweeps comparing empirical against theoretical contraction, and the built-in
verification battery.

Each config key is declared once, on its :class:`SweepConfig` field, with
its parser and help; the ``run`` and ``sweep`` flags and the config-file
reader are both built from that table. A sweep's report is seven columns,
one entry per point (see :func:`evaluate_points`), from which the CSV rows
are formatted.

Exit codes: 0 ok, 2 usage or configuration error, 3 divergence in ``run``,
4 a ``run`` too short to fit a rate (its CSV is still written).
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import stat
import sys
from dataclasses import dataclass, field, fields
from itertools import chain, islice, repeat

import numpy as np

from .functions import dual_function
from .rates import (
    TIGHT_CASES,
    alpha_upper_bound,
    classify_tightness,
    dual_rate_constants,
    optimal_params,
    theoretical_rate,
)
from .splitting import MIN_FIT_RATIOS, MODES, fit_rates, run_rows
from .worstcase import (
    DEFAULT_BETA,
    DEFAULT_DIM,
    DEFAULT_IDX_SIGMA,
    DEFAULT_SIGMA,
    DEFAULT_THETA,
    DEFAULT_ZETA,
    PAIRINGS,
    make_dual_instance,
    make_primal_instance,
    worst_coordinates,
)

__all__ = [
    "ConfigError",
    "SweepConfig",
    "parse_grid",
    "load_config_file",
    "render_sweep_csv",
    "render_trace_csv",
    "main",
]

STARTS = ("worst", "zero", "random")

REPORT_HEADER = "alpha,gamma,theoretical,empirical,case,gap,verdict"
#: one report row: "%.17g" % x writes what f"{x:.17g}" writes, and the grid
#: values come formatted (see :func:`_distinct_texts`)
REPORT_ROW = "%s,%s,%.17g,%.17g,%s,%.17g,%s"
#: most CSV rows formatted by one ``%`` call, so that a grid at the cap or a
#: long trace does not build one argument tuple of all its fields
REPORT_CHUNK = 4096
#: every verdict a report row can carry, in the order the sweep footer counts them
VERDICTS = ("tight", "bounded", "infeasible-diverged")
TRACE_HEADER = "k,dist,ratio"
#: one trace row, as :data:`REPORT_ROW` formats a report row
TRACE_ROW = "%d,%.17g,%.17g"

#: a measured |theoretical - empirical| at or below this counts as tight
TIGHT_GAP = 1e-9

#: most points a sweep's grid, or one grid spec, may hold: a sweep holds
#: about 2.3 KB per point at once (its engine rows, distances and report),
#: so a grid at the cap needs about 2.3 GB
MAX_GRID_POINTS = 10**6

#: the report text of a tightness case: the member's plain ``_value_``
#: attribute, read in C, where ``.value`` and a dict keyed by member each
#: make a Python call per row
_case_text = operator.attrgetter("_value_")


class ConfigError(Exception):
    """Bad flag value or config-file entry; maps to exit code 2."""


def parse_grid(text: str) -> tuple:
    """Grid spec: a comma list of floats, or '<linear|log>:min:max:count'."""
    text = text.strip()
    if text.startswith(("linear:", "log:")):
        parts = text.split(":")
        if len(parts) != 4:
            raise ConfigError(f"grid spec must be kind:min:max:count, got {text!r}")
        kind, lo_s, hi_s, count_s = parts
        try:
            lo, hi, count = float(lo_s), float(hi_s), int(count_s)
        except ValueError as exc:
            raise ConfigError(f"bad grid spec {text!r}: {exc}") from exc
        if count < 1:
            raise ConfigError(f"grid count must be at least 1, got {count}")
        if count > MAX_GRID_POINTS:
            raise ConfigError(f"grid count must be at most {MAX_GRID_POINTS}, got {count}")
        if count == 1:
            return (lo,)
        # linspace and geomspace would warn and make NaN points
        if not math.isfinite(hi - lo):
            raise ConfigError(f"grid endpoints and their span must be finite, got {text!r}")
        if kind == "linear":
            values = np.linspace(lo, hi, count)
        else:
            if lo <= 0 or hi <= 0:
                raise ConfigError("log grids need positive endpoints")
            values = np.geomspace(lo, hi, count)
        return tuple(float(v) for v in values)
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ConfigError("empty grid")
    try:
        return tuple(float(p) for p in items)
    except ValueError as exc:
        raise ConfigError(f"bad grid value in {text!r}: {exc}") from exc


def _parse_indices(text: str) -> tuple:
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ConfigError("empty index list")
    try:
        return tuple(int(p) for p in items)
    except ValueError as exc:
        raise ConfigError(f"bad index in {text!r}: {exc}") from exc


def load_config_file(path: str) -> dict:
    """Flat 'key = value' lines; '#' starts a comment. A key may appear once."""
    entries, lines = {}, {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key in lines:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} is already set on line {lines[key]}")
                entries[key], lines[key] = value, lineno
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return entries


def _checked(conv, ok, need: str, metavar: str | None = None):
    """Parser of a key's text: ``conv(text)``, rejected as not ``need``
    unless ``ok`` holds for it. ``metavar`` names the values in the help of
    the key's flag."""

    def parse(text: str):
        value = conv(text)
        if not ok(value):
            raise ValueError(f"must be {need}, got {value!r}")
        return value

    parse.metavar = metavar
    return parse


def _choice(options: tuple):
    """Parser of a key that takes one of ``options``, which its flag's help
    lists as argparse lists choices."""
    return _checked(str, options.__contains__, f"one of {options}", "{" + ",".join(options) + "}")


def _key(name: str, default, parse, help_text: str):
    """A :class:`SweepConfig` field set by the config key ``name``: its
    default, the parser of the key's text (which carries the key's own
    choice or range check) and the help of the key's flag."""
    return field(default=default, metadata={"key": name, "parse": parse, "help": help_text})


@dataclass
class SweepConfig:
    """Instance, grid, and engine settings for a sweep (or a single run,
    where the grids hold one value each), one field per config key."""

    sigma: float = _key("sigma", DEFAULT_SIGMA, float, "small curvature level (default 1)")
    beta: float = _key("beta", DEFAULT_BETA, float, "large curvature level (default 10)")
    theta: float = _key("theta", DEFAULT_THETA, float, "small coupling gain (default 1)")
    zeta: float = _key("zeta", DEFAULT_ZETA, float, "large coupling gain (default 3)")
    dim: int = _key("K", DEFAULT_DIM, int, "ambient dimension (default 8)")
    idx_sigma: tuple = _key(
        "idx_sigma", tuple(sorted(DEFAULT_IDX_SIGMA)), _parse_indices, "comma list of sigma-band indices"
    )
    alpha_grid: tuple = _key(
        "alpha_grid", (), parse_grid, "alpha grid: comma list or linear/log:min:max:count (run takes one value)"
    )
    gamma_grid: tuple = _key(
        "gamma_grid", (), parse_grid, "gamma grid: comma list or linear/log:min:max:count (run takes one value)"
    )
    mode: str = _key("mode", "primal-dr", _choice(MODES), "engine (default primal-dr)")
    iters: int = _key("iters", 80, _checked(int, lambda n: n >= 1, "at least 1"), "iteration budget (default 80)")
    tol: float = _key(
        "tol",
        1e-14,
        _checked(float, lambda x: x > 0 and math.isfinite(x), "positive and finite"),
        "step-norm stopping tolerance (default 1e-14)",
    )
    seed: int = _key(
        "seed", 0, _checked(int, lambda n: n >= 0, "non-negative"), "seed for random starts (default 0)"
    )
    start: str = _key("start", "worst", _choice(STARTS), "start vector policy (default worst)")
    pairing: str = _key(
        "pairing", "crossed", _choice(PAIRINGS), "gain pairing for coupled instances (default crossed)"
    )


#: config key -> (SweepConfig field, parser, help), in field order. The run
#: and sweep flags are built from it: a key's flag is ``--`` and the key
#: with "-" for "_", except that a grid key's flag drops the "_grid"
#: (--alpha, --gamma).
_CONFIG_KEYS = {f.metadata["key"]: (f.name, f.metadata["parse"], f.metadata["help"]) for f in fields(SweepConfig)}


def _dest(key: str) -> str:
    """The attribute that a key's flag sets: the key, without a grid's "_grid"."""
    return key.removesuffix("_grid")


def _set_key(cfg: SweepConfig, key: str, raw) -> None:
    attr, conv, _ = _CONFIG_KEYS[key]
    try:
        setattr(cfg, attr, conv(raw))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def _config_from_args(args) -> SweepConfig:
    """Defaults, overridden by the ``--config`` file, overridden by flags."""
    cfg = SweepConfig()
    if args.config is not None:
        for key, raw in load_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            _set_key(cfg, key, raw)
    for key in _CONFIG_KEYS:
        value = getattr(args, _dest(key))
        if value is not None:
            _set_key(cfg, key, value)
    return cfg


def _instance(cfg: SweepConfig) -> tuple:
    """The configured mode's instance and the curvature constants its bound
    uses: the primal sigma and beta, or the dual sigma_hat and beta_hat."""
    if cfg.mode == "primal-dr":
        return make_primal_instance(cfg.sigma, cfg.beta, cfg.dim, cfg.idx_sigma), cfg.sigma, cfg.beta
    problem = make_dual_instance(
        cfg.sigma, cfg.beta, cfg.theta, cfg.zeta, cfg.dim, cfg.idx_sigma, pairing=cfg.pairing
    )
    constants = dual_rate_constants(cfg.sigma, cfg.beta, cfg.theta, cfg.zeta)
    return problem, constants.sigma_hat, constants.beta_hat


def _start_rows(cfg: SweepConfig, problem, alphas: np.ndarray, gammas: np.ndarray):
    """Starts for :func:`run_rows`, one per grid point: random rows come
    from one generator seeded with ``cfg.seed``, drawn in grid order; zero
    starts, and worst starts along the coordinates that
    :func:`worst_coordinates` picks for the whole grid at once, are
    ``(at, values)`` pairs. Those come from the curvatures of ``problem``'s
    quadratic or, in the dual modes, of its dual, which is made for that
    alone and goes once they are picked (the engine makes its own)."""
    if cfg.start == "random":
        rng = np.random.default_rng(cfg.seed)
        return lambda rows: rng.uniform(-1.0, 1.0, (rows.stop - rows.start, cfg.dim))
    if cfg.start == "zero":
        return np.zeros(alphas.size, dtype=int), np.zeros(alphas.size)
    quad = problem.f if cfg.mode == "primal-dr" else dual_function(problem)
    return worst_coordinates(quad, alphas, gammas), np.ones(alphas.size)


def evaluate_points(alphas, gammas, sigma: float, beta: float, theoretical, empirical, diverged) -> tuple:
    """Compare the rates measured at parameter points against the bound
    ``theoretical`` (:func:`theoretical_rate` at each point), as array work
    over all points: the report columns ``(alpha, gamma, theoretical,
    empirical, case, gap, verdict)``, one entry per point, in order.

    ``empirical`` is NaN where a run was too short to fit a rate. The verdict
    is "tight" when the point lies in an exactly-attained region and the
    measured gap is within ``TIGHT_GAP``, "infeasible-diverged" when the run
    tripped the divergence guard, and "bounded" otherwise; "bounded" is not
    compared with the bound.
    """
    cases = classify_tightness(alphas, gammas, sigma, beta)
    empirical = np.where(diverged, math.nan, empirical)
    gap = theoretical - empirical
    tight = np.isin(cases, list(TIGHT_CASES)) & (np.abs(gap) <= TIGHT_GAP)
    verdicts = np.where(diverged, "infeasible-diverged", np.where(tight, "tight", "bounded"))
    return alphas, gammas, theoretical, empirical, cases, gap, verdicts


def _sweep(cfg: SweepConfig, instance: tuple) -> tuple:
    """All grid points as one batch of engine runs on the :func:`_instance`
    of ``cfg``: the report columns (see :func:`evaluate_points`), ordered by
    (alpha, gamma), and the :class:`RowRuns` they were measured from."""
    problem, sigma, beta = instance
    alphas, gammas = (
        grid.ravel() for grid in np.meshgrid(sorted(cfg.alpha_grid), sorted(cfg.gamma_grid), indexing="ij")
    )
    # a bad point fails the bound here, before any worst start or run: a
    # step size whose product with beta overflows would make those NaN
    theoretical = theoretical_rate(alphas, gammas, sigma, beta)
    starts = _start_rows(cfg, problem, alphas, gammas)
    # a run whose distances overflow is reported by the divergence guard, so
    # numpy's overflow warning would only repeat it; set once for all runs
    with np.errstate(over="ignore"):
        runs = run_rows(problem, cfg.mode, alphas, gammas, starts, max_iter=cfg.iters, tol=cfg.tol)
    empirical = fit_rates(runs.step_ratios)
    return evaluate_points(alphas, gammas, sigma, beta, theoretical, empirical, runs.diverged), runs


def _distinct_texts(values) -> list:
    """The ``.17g`` text of each entry of a float array, each distinct value
    (by its bits, so that 0.0 and -0.0 stay apart) formatted once: a sweep's
    alpha and gamma columns repeat the values of their grids."""
    distinct, where = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    return np.array(["%.17g" % x for x in distinct.view(float).tolist()], dtype=object)[where].tolist()


def _csv_text(header: str, row: str, fields, count: int) -> str:
    """``header`` and ``row % f`` for each of the ``count`` field tuples
    ``f`` that the iterator ``fields`` gives, joined by newlines, with no
    newline at the end. One format call per chunk of up to ``REPORT_CHUNK``
    rows, not per row: each field is formatted as before, with no per-row
    call around it."""
    chunks = [header]
    for lo in range(0, count, REPORT_CHUNK):
        n = min(REPORT_CHUNK, count - lo)
        chunks.append("\n".join([row] * n) % tuple(chain.from_iterable(islice(fields, n))))
    return "\n".join(chunks)


def _report_text(columns: tuple) -> str:
    """The header and one CSV row per point of the report columns, joined by
    newlines, with no newline at the end."""
    alphas, gammas, theoretical, empirical, cases, gap, verdicts = columns
    rows = zip(
        _distinct_texts(alphas),
        _distinct_texts(gammas),
        np.asarray(theoretical).tolist(),
        np.asarray(empirical).tolist(),
        map(_case_text, np.asarray(cases).tolist()),
        np.asarray(gap).tolist(),
        np.asarray(verdicts).tolist(),
    )
    return _csv_text(REPORT_HEADER, REPORT_ROW, rows, len(alphas))


def render_sweep_csv(columns: tuple) -> str:
    """CSV with one row per point of the report columns (see
    :func:`evaluate_points`) plus a comment footer of verdict counts and the
    worst measured gap among tight points."""
    gap, verdicts = np.asarray(columns[5]), np.asarray(columns[6])
    tight = verdicts == "tight"
    max_gap = np.abs(gap[tight]).max() if tight.any() else math.nan
    counts = " ".join(f"{verdict}={np.count_nonzero(verdicts == verdict)}" for verdict in VERDICTS)
    footer = [f"# verdicts: {counts}", f"# max_abs_gap_tight = {max_gap:.17g}"]
    return _report_text(columns) + "\n" + "\n".join(footer) + "\n"


def render_trace_csv(distances: np.ndarray, step_ratios: np.ndarray) -> str:
    """CSV of a distance trace: one row per iterate, with the ratio of its
    step, or NaN past the last ratio."""
    distances = np.asarray(distances).tolist()
    ratios = chain(np.ravel(step_ratios).tolist(), repeat(math.nan))
    return _csv_text(TRACE_HEADER, TRACE_ROW, zip(range(len(distances)), distances, ratios), len(distances)) + "\n"


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` to stdout, or as UTF-8 to the file ``path``. A regular
    file is rewritten in place and then cut at the end of what was written,
    also when the write fails: truncating it first would make the filesystem
    free its old blocks, which costs more than writing them again."""
    if path is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    view = memoryview(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while view:
            view = view[os.write(fd, view) :]
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data) - len(view))
        finally:
            os.close(fd)


def cmd_rate(args) -> int:
    sigma = args.sigma if args.sigma is not None else DEFAULT_SIGMA
    beta = args.beta if args.beta is not None else DEFAULT_BETA
    for flag, needs in (("--alpha", "--gamma"), ("--theta", "--zeta"), ("--zeta", "--theta")):
        if getattr(args, flag[2:]) is not None and getattr(args, needs[2:]) is None:
            raise ConfigError(f"{flag} requires {needs}")
    lines = []
    if args.gamma is not None:
        if args.alpha is not None:
            lines.append(f"theoretical_rate = {theoretical_rate(args.alpha, args.gamma, sigma, beta):.17g}")
        lines.append(f"alpha_upper_bound = {alpha_upper_bound(args.gamma, sigma, beta):.17g}")
    opt_alpha, opt_gamma, opt_rate = optimal_params(sigma, beta)
    lines.append(f"optimal_alpha = {opt_alpha:.17g}")
    lines.append(f"optimal_gamma = {opt_gamma:.17g}")
    lines.append(f"optimal_rate = {opt_rate:.17g}")
    if args.theta is not None:
        constants = dual_rate_constants(sigma, beta, args.theta, args.zeta)
        _, dual_gamma, dual_rate = constants.optimal_dual_params()
        lines.append(f"sigma_hat = {constants.sigma_hat:.17g}")
        lines.append(f"beta_hat = {constants.beta_hat:.17g}")
        lines.append(f"kappa = {constants.kappa:.17g}")
        lines.append(f"dual_optimal_gamma = {dual_gamma:.17g}")
        lines.append(f"dual_optimal_rate = {dual_rate:.17g}")
    print("\n".join(lines))
    return 0


def _run_point(grid: tuple, key: str, default: float) -> float:
    """The point ``run`` takes from a grid key, set by its flag or the
    config file: its one value, or ``default`` when the grid is empty."""
    if len(grid) > 1:
        raise ConfigError(f"{key!r} holds {len(grid)} values, but run takes one point")
    return (grid or (default,))[0]


def cmd_run(args) -> int:
    # a sweep whose grids hold the one point: alpha and gamma each come from
    # the flag, else from the config file, else they are the mode's
    # bound-minimizing values
    cfg = _config_from_args(args)
    instance = _instance(cfg)
    opt_alpha, opt_gamma, _ = optimal_params(*instance[1:3])
    cfg.alpha_grid = (_run_point(cfg.alpha_grid, "alpha_grid", opt_alpha),)
    cfg.gamma_grid = (_run_point(cfg.gamma_grid, "gamma_grid", opt_gamma),)
    columns, runs = _sweep(cfg, instance)
    report_text = _report_text(columns) + "\n"
    print(report_text, end="")
    steps = runs.steps[0]
    trace_text = render_trace_csv(runs.distances[0, : steps + 1], runs.step_ratios[0, :steps])
    out_text = report_text + "\n" + trace_text
    if args.out is not None:
        _write_text(args.out, out_text)
    empirical, verdict = columns[3][0], columns[6][0]
    if verdict == "infeasible-diverged":
        return 3
    if math.isnan(empirical):
        print(f"note: too short to fit a rate ({steps} steps, need {MIN_FIT_RATIOS} valid ratios)", file=sys.stderr)
        return 4
    return 0


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    instance = _instance(cfg)
    if not cfg.alpha_grid:
        cfg.alpha_grid = parse_grid("linear:0.1:1.9:20")
    if not cfg.gamma_grid:
        # center the default grid on the bound-minimizing step size
        _, gamma_star, _ = optimal_params(*instance[1:3])
        cfg.gamma_grid = parse_grid(f"log:{gamma_star / 20!r}:{gamma_star * 20!r}:20")
    points = len(cfg.alpha_grid) * len(cfg.gamma_grid)
    if points > MAX_GRID_POINTS:
        raise ConfigError(f"a sweep may hold at most {MAX_GRID_POINTS} grid points, got {points}")
    _write_text(args.out, render_sweep_csv(_sweep(cfg, instance)[0]))
    return 0


def cmd_verify(args) -> int:
    from . import acceptance

    results = acceptance.run_all(verbose=True)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitrate",
        description="Splitting solvers with exact linear-rate verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="print rate formulas for an instance")
    p_rate.add_argument("--sigma", type=float)
    p_rate.add_argument("--beta", type=float)
    p_rate.add_argument("--theta", type=float)
    p_rate.add_argument("--zeta", type=float)
    p_rate.add_argument("--alpha", type=float)
    p_rate.add_argument("--gamma", type=float)
    p_rate.set_defaults(func=cmd_rate)

    p_run = sub.add_parser("run", help="run one solve and report bound vs measurement")
    p_run.set_defaults(func=cmd_run)
    p_sweep = sub.add_parser("sweep", help="sweep an (alpha, gamma) grid and emit a CSV report")
    p_sweep.set_defaults(func=cmd_sweep)
    # every key's flag, as a string its table parser reads
    for command in (p_run, p_sweep):
        for key, (_, parse, help_text) in _CONFIG_KEYS.items():
            dest = _dest(key)
            metavar = getattr(parse, "metavar", None)
            command.add_argument("--" + dest.replace("_", "-"), dest=dest, metavar=metavar, help=help_text)
        command.add_argument("--config", help="flat key = value config file")
        command.add_argument("--out", help="output path (default stdout)")

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.set_defaults(func=cmd_verify)

    return parser


# the parser of main, built on its first call: building it takes about 1 ms,
# and a process may call main many times (the battery's sweep-determinism
# check does)
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
