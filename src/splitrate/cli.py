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
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .functions import dual_function
from .hilbert import basis_rows
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
#: every verdict a report row can carry, in the order the sweep footer counts them
VERDICTS = ("tight", "bounded", "infeasible-diverged")
TRACE_HEADER = "k,dist,ratio"

#: a measured |theoretical - empirical| at or below this counts as tight
TIGHT_GAP = 1e-9


class ConfigError(Exception):
    """Bad flag value or config-file entry; maps to exit code 2."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


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
        if count == 1:
            return (lo,)
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
    alpha_grid: tuple = _key("alpha_grid", (), parse_grid, "alpha grid: comma list or linear/log:min:max:count")
    gamma_grid: tuple = _key("gamma_grid", (), parse_grid, "gamma grid: comma list or linear/log:min:max:count")
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

#: ``run``'s --alpha and --gamma: one point each, not a grid
_POINT_HELP = {"alpha": "relaxation (default: bound-minimizing)", "gamma": "step size (default: bound-minimizing)"}


def _dest(key: str) -> str:
    """The attribute that a key's flag sets: the key, without a grid's "_grid"."""
    return key.removesuffix("_grid")


def _set_key(cfg: SweepConfig, key: str, raw) -> None:
    attr, conv, _ = _CONFIG_KEYS[key]
    try:
        setattr(cfg, attr, conv(raw))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def _config_from_args(args, grid_flags: bool) -> SweepConfig:
    """Defaults, overridden by the ``--config`` file, overridden by flags.
    ``grid_flags`` says whether --alpha/--gamma are grids (sweep) or a
    single point that the caller reads itself (run)."""
    cfg = SweepConfig()
    if args.config is not None:
        for key, raw in load_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            _set_key(cfg, key, raw)
    for key in _CONFIG_KEYS:
        if _dest(key) != key and not grid_flags:
            continue
        value = getattr(args, _dest(key))
        if value is not None:
            _set_key(cfg, key, value)
    return cfg


def _instance(cfg: SweepConfig) -> tuple:
    """The configured mode's instance, the curvature constants its bound
    uses (the primal sigma and beta, or the dual sigma_hat and beta_hat) and
    the quadratic whose curvatures pick worst starts."""
    if cfg.mode == "primal-dr":
        problem = make_primal_instance(cfg.sigma, cfg.beta, cfg.dim, cfg.idx_sigma)
        return problem, cfg.sigma, cfg.beta, problem.f
    problem = make_dual_instance(
        cfg.sigma, cfg.beta, cfg.theta, cfg.zeta, cfg.dim, cfg.idx_sigma, pairing=cfg.pairing
    )
    constants = dual_rate_constants(cfg.sigma, cfg.beta, cfg.theta, cfg.zeta)
    return problem, constants.sigma_hat, constants.beta_hat, dual_function(problem)


def _start_rows(cfg: SweepConfig, quad, alphas: np.ndarray, gammas: np.ndarray):
    """Start rows for :func:`run_rows`, one per grid point: random rows come
    from one generator seeded with ``cfg.seed``, drawn in grid order; worst
    starts are unit rows along the coordinates that
    :func:`worst_coordinates` picks for the whole grid at once."""
    if cfg.start == "random":
        rng = np.random.default_rng(cfg.seed)
        return lambda rows: rng.uniform(-1.0, 1.0, (rows.stop - rows.start, cfg.dim))
    if cfg.start == "zero":
        return lambda rows: np.zeros((rows.stop - rows.start, cfg.dim))
    coordinates = worst_coordinates(quad, alphas, gammas)
    return lambda rows: basis_rows(cfg.dim, coordinates[rows])


def evaluate_points(alphas, gammas, sigma: float, beta: float, empirical, diverged) -> tuple:
    """Compare the rates measured at parameter points against the bound, as
    array work over all points: the report columns ``(alpha, gamma,
    theoretical, empirical, case, gap, verdict)``, one entry per point, in
    order.

    ``empirical`` is NaN where a run was too short to fit a rate. The verdict
    is "tight" when the point lies in an exactly-attained region and the
    measured gap is within ``TIGHT_GAP``, "infeasible-diverged" when the run
    tripped the divergence guard, and "bounded" otherwise; "bounded" is not
    compared with the bound.
    """
    theoretical = theoretical_rate(alphas, gammas, sigma, beta)
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
    problem, sigma, beta, quad = instance
    alphas, gammas = (
        grid.ravel() for grid in np.meshgrid(sorted(cfg.alpha_grid), sorted(cfg.gamma_grid), indexing="ij")
    )
    # a bad point fails the bound here, before any worst start or run: a
    # step size whose product with beta overflows would make those NaN
    theoretical_rate(alphas, gammas, sigma, beta)
    starts = _start_rows(cfg, quad, alphas, gammas)
    runs = run_rows(problem, cfg.mode, alphas, gammas, starts, max_iter=cfg.iters, tol=cfg.tol)
    return evaluate_points(alphas, gammas, sigma, beta, fit_rates(runs.step_ratios), runs.diverged), runs


def _report_lines(columns: tuple) -> list:
    """The header and one CSV row per point of the report columns."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return [REPORT_HEADER] + [
        f"{_fmt(a)},{_fmt(g)},{_fmt(t)},{_fmt(e)},{case.value},{_fmt(d)},{verdict}"
        for a, g, t, e, case, d, verdict in rows
    ]


def render_sweep_csv(columns: tuple) -> str:
    """CSV with one row per point of the report columns (see
    :func:`evaluate_points`) plus a comment footer of verdict counts and the
    worst measured gap among tight points."""
    gap, verdicts = np.asarray(columns[5]), np.asarray(columns[6])
    tight = verdicts == "tight"
    max_gap = np.abs(gap[tight]).max() if tight.any() else math.nan
    counts = " ".join(f"{verdict}={np.count_nonzero(verdicts == verdict)}" for verdict in VERDICTS)
    footer = [f"# verdicts: {counts}", f"# max_abs_gap_tight = {_fmt(max_gap)}"]
    return "\n".join(_report_lines(columns) + footer) + "\n"


def render_trace_csv(distances: np.ndarray, step_ratios: np.ndarray) -> str:
    """CSV of a distance trace: one row per iterate."""
    lines = [TRACE_HEADER]
    for k, dist in enumerate(distances):
        ratio = step_ratios[k] if k < step_ratios.size else math.nan
        lines.append(f"{k},{_fmt(dist)},{_fmt(ratio)}")
    return "\n".join(lines) + "\n"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_rate(args) -> int:
    sigma = args.sigma if args.sigma is not None else DEFAULT_SIGMA
    beta = args.beta if args.beta is not None else DEFAULT_BETA
    for flag, needs in (("--alpha", "--gamma"), ("--theta", "--zeta"), ("--zeta", "--theta")):
        if getattr(args, flag[2:]) is not None and getattr(args, needs[2:]) is None:
            raise ConfigError(f"{flag} requires {needs}")
    lines = []
    if args.gamma is not None:
        if args.alpha is not None:
            lines.append(f"theoretical_rate = {_fmt(theoretical_rate(args.alpha, args.gamma, sigma, beta))}")
        lines.append(f"alpha_upper_bound = {_fmt(alpha_upper_bound(args.gamma, sigma, beta))}")
    opt_alpha, opt_gamma, opt_rate = optimal_params(sigma, beta)
    lines.append(f"optimal_alpha = {_fmt(opt_alpha)}")
    lines.append(f"optimal_gamma = {_fmt(opt_gamma)}")
    lines.append(f"optimal_rate = {_fmt(opt_rate)}")
    if args.theta is not None:
        constants = dual_rate_constants(sigma, beta, args.theta, args.zeta)
        _, dual_gamma, dual_rate = constants.optimal_dual_params()
        lines.append(f"sigma_hat = {_fmt(constants.sigma_hat)}")
        lines.append(f"beta_hat = {_fmt(constants.beta_hat)}")
        lines.append(f"kappa = {_fmt(constants.kappa)}")
        lines.append(f"dual_optimal_gamma = {_fmt(dual_gamma)}")
        lines.append(f"dual_optimal_rate = {_fmt(dual_rate)}")
    print("\n".join(lines))
    return 0


def _run_point(grid: tuple, key: str, default: float) -> float:
    """The point ``run`` takes from a config-file grid: its one value, or
    ``default`` when the grid is empty."""
    if len(grid) > 1:
        raise ConfigError(f"{key!r} holds {len(grid)} values, but run takes one point")
    return (grid or (default,))[0]


def cmd_run(args) -> int:
    # a sweep whose grids hold the one point: alpha and gamma each come from
    # the flag, else from the config file's grid, else they are the mode's
    # bound-minimizing values
    cfg = _config_from_args(args, grid_flags=False)
    instance = _instance(cfg)
    opt_alpha, opt_gamma, _ = optimal_params(*instance[1:3])
    alpha = args.alpha if args.alpha is not None else _run_point(cfg.alpha_grid, "alpha_grid", opt_alpha)
    gamma = args.gamma if args.gamma is not None else _run_point(cfg.gamma_grid, "gamma_grid", opt_gamma)
    cfg.alpha_grid, cfg.gamma_grid = (float(alpha),), (float(gamma),)
    columns, runs = _sweep(cfg, instance)
    report_text = "\n".join(_report_lines(columns)) + "\n"
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
    cfg = _config_from_args(args, grid_flags=True)
    instance = _instance(cfg)
    if not cfg.alpha_grid:
        cfg.alpha_grid = parse_grid("linear:0.1:1.9:20")
    if not cfg.gamma_grid:
        # center the default grid on the bound-minimizing step size
        _, gamma_star, _ = optimal_params(*instance[1:3])
        cfg.gamma_grid = parse_grid(f"log:{gamma_star / 20!r}:{gamma_star * 20!r}:20")
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
    # every key's flag, as a string its table parser reads; run's --alpha
    # and --gamma are one point each
    for command, grids in ((p_run, False), (p_sweep, True)):
        for key, (_, parse, help_text) in _CONFIG_KEYS.items():
            dest = _dest(key)
            if dest == key or grids:
                metavar = getattr(parse, "metavar", None)
                command.add_argument("--" + dest.replace("_", "-"), dest=dest, metavar=metavar, help=help_text)
            else:
                command.add_argument("--" + dest, type=float, help=_POINT_HELP[dest])
        command.add_argument("--config", help="flat key = value config file")
        command.add_argument("--out", help="output path (default stdout)")

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
