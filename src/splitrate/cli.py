"""Command-line front end: rate formulas, single solver runs, parameter-grid
sweeps comparing empirical against theoretical contraction, and the built-in
verification battery.

Exit codes: 0 ok, 2 usage or configuration error, 3 divergence in ``run``.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .functions import DiagQuadratic, dual_function
from .rates import (
    TIGHT_CASES,
    TightnessCase,
    alpha_upper_bound,
    classify_tightness,
    dual_rate_constants,
    optimal_params,
    theoretical_rate,
)
from .splitting import MODES, fit_rates, run_rows
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
    worst_start_vector,
)

__all__ = [
    "ConfigError",
    "SweepConfig",
    "RateReport",
    "parse_grid",
    "load_config_file",
    "sweep_reports",
    "render_sweep_csv",
    "render_trace_csv",
    "main",
]

STARTS = ("worst", "zero", "random")

REPORT_HEADER = "alpha,gamma,theoretical,empirical,case,gap,verdict"
TRACE_HEADER = "k,dist,ratio"

#: a measured |theoretical - empirical| at or below this counts as tight
TIGHT_GAP = 1e-9


class ConfigError(Exception):
    """Bad flag value or config-file entry; maps to exit code 2."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class SweepConfig:
    """Instance, grid, and engine settings for a sweep (or a single run,
    where the grids hold one value each)."""

    sigma: float = DEFAULT_SIGMA
    beta: float = DEFAULT_BETA
    theta: float = DEFAULT_THETA
    zeta: float = DEFAULT_ZETA
    dim: int = DEFAULT_DIM
    idx_sigma: tuple = tuple(sorted(DEFAULT_IDX_SIGMA))
    alpha_grid: tuple = ()
    gamma_grid: tuple = ()
    mode: str = "primal-dr"
    iters: int = 80
    tol: float = 1e-14
    seed: int = 0
    start: str = "worst"
    pairing: str = "crossed"

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.start not in STARTS:
            raise ConfigError(f"start must be one of {STARTS}, got {self.start!r}")
        if self.pairing not in PAIRINGS:
            raise ConfigError(f"pairing must be one of {PAIRINGS}, got {self.pairing!r}")
        if not self.alpha_grid:
            raise ConfigError("alpha grid is empty")
        if not self.gamma_grid:
            raise ConfigError("gamma grid is empty")
        if any(not (0 < a < math.inf) for a in self.alpha_grid):
            raise ConfigError("all alpha values must be positive and finite")
        if any(not (0 < g < math.inf) for g in self.gamma_grid):
            raise ConfigError("all gamma values must be positive and finite")
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol!r}")
        if self.iters < 1:
            raise ConfigError(f"iters must be at least 1, got {self.iters!r}")


@dataclass
class RateReport:
    """One (alpha, gamma) point: bound vs measurement and the verdict.

    verdict is "tight" when the point lies in an exactly-attained region and
    the measured gap is within TIGHT_GAP, "infeasible-diverged" when the run
    tripped the divergence guard, and "bounded" otherwise.
    """

    alpha: float
    gamma: float
    theoretical: float
    empirical: float
    case_label: TightnessCase
    gap: float
    verdict: str

    def csv_row(self) -> str:
        return ",".join(
            [
                _fmt(self.alpha),
                _fmt(self.gamma),
                _fmt(self.theoretical),
                _fmt(self.empirical),
                self.case_label.value,
                _fmt(self.gap),
                self.verdict,
            ]
        )


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
    """Flat 'key = value' lines; '#' starts a comment."""
    entries = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return entries


#: config-file key -> (SweepConfig field, parser). Each flag has the key's
#: name, except that the grids are given by --alpha and --gamma.
_CONFIG_PARSERS = {
    "sigma": ("sigma", float),
    "beta": ("beta", float),
    "theta": ("theta", float),
    "zeta": ("zeta", float),
    "K": ("dim", int),
    "idx_sigma": ("idx_sigma", _parse_indices),
    "alpha_grid": ("alpha_grid", parse_grid),
    "gamma_grid": ("gamma_grid", parse_grid),
    "mode": ("mode", str),
    "iters": ("iters", int),
    "tol": ("tol", float),
    "seed": ("seed", int),
    "start": ("start", str),
    "pairing": ("pairing", str),
}
_GRID_FLAGS = {"alpha_grid": "alpha", "gamma_grid": "gamma"}


def _set_key(cfg: SweepConfig, key: str, raw) -> None:
    attr, conv = _CONFIG_PARSERS[key]
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
            if key not in _CONFIG_PARSERS:
                raise ConfigError(f"unknown config key {key!r}")
            _set_key(cfg, key, raw)
    for key in _CONFIG_PARSERS:
        if key in _GRID_FLAGS and not grid_flags:
            continue
        value = getattr(args, _GRID_FLAGS.get(key, key), None)
        if value is not None:
            _set_key(cfg, key, value)
    return cfg


def _bound_constants(cfg: SweepConfig) -> tuple[float, float]:
    """The curvature constants the mode's bound uses: the primal (sigma,
    beta), or the dual (sigma_hat, beta_hat)."""
    if cfg.mode == "primal-dr":
        return cfg.sigma, cfg.beta
    constants = dual_rate_constants(cfg.sigma, cfg.beta, cfg.theta, cfg.zeta)
    return constants.sigma_hat, constants.beta_hat


def _instance_and_constants(cfg: SweepConfig):
    """Build the instance for the configured mode and return it with the
    constants the bound should use and the curvatures that pick worst starts."""
    if cfg.mode == "primal-dr":
        problem = make_primal_instance(cfg.sigma, cfg.beta, cfg.dim, cfg.idx_sigma)
        return problem, *_bound_constants(cfg), problem.f.weights
    problem = make_dual_instance(
        cfg.sigma, cfg.beta, cfg.theta, cfg.zeta, cfg.dim, cfg.idx_sigma, pairing=cfg.pairing
    )
    return problem, *_bound_constants(cfg), dual_function(problem).weights


def _start_rows(cfg: SweepConfig, weights: np.ndarray, points: list):
    """Start rows for :func:`run_rows`, one per grid point: random rows come
    from one generator seeded with ``cfg.seed``, drawn in grid order."""
    if cfg.start == "random":
        rng = np.random.default_rng(cfg.seed)
        return lambda rows: rng.uniform(-1.0, 1.0, (rows.stop - rows.start, cfg.dim))
    if cfg.start == "zero":
        return lambda rows: np.zeros((rows.stop - rows.start, cfg.dim))
    quad = DiagQuadratic(weights)
    return lambda rows: np.array([worst_start_vector(quad, a, g).coeffs for a, g in points[rows]])


def evaluate_point(alpha: float, gamma: float, sigma: float, beta: float, empirical: float, diverged: bool) -> RateReport:
    """Compare the rate measured at one parameter point against the bound.

    ``empirical`` is NaN when the run was too short to fit a rate.
    """
    theoretical = theoretical_rate(alpha, gamma, sigma, beta)
    case = classify_tightness(alpha, gamma, sigma, beta)
    if diverged:
        empirical = math.nan
    gap = theoretical - empirical
    if diverged:
        verdict = "infeasible-diverged"
    elif case in TIGHT_CASES and abs(gap) <= TIGHT_GAP:
        verdict = "tight"
    else:
        verdict = "bounded"
    return RateReport(alpha, gamma, theoretical, empirical, case, gap, verdict)


def _sweep(cfg: SweepConfig) -> tuple:
    """All grid points as one batch of engine runs: the reports, ordered by
    (alpha, gamma), and the :class:`RowRuns` they were measured from."""
    cfg.validate()
    problem, sigma, beta, weights = _instance_and_constants(cfg)
    points = [(alpha, gamma) for alpha in sorted(cfg.alpha_grid) for gamma in sorted(cfg.gamma_grid)]
    alphas, gammas = np.array(points).T
    starts = _start_rows(cfg, weights, points)
    runs = run_rows(problem, cfg.mode, alphas, gammas, starts, max_iter=cfg.iters, tol=cfg.tol)
    fits = fit_rates(runs.step_ratios)
    reports = [
        evaluate_point(alpha, gamma, sigma, beta, float(fit), bool(diverged))
        for (alpha, gamma), fit, diverged in zip(points, fits, runs.diverged)
    ]
    return reports, runs


def sweep_reports(cfg: SweepConfig) -> list:
    """One RateReport per grid point, ordered by (alpha, gamma)."""
    return _sweep(cfg)[0]


def render_sweep_csv(reports: list) -> str:
    """CSV with one row per point plus a comment footer of verdict counts and
    the worst measured gap among tight points."""
    lines = [REPORT_HEADER]
    lines.extend(r.csv_row() for r in reports)
    counts = {"tight": 0, "bounded": 0, "infeasible-diverged": 0}
    for r in reports:
        counts[r.verdict] += 1
    tight_gaps = [abs(r.gap) for r in reports if r.verdict == "tight"]
    max_gap = max(tight_gaps) if tight_gaps else math.nan
    lines.append(
        "# verdicts: tight={tight} bounded={bounded} infeasible-diverged={diverged}".format(
            tight=counts["tight"], bounded=counts["bounded"], diverged=counts["infeasible-diverged"]
        )
    )
    lines.append(f"# max_abs_gap_tight = {_fmt(max_gap)}")
    return "\n".join(lines) + "\n"


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
    if args.alpha is not None and args.gamma is None:
        raise ConfigError("--alpha requires --gamma")
    lines = []
    if args.gamma is not None:
        if args.alpha is not None:
            lines.append(f"theoretical_rate = {_fmt(theoretical_rate(args.alpha, args.gamma, sigma, beta))}")
        lines.append(f"alpha_upper_bound = {_fmt(alpha_upper_bound(args.gamma, sigma, beta))}")
    opt_alpha, opt_gamma, opt_rate = optimal_params(sigma, beta)
    lines.append(f"optimal_alpha = {_fmt(opt_alpha)}")
    lines.append(f"optimal_gamma = {_fmt(opt_gamma)}")
    lines.append(f"optimal_rate = {_fmt(opt_rate)}")
    if args.theta is not None and args.zeta is not None:
        constants = dual_rate_constants(sigma, beta, args.theta, args.zeta)
        _, dual_gamma, dual_rate = constants.optimal_dual_params()
        lines.append(f"sigma_hat = {_fmt(constants.sigma_hat)}")
        lines.append(f"beta_hat = {_fmt(constants.beta_hat)}")
        lines.append(f"kappa = {_fmt(constants.kappa)}")
        lines.append(f"dual_optimal_gamma = {_fmt(dual_gamma)}")
        lines.append(f"dual_optimal_rate = {_fmt(dual_rate)}")
    print("\n".join(lines))
    return 0


def _single_point_config(args) -> SweepConfig:
    """The config of ``run``: a sweep whose grids hold the one point."""
    cfg = _config_from_args(args, grid_flags=False)
    alpha = args.alpha if args.alpha is not None else (cfg.alpha_grid[0] if cfg.alpha_grid else None)
    gamma = args.gamma if args.gamma is not None else (cfg.gamma_grid[0] if cfg.gamma_grid else None)
    if alpha is None or gamma is None:
        # no point given: use the bound-minimizing parameters for the mode
        opt_alpha, opt_gamma, _ = optimal_params(*_bound_constants(cfg))
        alpha = alpha if alpha is not None else opt_alpha
        gamma = gamma if gamma is not None else opt_gamma
    cfg.alpha_grid = (float(alpha),)
    cfg.gamma_grid = (float(gamma),)
    cfg.validate()
    return cfg


def cmd_run(args) -> int:
    cfg = _single_point_config(args)
    (report,), runs = _sweep(cfg)
    report_text = REPORT_HEADER + "\n" + report.csv_row() + "\n"
    print(report_text, end="")
    steps = runs.steps[0]
    trace_text = render_trace_csv(runs.distances[0, : steps + 1], runs.step_ratios[0, :steps])
    out_text = report_text + "\n" + trace_text
    if args.out is not None:
        _write_text(args.out, out_text)
    return 3 if report.verdict == "infeasible-diverged" else 0


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args, grid_flags=True)
    if not cfg.alpha_grid:
        cfg.alpha_grid = parse_grid("linear:0.1:1.9:20")
    if not cfg.gamma_grid:
        # center the default grid on the bound-minimizing step size
        _, gamma_star, _ = optimal_params(*_bound_constants(cfg))
        cfg.gamma_grid = parse_grid(f"log:{gamma_star / 20!r}:{gamma_star * 20!r}:20")
    reports = sweep_reports(cfg)
    _write_text(args.out, render_sweep_csv(reports))
    return 0


def cmd_verify(args) -> int:
    from . import acceptance

    results = acceptance.run_all(verbose=True)
    return 0 if all(r.passed for r in results) else 1


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma", type=float, help="small curvature level (default 1)")
    parser.add_argument("--beta", type=float, help="large curvature level (default 10)")
    parser.add_argument("--theta", type=float, help="small coupling gain (default 1)")
    parser.add_argument("--zeta", type=float, help="large coupling gain (default 3)")
    parser.add_argument("--K", type=int, help="ambient dimension (default 8)")
    parser.add_argument("--idx-sigma", dest="idx_sigma", help="comma list of sigma-band indices")


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=MODES, help="engine (default primal-dr)")
    parser.add_argument("--iters", type=int, help="iteration budget (default 80)")
    parser.add_argument("--tol", type=float, help="step-norm stopping tolerance (default 1e-14)")
    parser.add_argument("--seed", type=int, help="seed for random starts (default 0)")
    parser.add_argument("--start", choices=STARTS, help="start vector policy (default worst)")
    parser.add_argument("--pairing", choices=PAIRINGS, help="gain pairing for coupled instances (default crossed)")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", help="output path (default stdout)")


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
    _add_instance_flags(p_run)
    p_run.add_argument("--alpha", type=float, help="relaxation (default: bound-minimizing)")
    p_run.add_argument("--gamma", type=float, help="step size (default: bound-minimizing)")
    _add_engine_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep an (alpha, gamma) grid and emit a CSV report")
    _add_instance_flags(p_sweep)
    p_sweep.add_argument("--alpha", help="alpha grid: comma list or linear/log:min:max:count")
    p_sweep.add_argument("--gamma", help="gamma grid: comma list or linear/log:min:max:count")
    _add_engine_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

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
