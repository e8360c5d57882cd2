import errno
import hashlib
import math
import os
import stat
import subprocess
import sys
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import splitrate
from splitrate import cli, functions, splitting
from splitrate.rates import TightnessCase


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def _parse_kv(out):
    values = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        values[key] = value
    return values


# -- rate ---------------------------------------------------------------------


def test_rate_with_point(capsys):
    code, out = run_cli(["rate", "--sigma", "1", "--beta", "4", "--alpha", "1", "--gamma", "0.5"], capsys)
    assert code == 0
    values = _parse_kv(out)
    assert float(values["theoretical_rate"]) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert float(values["alpha_upper_bound"]) == pytest.approx(1.5, abs=1e-15)
    assert float(values["optimal_rate"]) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_rate_degenerate_point(capsys):
    code, out = run_cli(["rate", "--sigma", "1", "--beta", "1", "--alpha", "1", "--gamma", "1"], capsys)
    assert code == 0
    assert float(_parse_kv(out)["theoretical_rate"]) == 0.0


def test_rate_optimal_triple_only(capsys):
    code, out = run_cli(["rate", "--sigma", "1", "--beta", "4"], capsys)
    assert code == 0
    values = _parse_kv(out)
    assert "theoretical_rate" not in values
    assert float(values["optimal_alpha"]) == 1.0
    assert float(values["optimal_gamma"]) == 0.5
    assert float(values["optimal_rate"]) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_rate_dual_constants(capsys):
    code, out = run_cli(
        ["rate", "--sigma", "1", "--beta", "4", "--theta", "1", "--zeta", "2"], capsys
    )
    assert code == 0
    values = _parse_kv(out)
    assert float(values["sigma_hat"]) == 0.25
    assert float(values["beta_hat"]) == 4.0
    assert float(values["kappa"]) == 16.0
    assert float(values["dual_optimal_rate"]) == pytest.approx(0.6, abs=1e-15)


#: ``splitrate rate`` stdout, byte for byte: the README's two examples and a
#: --gamma-only call on the default spectrum
RATE_STDOUT = {
    "point": (
        ["--sigma", "1", "--beta", "4", "--alpha", "1", "--gamma", "0.5"],
        "theoretical_rate = 0.33333333333333331\n"
        "alpha_upper_bound = 1.5\n"
        "optimal_alpha = 1\n"
        "optimal_gamma = 0.5\n"
        "optimal_rate = 0.33333333333333331\n",
    ),
    "dual": (
        ["--sigma", "1", "--beta", "10", "--theta", "1", "--zeta", "3"],
        "optimal_alpha = 1\n"
        "optimal_gamma = 0.31622776601683794\n"
        "optimal_rate = 0.51949385329591569\n"
        "sigma_hat = 0.10000000000000001\n"
        "beta_hat = 9\n"
        "kappa = 90\n"
        "dual_optimal_gamma = 1.0540925533894598\n"
        "dual_optimal_rate = 0.80928465212348\n",
    ),
    "gamma-only": (
        ["--gamma", "0.3"],
        "alpha_upper_bound = 1.3\n"
        "optimal_alpha = 1\n"
        "optimal_gamma = 0.31622776601683794\n"
        "optimal_rate = 0.51949385329591569\n",
    ),
}


@pytest.mark.parametrize("case", sorted(RATE_STDOUT))
def test_rate_stdout_bytes(capsys, case):
    flags, expected = RATE_STDOUT[case]
    code, out = run_cli(["rate", *flags], capsys)
    assert code == 0
    assert out == expected


def test_rate_alpha_without_gamma_exits_2(capsys):
    code, _ = run_cli(["rate", "--sigma", "1", "--beta", "4", "--alpha", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("flag,needs", [("--theta", "--zeta"), ("--zeta", "--theta")])
def test_rate_gain_without_its_pair_exits_2(capsys, flag, needs):
    code = cli.main(["rate", "--sigma", "1", "--beta", "4", flag, "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{flag} requires {needs}" in captured.err


def test_bad_flag_usage_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["rate", "--sigma", "not-a-number"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


def test_invalid_numeric_flags_exit_2(capsys):
    code, _ = run_cli(["rate", "--sigma", "-1", "--beta", "4"], capsys)
    assert code == 2


# -- run ----------------------------------------------------------------------


def test_run_default_is_tight(tmp_path, capsys):
    out_path = tmp_path / "run.csv"
    code, out = run_cli(["run", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == cli.REPORT_HEADER
    row = lines[1].split(",")
    assert row[-1] == "tight"
    assert abs(float(row[2]) - float(row[3])) <= 1e-9
    body = out_path.read_text().splitlines()
    assert body[: len(lines)] == lines  # stdout is the report part of the file
    assert cli.TRACE_HEADER in body
    # trace rows follow the trace header: k,dist,ratio
    trace_start = body.index(cli.TRACE_HEADER) + 1
    first = body[trace_start].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0


def test_run_zero_start_is_bounded_with_length_one_trace(tmp_path, capsys):
    # the start is the fixed point, so there is no rate to fit: the CSV is
    # still written, but the run says so and does not exit 0
    out_path = tmp_path / "run.csv"
    code = cli.main(["run", "--start", "zero", "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert code == 4
    assert "too short to fit a rate" in err
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "nan"  # empirical undefined from a zero start
    assert row[-1] == "bounded"
    body = out_path.read_text().splitlines()
    trace_rows = body[body.index(cli.TRACE_HEADER) + 1 :]
    assert len(trace_rows) == 1
    assert trace_rows[0].startswith("0,0,")


def test_run_too_short_to_fit_exits_4(capsys):
    code = cli.main(["run", "--mode", "admm", "--K", "2", "--idx-sigma", "0", "--iters", "3"])
    out, err = capsys.readouterr()
    assert code == 4
    assert err.count("\n") == 1 and "too short to fit a rate" in err
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "nan"


def test_run_infeasible_exits_3(capsys):
    code, out = run_cli(["run", "--alpha", "1.95", "--gamma", "2.0"], capsys)
    assert code == 3
    row = out.strip().splitlines()[1].split(",")
    assert row[-1] == "infeasible-diverged"
    assert row[3] == "nan"


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--alpha", "inf", "--gamma", "0.3"],
        ["sweep", "--alpha", "1.0", "--gamma", "inf"],
        ["sweep", "--alpha", "nan", "--gamma", "0.3"],
        ["run", "--gamma", "inf"],
        ["run", "--alpha", "inf"],
        ["run", "--alpha", "1.0", "--gamma", "nan"],
        ["sweep", "--tol", "inf", "--alpha", "0.5,1", "--gamma", "0.3"],
        ["run", "--tol", "inf"],
    ],
)
def test_non_finite_point_exits_2(args, capsys):
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert "positive and finite" in err
    assert "--tol" not in args or "'tol'" in err


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--seed", "-1", "--alpha", "1", "--gamma", "0.3"],
        ["sweep", "--seed", "-1", "--alpha", "1", "--gamma", "0.3", "--start", "random"],
        ["run", "--seed", "-1", "--start", "random"],
    ],
)
def test_negative_seed_exits_2_naming_the_key(args, capsys):
    assert cli.main(args) == 2
    assert "'seed'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--alpha", "1e308,1", "--gamma", "1e308"],
        ["sweep", "--gamma", "1e308", "--start", "random"],
        ["sweep", "--mode", "admm", "--alpha", "1", "--gamma", "1e308"],
        ["run", "--alpha", "1", "--gamma", "1e308"],
        ["rate", "--alpha", "1", "--gamma", "1e308"],
    ],
)
def test_a_step_size_whose_product_with_beta_overflows_exits_2(args, capsys):
    # rejected before any worst start or run computes the product, so no
    # floating-point warning is raised on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gamma * beta must be finite" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--alpha", "1e308", "--gamma", "1e-300"],
        ["sweep", "--alpha", "1,1e308", "--gamma", "1e-300"],
        ["rate", "--alpha", "1e308", "--gamma", "1e-300"],
        ["sweep", "--alpha", "1e308", "--gamma", "1e-300"],
    ],
)
def test_a_point_whose_rate_bound_overflows_exits_2(args, capsys):
    # |1 - alpha| + alpha * term overflowed to inf: this printed numpy's
    # "overflow encountered in add" and then a row "theoretical=inf ...
    # bounded" (run exited 4, sweep 0), or "theoretical_rate = inf" (exit 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines == ["error: the rate bound must be finite, got an overflow at alpha=1e+308, gamma=1e-300"]


@pytest.mark.parametrize("command", ["sweep", "run"])
def test_an_admm_step_size_whose_engine_products_overflow_exits_2(command, capsys):
    # the bound's gamma * beta_hat = 1e304 is finite, but the engine's
    # gamma * nu**2 = 1e309 is not: this printed an overflow warning and a
    # row "theoretical=1, empirical=nan, verdict=bounded", and exited 0
    args = [command, "--mode", "admm", "--sigma", "1e5", "--beta", "1e6", "--zeta", "100"]
    args += ["--alpha", "1", "--gamma", "1e305"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gamma * nu**2 must be finite" in captured.err


def test_run_dual_and_admm_modes_tight(capsys):
    for mode in ("dual-dr", "admm"):
        code, out = run_cli(["run", "--mode", mode], capsys)
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[-1] == "tight", f"mode {mode}: {row}"


def test_run_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text(
        "sigma = 1.0\n"
        "beta = 4.0\n"
        "K = 2\n"
        "idx_sigma = 0\n"
        "# a comment line\n"
        "alpha_grid = 1.0\n"
        "gamma_grid = 0.5\n"
        "iters = 40\n"
    )
    code, out = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[0]) == 1.0 and float(row[1]) == 0.5
    assert float(row[2]) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert row[-1] == "tight"


def test_run_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("sigma = 1.0\nbeta = 4.0\n")
    code, out = run_cli(["run", "--config", str(cfg), "--beta", "10", "--alpha", "1", "--gamma", "0.5"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    # beta 10 at gamma 0.5: the large-curvature term (5-1)/(5+1) dominates
    assert float(row[2]) == pytest.approx(4.0 / 6.0, abs=1e-15)


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("sigm = 1.0\n")
    code, _ = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2


def test_config_rejects_a_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("seed = 1\n# the same key again\nseed = 2\n")
    assert cli.main(["sweep", "--config", str(cfg), "--alpha", "1", "--gamma", "0.3"]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:3: key 'seed' is already set on line 1" in err


@pytest.mark.parametrize("key, flag", [("alpha_grid", "--alpha"), ("gamma_grid", "--gamma"), ("alpha_grid", "--alpha=0.5,0.6")])
def test_run_rejects_a_config_grid_of_many_values(tmp_path, capsys, key, flag):
    # the many values come from the file, or from the flag where it carries them
    cfg = tmp_path / "conf.txt"
    cfg.write_text(f"{key} = 1.5, 0.5\n")
    assert cli.main(["run", *(["--config", str(cfg)] if "=" not in flag else [flag])]) == 2
    assert f"{key!r} holds 2 values" in capsys.readouterr().err
    # the flag still overrides the file
    code, out = run_cli(["run", "--config", str(cfg), flag.split("=")[0], "0.5"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[0 if key == "alpha_grid" else 1]) == 0.5


@pytest.mark.parametrize(
    "key, flag, value",
    [
        ("sigma", "--sigma", "0.5"),
        ("beta", "--beta", "4"),
        ("theta", "--theta", "0.5"),
        ("zeta", "--zeta", "2"),
        ("K", "--K", "6"),
        ("idx_sigma", "--idx-sigma", "0,1"),
        ("mode", "--mode", "admm"),
        ("iters", "--iters", "30"),
        ("tol", "--tol", "1e-10"),
        ("seed", "--seed", "3"),
        ("start", "--start", "random"),
        ("pairing", "--pairing", "aligned"),
        ("alpha_grid", "--alpha", "0.5,1.0"),
        ("gamma_grid", "--gamma", "log:0.1:1:3"),
    ],
)
def test_config_key_and_flag_give_the_same_config(tmp_path, key, flag, value):
    conf = tmp_path / "conf.txt"
    conf.write_text(f"{key} = {value}\n")
    parser = cli.build_parser()
    from_file = cli._config_from_args(parser.parse_args(["sweep", "--config", str(conf)]))
    from_flag = cli._config_from_args(parser.parse_args(["sweep", flag, value]))
    assert from_file == from_flag != cli.SweepConfig()


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # main keeps the parser it built on its first call; the second call, of
    # another command, parses with it and prints what a fresh parser's
    # command prints
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    argvs = (["rate", "--sigma", "1", "--beta", "4"], ["sweep", "--alpha", "0.5,1.0", "--gamma", "0.1,0.3"])
    outs = [run_cli(argv, capsys) for argv in argvs]
    assert len(built) == 1
    for argv, out in zip(argvs, outs):
        args = build().parse_args(argv)
        assert (args.func(args), capsys.readouterr().out) == out


# -- sweep --------------------------------------------------------------------


def _sweep_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == cli.REPORT_HEADER
    return [l.split(",") for l in lines[1:]]


def test_sweep_schema_and_verdicts(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    gamma_star = 1.0 / math.sqrt(10.0)
    code, _ = run_cli(
        [
            "sweep",
            "--alpha", "0.5,1.0,1.3",
            "--gamma", f"{0.5 * gamma_star},{gamma_star},{3.0 * gamma_star}",
            "--iters", "60",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    rows = _sweep_rows(text)
    assert len(rows) == 9
    tight_labels = {c.value for c in TightnessCase} - {"FeasibleNotClassified", "Infeasible"}
    for row in rows:
        case, verdict = row[4], row[6]
        if case in tight_labels:
            assert verdict == "tight", row
        elif case == "FeasibleNotClassified":
            assert verdict == "bounded", row
            assert float(row[5]) >= -1e-9  # gap: empirical never exceeds the bound
        else:
            # a bound >= 1 does not force divergence (the bound is loose out
            # there); a diverging coefficient does
            assert verdict in {"infeasible-diverged", "bounded"}, row
            if verdict == "bounded":
                assert float(row[5]) >= -1e-9
    # the large-gamma, large-alpha corner really does diverge
    assert any(r[6] == "infeasible-diverged" for r in rows)
    assert "# verdicts:" in text
    assert "# max_abs_gap_tight" in text


def test_sweep_rows_sorted_by_alpha_then_gamma(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _ = run_cli(
        ["sweep", "--alpha", "1.0,0.5", "--gamma", "2.0,0.5", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    rows = _sweep_rows(out_path.read_text())
    keys = [(float(r[0]), float(r[1])) for r in rows]
    assert keys == sorted(keys)


def test_sweep_dual_mode_matches_hatted_constants(tmp_path, capsys):
    # dual sweep labels and verdicts follow the hatted constants; the crossed
    # pairing makes attained-region points tight
    out_path = tmp_path / "dual.csv"
    s_hat, b_hat = 1.0 / 10.0, 9.0
    gamma_star = 1.0 / math.sqrt(s_hat * b_hat)
    code, _ = run_cli(
        [
            "sweep",
            "--mode", "dual-dr",
            "--alpha", "0.7,1.0",
            "--gamma", f"{0.4 * gamma_star},{gamma_star},{2.5 * gamma_star}",
            "--iters", "60",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    rows = _sweep_rows(out_path.read_text())
    for row in rows:
        alpha, gamma = float(row[0]), float(row[1])
        case, verdict = row[4], row[6]
        if case in {"CaseI", "CaseII", "CaseIII"}:
            assert verdict == "tight", row
    # spot-check one theoretical value against the hatted formula
    from splitrate.rates import theoretical_rate

    row = rows[0]
    assert float(row[2]) == pytest.approx(
        theoretical_rate(float(row[0]), float(row[1]), s_hat, b_hat), abs=1e-15
    )


def test_sweep_admm_mode_tight(tmp_path, capsys):
    out_path = tmp_path / "admm.csv"
    code, _ = run_cli(
        ["sweep", "--mode", "admm", "--alpha", "0.5,1.0", "--gamma", "0.5,1.05", "--iters", "60", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    rows = _sweep_rows(out_path.read_text())
    for row in rows:
        if row[4] in {"CaseI", "CaseII", "CaseIII"}:
            assert row[6] == "tight", row


def test_sweep_default_grid_structure(tmp_path, capsys):
    # the default 20x20 grid: every attained-region point measures tight,
    # every feasible-but-unclassified point stays within the bound
    out_path = tmp_path / "default.csv"
    code, _ = run_cli(["sweep", "--out", str(out_path)], capsys)
    assert code == 0
    rows = _sweep_rows(out_path.read_text())
    assert len(rows) == 400
    seen_tight = seen_fnc = False
    for row in rows:
        case, verdict = row[4], row[6]
        if case in {"CaseI", "CaseII", "CaseIII"}:
            assert verdict == "tight", row
            seen_tight = True
        elif case == "FeasibleNotClassified":
            assert verdict == "bounded", row
            assert float(row[5]) >= -1e-9
            seen_fnc = True
    assert seen_tight and seen_fnc


def test_sweep_empty_gamma_grid_exits_2(capsys):
    code, _ = run_cli(["sweep", "--alpha", "1.0", "--gamma", ""], capsys)
    assert code == 2


def test_sweep_bad_grid_spec_exits_2(capsys):
    code, _ = run_cli(["sweep", "--alpha", "linear:0:1", "--gamma", "1.0"], capsys)
    assert code == 2
    code, _ = run_cli(["sweep", "--alpha", "log:-1:1:5", "--gamma", "1.0"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "alpha, gamma, message",
    [
        # one point past the cap, as the product of two grids that each fit
        ("linear:0.1:1.9:101", "log:0.1:1:9901", "at most 1000000 grid points, got 1000001"),
        ("linear:0.1:1.9:100000", "log:0.1:1:100000", "at most 1000000 grid points, got 10000000000"),
        # one spec past the cap, rejected before its values are made
        ("linear:0.1:1.9:1000001", "1.0", "grid count must be at most 1000000, got 1000001"),
        ("1.0", "log:0.1:1:10000000000", "grid count must be at most 1000000, got 10000000000"),
    ],
)
def test_a_grid_past_the_cap_exits_2_before_it_is_made(monkeypatch, capsys, alpha, gamma, message):
    # the cap is checked before meshgrid, and a spec's count before
    # linspace/geomspace: no run, bound or point array is made
    def made(*args, **kwargs):
        raise AssertionError("a grid past the cap was made")

    monkeypatch.setattr(cli.np, "meshgrid", made)
    monkeypatch.setattr(cli, "run_rows", made)
    assert cli.main(["sweep", "--alpha", alpha, "--gamma", gamma]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_parse_grid_forms():
    assert cli.parse_grid("1,2,3") == (1.0, 2.0, 3.0)
    lin = cli.parse_grid("linear:0:1:5")
    assert lin == (0.0, 0.25, 0.5, 0.75, 1.0)
    log = cli.parse_grid("log:0.01:100:5")
    assert log[0] == pytest.approx(0.01) and log[-1] == pytest.approx(100.0)
    assert cli.parse_grid("linear:3:9:1") == (3.0,)
    with pytest.raises(cli.ConfigError):
        cli.parse_grid("")
    with pytest.raises(cli.ConfigError):
        cli.parse_grid("linear:1:2:0")
    # a multi-point spec needs finite endpoints and a finite span; one point is the endpoint as given
    for spec in ("log:1:inf:3", "linear:-inf:1:3", "linear:0:nan:2", "linear:1e308:-1e308:3"):
        with pytest.raises(cli.ConfigError, match="must be finite"):
            cli.parse_grid(spec)
    assert cli.parse_grid("log:1:inf:1") == (1.0,)


@pytest.mark.parametrize("flag, spec", [("--gamma", "log:1:inf:3"), ("--alpha", "linear:1e308:-1e308:3")])
def test_a_grid_spec_that_is_not_finite_exits_2(capsys, flag, spec):
    # linspace and geomspace warned of it, which the suite makes an error
    grids = {"--alpha": "1.0", "--gamma": "1.0", flag: spec}
    assert cli.main(["sweep", *(arg for item in grids.items() for arg in item)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err


def test_report_float_format_is_full_precision():
    columns = (
        [1.0],
        [1.0 / math.sqrt(10.0)],
        [0.1 + 0.2],
        [float("nan")],
        [TightnessCase.CASE_I],
        [float("nan")],
        ["bounded"],
    )
    row = cli.render_sweep_csv(columns).splitlines()[1]
    assert "0.31622776601683794" in row
    assert "0.30000000000000004" in row
    assert row.split(",")[3] == "nan"


def _one_format_per_row(columns):
    """The report lines as they were made before each grid value was
    formatted once: every field of every row formatted in place."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return [cli.REPORT_HEADER] + [
        "%.17g,%.17g,%.17g,%.17g,%s,%.17g,%s" % (a, g, t, e, case.value, d, verdict)
        for a, g, t, e, case, d, verdict in rows
    ]


# grid values with repeats, both zeros, subnormals and values near overflow
GRID_VALUES = st.sampled_from(
    [0.1, 1 / 3, 1.0, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308]
)
REPORT_FLOATS = st.floats() | st.sampled_from([math.nan, -0.0, 5e-324, 1e-300])


@st.composite
def report_columns(draw):
    """Report columns over a drawn grid: axes of one value or several, each
    with repeated values, and per-point floats, cases and verdicts."""
    axes = [draw(st.lists(GRID_VALUES | st.floats(allow_nan=False), min_size=1, max_size=5)) for _ in range(2)]
    alphas, gammas = (grid.ravel() for grid in np.meshgrid(sorted(axes[0]), sorted(axes[1]), indexing="ij"))
    per_point = lambda values: draw(st.lists(values, min_size=alphas.size, max_size=alphas.size))
    theoretical, empirical, gap = (np.array(per_point(REPORT_FLOATS)) for _ in range(3))
    cases = np.array(per_point(st.sampled_from(list(TightnessCase))), dtype=object)
    verdicts = np.array(per_point(st.sampled_from(cli.VERDICTS)))
    return alphas, gammas, theoretical, empirical, cases, gap, verdicts


@given(report_columns())
def test_report_lines_format_each_grid_value_as_every_row_did(columns):
    assert cli._report_text(columns) == "\n".join(_one_format_per_row(columns))


@given(report_columns(), st.integers(min_value=1, max_value=8))
def test_a_report_of_many_chunks_is_the_text_of_one_row_at_a_time(columns, chunk):
    # a drawn grid holds up to 25 points: with chunks of 1 to 8 rows, the
    # body is formatted in several calls, the last one short or full
    with mock.patch.object(cli, "REPORT_CHUNK", chunk):
        assert cli._report_text(columns) == "\n".join(_one_format_per_row(columns))


def _trace_one_row_at_a_time(distances, step_ratios):
    """The trace CSV formatted one f-string per row over numpy scalars."""
    lines = [cli.TRACE_HEADER]
    for k, dist in enumerate(distances):
        ratio = step_ratios[k] if k < step_ratios.size else math.nan
        lines.append(f"{k},{dist:.17g},{ratio:.17g}")
    return "\n".join(lines) + "\n"


#: trace entries: any float, NaN and infinities included, signed zeros and subnormals
trace_values = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, math.nan, -math.inf])


@given(st.lists(trace_values, max_size=30), st.integers(0, 3), st.integers(1, 8))
def test_a_trace_of_many_chunks_is_the_text_of_one_row_at_a_time(values, missing, chunk):
    # one ratio per step, or fewer (NaN stands in for the missing ones), in
    # chunks of 1 to 8 rows
    distances = np.array(values, dtype=float)
    ratios = distances[::-1][: max(len(values) - 1 - missing, 0)]
    with mock.patch.object(cli, "REPORT_CHUNK", chunk):
        assert cli.render_trace_csv(distances, ratios) == _trace_one_row_at_a_time(distances, ratios)


def test_a_long_trace_is_the_text_of_one_row_at_a_time():
    # 10,001 rows, more than two chunks of REPORT_CHUNK rows
    distances = np.geomspace(1.0, 1e-320, 10_001)
    distances[[5, 4100, 9000]] = [np.nan, np.inf, -0.0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = distances[1:] / distances[:-1]
    text = cli.render_trace_csv(distances, ratios)
    assert text == _trace_one_row_at_a_time(distances, ratios)
    assert text.count("\n") == 10_002 and text.endswith("\n10000,9.9998886718268301e-321,nan\n")


def _cli_subprocess(args, **env):
    """``python -m splitrate`` with ``args`` in a fresh interpreter that
    imports this checkout's package, with extra environment variables."""
    src = str(Path(splitrate.__file__).resolve().parents[1])
    environ = {**os.environ, "PYTHONPATH": src, **env}
    return subprocess.run(
        [sys.executable, "-m", "splitrate", *args], env=environ, capture_output=True, text=True, timeout=120
    )


def test_python_dash_m_runs_the_cli():
    proc = _cli_subprocess(["rate"])
    assert proc.returncode == 0, proc.stderr
    assert float(_parse_kv(proc.stdout)["optimal_rate"]) == pytest.approx(0.5194938532959157, abs=1e-15)


def test_an_admm_step_size_whose_inverse_overflows_exits_2():
    # 1 / gamma overflows, so the worst start's u would be inf (and 0 * inf
    # = NaN off its coordinate): this printed numpy RuntimeWarnings and a
    # row "empirical=nan, verdict=bounded", and exited 4. The step size is
    # rejected before any block runs, by a message that names it
    proc = _cli_subprocess(["run", "--mode", "admm", "--gamma", "1e-310"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "1 / gamma must be finite" in lines[0] and "gamma=1e-310" in lines[0]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_admm_relaxation_whose_double_overflows_exits_2(command, capsys):
    # 2 * alpha overflowed to inf: this printed three numpy RuntimeWarnings
    # and a row "empirical=nan, verdict=bounded", and exited 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--mode", "admm", "--alpha", "9e307", "--gamma", "0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: 2 * alpha must be finite"), captured.err


@pytest.mark.parametrize(
    "args, sha256",
    [
        (["--alpha", "9e307", "--gamma", "0.3"], "ee8ef7846f0b226f9fb3be983842a8c3acc9a98655d8e4c24cbe61bf1ba0b845"),
        (["--mode", "dual-dr", "--alpha", "1e300"], "223ba35e17da23a88bdff8ee335e25fff6ed6146ef9ab62c80ec043d2bbfbc90"),
    ],
)
def test_a_run_whose_distances_overflow_is_reported_with_no_warning(tmp_path, capsys, args, sha256):
    # the first step's squared distance overflows: this printed numpy's
    # "overflow encountered in vecdot" before the same row and exit 3. The
    # divergence guard reports the run, and the bytes are those pinned
    # before the warning was silenced
    out = tmp_path / "run.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", *args, "--out", str(out)]) == 3
    assert capsys.readouterr().err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
    assert out.read_text().splitlines()[1].endswith(",infeasible-diverged")


@pytest.mark.parametrize("start", ["worst", "random"])
@pytest.mark.parametrize("mode", ["dual-dr", "admm"])
def test_the_command_line_keeps_no_dual_curvatures_while_it_runs(monkeypatch, capsys, mode, start):
    # the command line makes the dual curvatures only to pick worst starts,
    # and none is left once they are picked: dual DR's engine makes its own.
    # They were made for every dual-mode run and kept until it ended, a row
    # of 8 MB beside the engine's at --K 1000000
    made = []

    def dual_function(problem):
        quad = functions.dual_function(problem)
        made.append(weakref.ref(quad))
        return quad

    def run_rows(*args, **kwargs):
        assert all(ref() is None for ref in made)
        return splitting.run_rows(*args, **kwargs)

    monkeypatch.setattr(cli, "dual_function", dual_function)
    monkeypatch.setattr(cli, "run_rows", run_rows)
    assert cli.main(["run", "--mode", mode, "--start", start, "--K", "64"]) == 0
    assert len(made) == (start == "worst")
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_dimension_past_memory_exits_2(command, capsys):
    # 2**59 one-byte flags are 512 PiB, past every address space, so the
    # allocation fails before it touches a page: this exited 1 with a
    # MemoryError traceback
    assert cli.main([command, "--K", str(2**59)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate"), captured.err


def _bytes_per_blas_thread_count(tmp_path, args):
    """The ``--out`` bytes of ``args`` run in fresh interpreters with one
    and with two BLAS threads."""
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.csv"
        proc = _cli_subprocess([*args, "--out", str(out)], OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    return outputs


def test_run_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a dot of 20,000 elements may be split over BLAS threads; the row norms
    # must not let that reach the output
    outputs = _bytes_per_blas_thread_count(tmp_path, ["run", "--K", "20000", "--start", "random"])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mode", splitting.MODES)
def test_sweep_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, mode):
    # rows of 20,000 elements are short, so a block of them is stepped
    # whole, but each row is normed in chunks
    grid = ["--alpha", "linear:0.1:1.9:2", "--gamma", "log:0.02:6:2"]
    outputs = _bytes_per_blas_thread_count(tmp_path, ["sweep", "--mode", mode, "--K", "20000", *grid])
    assert outputs[0] == outputs[1]
    # a header and the four points of the grid
    assert sum(not line.startswith(b"#") for line in outputs[0].splitlines()) == 5


# -- --out --------------------------------------------------------------------


def test_a_run_written_over_a_longer_sweep_is_a_fresh_runs_bytes(tmp_path, capsys):
    fresh, rewritten = tmp_path / "fresh.csv", tmp_path / "rewritten.csv"
    assert cli.main(["sweep", "--out", str(rewritten)]) == 0
    assert cli.main(["sweep", "--out", str(rewritten)]) == 0
    longer = rewritten.stat().st_size
    assert cli.main(["run", "--out", str(rewritten)]) == 0
    assert cli.main(["run", "--out", str(fresh)]) == 0
    capsys.readouterr()
    assert rewritten.read_bytes() == fresh.read_bytes()
    assert len(fresh.read_bytes()) < longer


def test_a_new_out_file_has_the_mode_that_open_gives(tmp_path, capsys):
    made, opened = tmp_path / "made.csv", tmp_path / "opened.csv"
    umask = os.umask(0o027)
    try:
        assert cli.main(["run", "--out", str(made)]) == 0
        with open(opened, "w"):
            pass
    finally:
        os.umask(umask)
    capsys.readouterr()
    assert made.stat().st_mode == opened.stat().st_mode == stat.S_IFREG | 0o640


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_may_name_a_file_that_is_not_regular(command, capsys):
    assert cli.main([command, "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_out_naming_a_directory_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"



def test_a_write_that_fails_half_way_leaves_the_file_ending_where_it_stopped(monkeypatch, tmp_path, capsys):
    # the file held a longer sweep: none of its bytes may stay past the end
    # of what the failed write wrote
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--out", str(out)]) == 0
    assert cli.main(["run", "--out", str(tmp_path / "run.csv")]) == 0
    capsys.readouterr()
    write = os.write
    calls = []

    def half_then_full_disk(fd, data):
        # a short write, then no space for the rest
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write(fd, data[: len(data) // 2])

    monkeypatch.setattr(os, "write", half_then_full_disk)
    assert cli.main(["run", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    text = (tmp_path / "run.csv").read_bytes()
    assert calls == [len(text), len(text) - len(text) // 2]
    assert out.read_bytes() == text[: len(text) // 2]
