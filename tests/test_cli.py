import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import splitrate
from splitrate import cli
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
    assert body[0] == cli.REPORT_HEADER
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


@pytest.mark.parametrize("key, flag", [("alpha_grid", "--alpha"), ("gamma_grid", "--gamma")])
def test_run_rejects_a_config_grid_of_many_values(tmp_path, capsys, key, flag):
    cfg = tmp_path / "conf.txt"
    cfg.write_text(f"{key} = 1.5, 0.5\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert f"{key!r} holds 2 values" in capsys.readouterr().err
    # the flag still overrides the file
    code, out = run_cli(["run", "--config", str(cfg), flag, "0.5"], capsys)
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
    from_file = cli._config_from_args(parser.parse_args(["sweep", "--config", str(conf)]), grid_flags=True)
    from_flag = cli._config_from_args(parser.parse_args(["sweep", flag, value]), grid_flags=True)
    assert from_file == from_flag != cli.SweepConfig()


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


def test_sweep_deterministic_bytes(tmp_path, capsys):
    args = [
        "sweep",
        "--alpha", "linear:0.2:1.4:5",
        "--gamma", "log:0.05:3:5",
        "--seed", "11",
        "--start", "random",
    ]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _ = run_cli(args + ["--out", str(path)], capsys)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


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


def test_default_worst_start_sweeps_match_the_reference_digests(tmp_path, capsys):
    reference = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())
    for mode, digest in reference["sweep_worst_sha256"].items():
        out_path = tmp_path / f"{mode}.csv"
        code, _ = run_cli(["sweep", "--mode", mode, "--start", "worst", "--out", str(out_path)], capsys)
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest, mode


#: SHA-256 of the default ``sweep --start random --seed 7`` CSV in each mode
RANDOM_SEED_7_SHA256 = {
    "primal-dr": "da9537c41d639e5ba39ac1fd3f2069404d6f33a969b190afb37e95ffc04252ba",
    "dual-dr": "7a9f7b5e815e34a462b06c36f4e0085ac775a4db89502778ee28e3678abb12e4",
    "admm": "f2c1bdb2ed7145e52b62fa80b1d575fc37ecd46244f6feee7c5f731a5bd565d9",
}


@pytest.mark.parametrize("mode", sorted(RANDOM_SEED_7_SHA256))
def test_default_random_start_sweeps_keep_their_digests(tmp_path, capsys, mode):
    out_path = tmp_path / f"{mode}.csv"
    code, _ = run_cli(
        ["sweep", "--mode", mode, "--start", "random", "--seed", "7", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == RANDOM_SEED_7_SHA256[mode]


RANDOM_SEED_3 = ("--start", "random", "--seed", "3")

#: SHA-256 of the ``run --out`` file (report row and distance trace) in each
#: mode, at the defaults and from a seeded random start
RUN_SHA256 = {
    ("primal-dr", ()): "c1cd9912e8bdac458b14deaf83ba3ab7b73d354b4a7f304c7195df70a78295c0",
    ("primal-dr", RANDOM_SEED_3): "5f5a96363b0d80a529a6e8a50797008e63b341fd8028719961575b2d020a263f",
    ("dual-dr", ()): "42259764cfe94ae645b285373f472000d770a979861286a1beac510b001ca07c",
    ("dual-dr", RANDOM_SEED_3): "276143bdcb8c019f1c85764c3b6bbe1a89c714b15c58ae9413b6c971ee1aed4a",
    ("admm", ()): "aa5ff417e95b5c937b843c7bd9af7c6e35ba3eabbe2ed1bcaafd36913d77c97c",
    ("admm", RANDOM_SEED_3): "31722d9c227de3ad1e0a718179ca1427329782affc3aece9e31140b29f8a9b0b",
}


@pytest.mark.parametrize("mode, flags", sorted(RUN_SHA256))
def test_run_out_files_keep_their_digests(tmp_path, capsys, mode, flags):
    out_path = tmp_path / "run.csv"
    code, out = run_cli(["run", "--mode", mode, *flags, "--out", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text()
    assert text.startswith(out)  # stdout is the report part of the file
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == RUN_SHA256[mode, flags]


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


def test_run_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a dot of 20,000 elements may be split over BLAS threads; the row norms
    # must not let that reach the output
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.csv"
        proc = _cli_subprocess(
            ["run", "--K", "20000", "--start", "random", "--out", str(out)],
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
