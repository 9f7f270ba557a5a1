import cmath
import csv
import importlib
import inspect
import io
import json
import math
import os
import pathlib
import random
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iskennedy import design_at_optimal_beta, make_design, p_err_ideal
from iskennedy.cli import linspace, main, scenario_fails

from oracles import displaced_squeezed_pmf, receiver_output_pmf


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_bounds_unit_energy_row():
    code, out = run_cli(["bounds", "--sweep", "N:0.5:1.5:3"])
    assert code == 0
    rows = parse_csv(out)
    row = next(r for r in rows if float(r["N"]) == 1.0)
    assert float(row["db_hb_dss_vs_hb_cs"]) == pytest.approx(-17.39, abs=0.05)
    assert float(row["db_sql_dss_vs_hb_cs"]) == pytest.approx(-2.94, abs=0.05)


def test_bounds_zero_energy_row():
    code, out = run_cli(["bounds", "--sweep", "N:0:1:2"])
    assert code == 0
    row = parse_csv(out)[0]
    for col in ("hb_cs", "sql_cs", "hb_dss", "sql_dss"):
        assert float(row[col]) == 0.5
    assert row["db_sql_cs_vs_hb_cs"] == ""


def test_ideal_gains_stay_finite_where_p_err_is_subnormal():
    # N in [13.095, 13.147]: p_err is subnormal, sql_cs / p_err overflows, and the gain
    # cells once read inf, so the block exited 3 ("non-finite metric").
    code, out = run_cli(["ideal", "--sweep", "N:13:13.2:41"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 41
    db_columns = [c for c in rows[0] if "db" in c]
    assert len(db_columns) == 5
    subnormal = [r for r in rows if 0.0 < float(r["p_err"]) < sys.float_info.min]
    assert subnormal and all(r["gain_db_vs_sql_cs"] for r in subnormal)
    for row in rows:
        for c in db_columns:
            assert row[c] == "" or math.isfinite(float(row[c])), (row["N"], c)


@pytest.mark.parametrize("args", [["detector", "--N", "0"],
                                  ["thresholds", "--sweep", "N:0:3:4", "--M", "3"]])
def test_detector_zero_energy_row_is_a_coin_flip(args):
    # No signal and no darks: both hypotheses are the vacuum, as in `ideal --N 0`.
    code, out = run_cli(args)
    assert code == 0
    row = parse_csv(out)[0]
    assert (float(row["N"]), row["n_threshold"], float(row["p_err"])) == (0.0, "1", 0.5)
    assert row.get("db_vs_sql_dss", "") == ""


def test_bounds_crossover_row():
    code, out = run_cli(["bounds", "--N", "0.659"])
    row = parse_csv(out)[0]
    assert abs(float(row["db_sql_dss_vs_hb_cs"])) < 0.1


def test_ideal_unit_energy():
    code, out = run_cli(["ideal", "--N", "1.0"])
    row = parse_csv(out)[0]
    assert float(row["p_err"]) == 0.5 * math.exp(-8.0)  # 17-digit round trip
    assert float(row["gain_db_vs_kennedy"]) == pytest.approx(17.4, abs=0.05)


def test_mismatch_matched_equals_ideal():
    code, out = run_cli(["mismatch", "--N", "1.0", "--dr", "0", "--dtheta", "0", "--M", "4"])
    row = parse_csv(out)[0]
    assert float(row["p_err"]) == pytest.approx(p_err_ideal(1.0), rel=1e-12)


def test_thresholds_staircase():
    code, out = run_cli(["thresholds", "--sweep", "N:0.1:2.5:40", "--nu", "1e-2", "--M", "10"])
    rows = parse_csv(out)
    th = [int(r["n_threshold"]) for r in rows]
    assert all(b >= a for a, b in zip(th, th[1:]))
    assert th[-1] > th[0]


def test_populations_output_stage():
    code, out = run_cli(["populations", "--N", "1.0", "--dr", "0.02",
                         "--dtheta", "0.0942477796076938", "--nmax", "8"])
    rows = parse_csv(out)
    assert code == 0
    assert len(rows) == 9
    p0 = [float(r["p_given_0"]) for r in rows]
    assert p0[1] == 0.0 and p0[3] == 0.0  # parity of the symbol-0 state
    assert sum(p0) <= 1.0 + 1e-9
    # symbol 1 against a dense-Fock propagation through the mismatched receiver
    d = design_at_optimal_beta(1.0)
    z_s = (-d.r + 0.02) * cmath.exp(1j * 0.0942477796076938)
    oracle = receiver_output_pmf(d.alpha, d.r, z_s, symbol=1)
    p1 = [float(r["p_given_1"]) for r in rows]
    np.testing.assert_allclose(p1, oracle[:9], atol=1e-12)


@pytest.mark.parametrize("stage", ["input", "nulled", "output"])
@pytest.mark.parametrize("beta, atol", [
    ("0", 1e-12),      # coherent alphabet
    ("1e-20", 1e-9),   # r = 1e-10: the Poisson law stands in, off by O(r)
    (None, 1e-12),     # optimal split: squeezed-vacuum and DSS laws
])
def test_populations_stage_matches_oracle(stage, beta, atol):
    args = ["populations", "--N", "1.0", "--stage", stage, "--nmax", "12"]
    code, out = run_cli(args + (["--beta", beta] if beta else []))
    assert code == 0
    d = make_design(1.0, float(beta)) if beta else design_at_optimal_beta(1.0)
    if stage == "input":
        oracle = [displaced_squeezed_pmf(s * d.alpha, d.r, 0.0) for s in (-1, 1)]
    elif stage == "nulled":
        oracle = [displaced_squeezed_pmf(a, d.r, 0.0) for a in (0.0, 2.0 * d.alpha)]
    else:
        oracle = [receiver_output_pmf(d.alpha, d.r, -d.r, symbol=s) for s in (0, 1)]
    rows = parse_csv(out)
    for symbol in (0, 1):
        got = [float(r[f"p_given_{symbol}"]) for r in rows]
        np.testing.assert_allclose(got, oracle[symbol][:13], atol=atol)


def test_populations_input_stage_normalizes():
    code, out = run_cli(["populations", "--N", "1.0", "--stage", "input", "--nmax", "60"])
    rows = parse_csv(out)
    assert sum(float(r["p_given_1"]) for r in rows) == pytest.approx(1.0, abs=1e-9)
    assert sum(float(r["p_given_0"]) for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_wigner_peak():
    code, out = run_cli(["wigner", "--N", "0", "--beta", "0", "--xmin", "-1", "--xmax", "1",
                         "--pmin", "-1", "--pmax", "1", "--points", "3"])
    rows = parse_csv(out)
    center = next(r for r in rows if float(r["x"]) == 0.0 and float(r["p"]) == 0.0)
    assert float(center["w_symbol0"]) == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_jsonl_format():
    code, out = run_cli(["ideal", "--N", "0.5", "--format", "jsonl"])
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 1
    assert records[0]["p_err"] == pytest.approx(p_err_ideal(0.5), rel=1e-15)


def test_byte_identical_reruns():
    args = ["detector", "--sweep", "N:0.2:2:12", "--eta", "0.8", "--nu", "1e-3", "--M", "3"]
    assert run_cli(args) == run_cli(args)


def test_validate_small_run():
    code, out = run_cli(["validate", "--trials", "50000", "--seed", "20260811"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 6
    assert all(abs(float(r["z_score"])) <= 4.0 for r in rows)


def test_validate_rare_scenario_seed():
    # The N=2.0 mismatch scenario expects 0.039 errors; this seed draws 1 (z = 4.88).
    code, out = run_cli(["validate", "--trials", "1000000", "--seed", "20260839"])
    assert code == 0
    row = next(r for r in parse_csv(out) if r["scenario"].startswith("mismatch dr=0.02 dt=0 "))
    assert int(row["fa_count"]) + int(row["mi_count"]) == 1
    assert float(row["z_score"]) > 4.0


def test_scenario_fails_rule():
    p_rare = 3.8779827168567843e-08  # 0.039 errors expected in 1e6 trials
    assert not scenario_fails(1, 1_000_000, p_rare, 4.88)
    assert not scenario_fails(2, 1_000_000, p_rare, 10.0)
    assert scenario_fails(5, 1_000_000, p_rare, 25.2)
    assert not scenario_fails(0, 1_000_000, 0.0, 0.0)
    assert scenario_fails(1, 1_000_000, 0.0, 0.0)
    # 1000 expected errors: the |z| > 4 rule decides
    assert scenario_fails(1130, 1_000_000, 1e-3, 4.1)
    assert not scenario_fails(1120, 1_000_000, 1e-3, 3.9)


def test_negative_seed_is_a_usage_error_naming_seed(capsys):
    assert main(["validate", "--seed", "-1", "--trials", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "seed" in err


def test_usage_error_exit_code():
    code, _ = run_cli(["bounds", "--sweep", "bogus"])
    assert code == 2
    code, _ = run_cli(["bounds", "--sweep", "eta:0:1:5"])
    assert code == 2


def test_unknown_subcommand_exit_code():
    code, _ = run_cli(["frobnicate"])
    assert code == 2


def test_mismatch_detector_composition_requires_flag():
    code, _ = run_cli(["mismatch", "--N", "1.0", "--dr", "0.02", "--eta", "0.9"])
    assert code == 2
    code, out = run_cli(["mismatch", "--N", "1.0", "--dr", "0.02", "--eta", "0.9",
                         "--nu", "1e-3", "--experimental-detector"])
    assert code == 0
    assert float(parse_csv(out)[0]["p_err"]) > 0


def test_mismatch_detector_composition_noiseless_limit():
    # A lossless detector with a negligible dark rate must reproduce the
    # symbol-1 miss probability of the full-chain dense-Fock oracle.
    dtheta = 0.0942477796076938
    code, out = run_cli(["mismatch", "--N", "1.0", "--dr", "0.02", "--dtheta", str(dtheta),
                         "--M", "3", "--nu", "1e-300", "--experimental-detector"])
    assert code == 0
    row = parse_csv(out)[0]
    accept = {int(n) for n in row["accept_set"].split("|")}
    d = design_at_optimal_beta(1.0)
    oracle = receiver_output_pmf(d.alpha, d.r, (-d.r + 0.02) * cmath.exp(1j * dtheta), symbol=1)
    lumped = list(oracle[:3]) + [oracle[3:].sum()]
    p_mi = sum(p for n, p in enumerate(lumped) if n not in accept)
    assert float(row["p_mi"]) == pytest.approx(p_mi, abs=1e-12)


def test_config_file_defaults_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep config\nN = 2.0\nformat = jsonl\n")
    code, out = run_cli(["--config", str(cfg), "ideal"])
    assert code == 0
    rec = json.loads(out.strip().splitlines()[0])
    assert rec["N"] == 2.0
    # explicit flag wins over the file
    code, out = run_cli(["--config", str(cfg), "ideal", "--N", "0.5"])
    rec = json.loads(out.strip().splitlines()[0])
    assert rec["N"] == 0.5


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    code, _ = run_cli(["--config", str(bad), "ideal"])
    assert code == 2
    code, _ = run_cli(["--config", str(tmp_path / "missing.cfg"), "ideal"])
    assert code == 2


@pytest.mark.parametrize("args, config, message", [
    (["ideal", "--config"], None, "--config needs a path"),
    (["--config", "{cfg}"], "N = 2.0\n", "--config requires a subcommand"),
    (["--config", "{cfg}", "ideal"], "N = 2.0\n = 1\n", "run.cfg:2: empty key"),
])
def test_config_usage_errors_write_one_line(args, config, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config)
    assert main([a.format(cfg=cfg) for a in args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.rstrip().endswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing_dir/x.csv", "."])
def test_an_out_path_that_cannot_be_opened_is_a_usage_error(where, tmp_path, capsys):
    target = tmp_path / where  # a path in a missing directory, and a directory
    assert main(["ideal", "--N", "1", "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot open --out {str(target)!r}: ") and err.count("\n") == 1
    assert not (tmp_path / "missing_dir").exists()


def test_a_failing_validation_row_exits_4_naming_it(monkeypatch, capsys):
    from iskennedy import cli

    row = {"scenario": "forced", "trials": 1000, "seed": 1, "generator": "PCG64",
           "p_err_estimate": 0.6, "p_err_reference": 0.5, "std_error": 0.015,
           "fa_count": 300, "mi_count": 300, "z_score": 6.32}
    passing = {**row, "scenario": "kept", "p_err_estimate": 0.5, "fa_count": 250,
               "mi_count": 250, "z_score": 0.0}
    monkeypatch.setattr(cli, "validation_battery", lambda trials, seed: [passing, row])
    assert main(["validate", "--trials", "1000"]) == 4
    out, err = capsys.readouterr()
    assert [r["scenario"] for r in parse_csv(out)] == ["kept", "forced"]
    assert err == "validation failed: forced: 600 errors, 500 expected, z = 6.32\n"


def test_an_uncovered_composition_exits_3_writing_nothing(capsys):
    args = ["mismatch", "--N", "10", "--dr", "0.02", "--M", "1", "--eta", "0.001", "--nu", "0",
            "--experimental-detector"]
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical consistency failure: incident mass 0.817")
    assert err.count("\n") == 1


def test_out_file(tmp_path):
    target = tmp_path / "table.csv"
    code, out = run_cli(["bounds", "--N", "1.0", "--out", str(target)])
    assert code == 0
    assert out == ""
    rows = parse_csv(target.read_text())
    assert len(rows) == 1


def test_csv_floats_round_trip():
    _, out = run_cli(["ideal", "--N", "0.7"])
    row = parse_csv(out)[0]
    assert float(row["p_err"]) == p_err_ideal(0.7)


def test_metric_selection():
    code, out = run_cli(["ideal", "--N", "1.0", "--metrics", "p_err,gain_db_vs_kennedy"])
    assert code == 0
    rows = parse_csv(out)
    assert set(rows[0]) == {"N", "p_err", "gain_db_vs_kennedy"}
    code, _ = run_cli(["ideal", "--N", "1.0", "--metrics", "not_a_metric"])
    assert code == 2


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "iskennedy.cli", "bounds", "--N", "1.0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("N,")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_reader_closing_the_pipe_ends_the_run_quietly(unbuffered):
    # 3000 rows (~0.5 MB) outgrow the pipe's buffer, so the writer meets the closed pipe.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen(
            [sys.executable, "-m", "iskennedy.cli", "bounds", "--sweep", "N:0.01:3:3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) as proc:
        assert proc.stdout.readline().startswith("N,hb_cs,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == ""


@pytest.mark.parametrize("args", [
    ["mismatch", "--dr", "800"],
    ["mismatch", "--N", "1e200"],
    ["populations", "--N", "1e300"],
    ["populations", "--N", "1e200", "--stage", "input"],
    ["detector", "--N", "1e300"],  # a finite N whose effective photon number overflows
    ["detector", "--N", "1e160"],
    ["thresholds", "--N", "1e300", "--nu", "1e-2", "--M", "3"],
    ["wigner", "--N", "1e300"],
])
def test_an_overflow_is_a_numerical_failure_with_one_line(args, capsys):
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical overflow: ") and err.count("\n") == 1


def test_an_overflow_exits_3_without_a_traceback():
    proc = subprocess.run([sys.executable, "-m", "iskennedy.cli", "mismatch", "--N", "1e200"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("numerical overflow: ") and proc.stderr.count("\n") == 1


# --- usage errors write nothing ------------------------------------------------

def assert_usage_error_writes_nothing(args, tmp_path):
    code, out = run_cli(args)
    assert (code, out) == (2, "")
    target = tmp_path / "table.csv"
    code, out = run_cli(args + ["--out", str(target)])
    assert (code, out) == (2, "")
    assert not target.exists()


@pytest.mark.parametrize("args", [
    ["detector", "--sweep", "delta_r:0:1:3"],
    ["mismatch", "--sweep", "eta:0.1:1:3"],
    ["thresholds", "--sweep", "eta:0.5:1:3"],
    ["mismatch", "--N", "1.0", "--eta", "0.9"],  # composition without --experimental-detector
    ["ideal", "--metrics", "not_a_metric"],
    # a metric named twice, or none
    ["ideal", "--metrics", "p_err,p_err"],
    ["ideal", "--metrics", "p_err, p_err", "--format", "jsonl"],
    ["detector", "--metrics", "p_err,p_fa,p_err"],
    ["ideal", "--metrics", ","],
    ["ideal", "--metrics", ""],
    # outside a model's domain at the first point
    ["detector", "--eta", "2"],
    ["thresholds", "--nu", "-1"],
    ["mismatch", "--eta", "2", "--experimental-detector"],
    ["ideal", "--N", "-1"],
    ["populations", "--dtheta", "4"],
    # inside at the first point of a sweep, outside at the last
    ["detector", "--sweep", "eta:0.5:2:4"],
    ["mismatch", "--sweep", "delta_theta:0:4:3"],
    # malformed sweeps
    ["ideal", "--sweep", "N:0:1:1"],
    ["ideal", "--sweep", "N:1:0:3"],
])
def test_usage_error_before_output(args, tmp_path):
    assert_usage_error_writes_nothing(args, tmp_path)


@pytest.mark.parametrize("args", [
    ["populations", "--sweep", "N:0.1:1:3"],
    ["wigner", "--sweep", "N:0.1:1:3", "--points", "3"],
    ["validate", "--sweep", "N:0.1:1:3", "--trials", "1000"],
    ["validate", "--N", "2.0", "--trials", "1000"],
    ["validate", "--beta", "0.5", "--trials", "1000"],
    ["bounds", "--beta", "0.5"],
    ["ideal", "--beta", "0.5"],
])
def test_options_a_subcommand_does_not_read_are_rejected(args, tmp_path):
    assert_usage_error_writes_nothing(args, tmp_path)


@pytest.mark.parametrize("metrics", ["p_err,p_err", ","])
def test_config_metrics_naming_a_metric_twice_or_none_are_rejected(metrics, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"metrics = {metrics}\n")
    assert_usage_error_writes_nothing(["--config", str(cfg), "ideal"], tmp_path)
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and all(line.startswith("error: --metrics ")
                                         for line in err.splitlines())


@pytest.mark.parametrize("command", ["populations", "wigner", "validate"])
def test_config_sweep_is_rejected_where_nothing_sweeps(command, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sweep = N:0.1:1:3\n")
    assert_usage_error_writes_nothing(["--config", str(cfg), command], tmp_path)


@pytest.mark.parametrize("args", [
    ["ideal", "--sweep", "N:0:inf:3"],
    ["ideal", "--N", "nan"],
    ["detector", "--sweep", "eta:0.5:inf:3"],
    ["detector", "--eta", "nan"],
    ["mismatch", "--dr", "-inf"],
    ["wigner", "--xmax", "inf"],
    ["mismatch", "--M", "0"],
    ["detector", "--M", "-1"],
    ["populations", "--nmax", "-1"],
])
def test_non_finite_and_out_of_range_inputs_are_usage_errors(args, tmp_path):
    assert_usage_error_writes_nothing(args, tmp_path)


def test_runtime_imports_no_scipy():
    probe = ("import sys, iskennedy, iskennedy.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=env, timeout=60)
    assert done.stdout.strip() == "[]"


ROOT = pathlib.Path(__file__).resolve().parents[1]


def readme_curve_invocations() -> list[list[str]]:
    """The README's standard-curve invocations but `validate`, as argument lists."""
    section = (ROOT / "README.md").read_text().split("## Reproducing the standard curves")[1]
    lines = section.split("\n## ")[0].splitlines()
    return [line.split("#")[0].split()[1:] for line in lines
            if line.startswith("iskennedy ") and not line.startswith("iskennedy validate")]


def run_fresh(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env=env, timeout=120).stdout


def test_readme_subcommand_table_and_exit_codes_match_the_parser():
    import iskennedy.cli as cli

    readme = (ROOT / "README.md").read_text()
    table = readme.split("Subcommands, their options, sweeps and columns:")[1].split("\n\n")[1]
    documented = {}
    for line in table.splitlines()[2:]:
        name, options, sweeps, inputs, metrics = (c.strip() for c in line.strip("|").split("|"))
        documented[name.strip("`")] = (
            tuple(o.removeprefix("--") for o in options.strip("`").split()),
            () if sweeps == "none" else tuple(sweeps.split(", ")),
            tuple(inputs.split(", ")), tuple(metrics.split(", ")))
    assert documented == {name: (c.options, c.sweeps, c.inputs, c.metrics)
                          for name, c in cli.COMMANDS.items()}

    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    listed = readme.split("Exit codes: ")[1].split(".")[0]
    assert [int(c) for c in re.findall(r"`(\d+)`", listed)] == sorted(codes)
    listed = cli.__doc__.split("Exit codes: ")[1].split(".")[0]
    assert [int(c) for c in re.findall(r"(\d+) ", listed)] == sorted(codes)


def test_readme_library_use_block_runs():
    import contextlib

    section = (ROOT / "README.md").read_text().split("## Library use")[1]
    code = section.split("```python\n")[1].split("```")[0]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, "README.md", "exec"), {})
    lines = buf.getvalue().splitlines()
    assert len(lines) == code.count("print(") == 5
    assert lines[3].endswith(" True")  # map_set_decision(problem) == rule


def test_package_and_readme_curves_import_no_numpy():
    invocations = readme_curve_invocations()
    assert len(invocations) == 17
    probe = (
        "import contextlib, io, json, sys\n"
        "import iskennedy, iskennedy.cli\n"
        "def numpy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "seen = {'import': numpy()}\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = iskennedy.cli.main(argv)\n"
        "    seen[' '.join(argv)] = [code, *numpy()]\n"
        "print(json.dumps(seen))\n")
    seen = json.loads(run_fresh(probe, json.dumps(invocations)))
    assert seen == {"import": [], **{" ".join(argv): [0] for argv in invocations}}


def test_package_import_loads_every_traced_module():
    # The benchmark's tracer imports iskennedy.cli, then looks each module of its
    # TARGETS up in sys.modules: the package must import all the others eagerly.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import tracing, iskennedy; "
             "print(sorted(({m for m, _, _ in tracing.TARGETS} | set(tracing.MODULES)) - {'cli'}"
             " - {m.partition('.')[2] for m in sys.modules if m.startswith('iskennedy.')}))")
    assert run_fresh(probe, str(ROOT / "bench")).strip() == "[]"


def test_linspace_is_numpy_linspace_bit_for_bit():
    rng = random.Random(20261019)
    specials = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.5, -1.0, 3.0, 4.0, -4.0, 1e300, -1e300)
    cases = 0
    while cases < 20_000:
        kind = cases % 4
        if kind == 0:
            start, stop = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
        elif kind == 1:
            start, stop = rng.choice(specials), rng.choice(specials)
        elif kind == 2:  # zero spans and spans of a few ulps, whose step may underflow
            start = rng.choice((rng.uniform(-5.0, 5.0), 0.0, -0.0, 5e-324))
            stop = start
            for _ in range(rng.randint(0, 3)):
                stop = math.nextafter(stop, rng.choice((-math.inf, math.inf)))
        else:
            start = rng.choice((0.0, -0.0, rng.uniform(-1.0, 1.0)))
            stop = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320.0, 3.0)
        if not math.isfinite(stop - start):
            continue  # the CLI rejects a span that overflows
        num = rng.choice((1, 2, 3, 101, rng.randint(1, 400)))
        got, want = linspace(start, stop, num), np.linspace(start, stop, num).tolist()
        assert all(type(x) is float for x in got)
        assert struct.pack(f"{num}d", *got) == struct.pack(f"{len(want)}d", *want), \
            (start, stop, num)
        cases += 1


@pytest.mark.parametrize("name", ["gaussian_states", "benchmarks", "receiver_ideal",
                                  "receiver_mismatch"])
def test_scalar_modules_hold_no_numpy(name):
    module = importlib.import_module("iskennedy." + name)
    held = [key for key, value in vars(module).items()
            if (value.__name__ if inspect.ismodule(value) else
                getattr(value, "__module__", None) or "").partition(".")[0] == "numpy"]
    assert held == []


def test_thresholds_is_detector_with_two_columns():
    sweep = ["--sweep", "N:0.05:3:40", "--nu", "1e-2", "--M", "10"]
    assert run_cli(["thresholds"] + sweep) == \
        run_cli(["detector"] + sweep + ["--metrics", "n_threshold,p_err"])
    code, _ = run_cli(["thresholds", "--N", "1.0", "--metrics", "p_fa"])
    assert code == 2


def test_db_cells_are_empty_where_a_probability_underflows():
    # sql_dss_opt(20) and hb_dss_opt(30) underflow to 0 while the other side does not.
    code, out = run_cli(["detector", "--N", "20", "--nu", "1e-2", "--M", "10"])
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["p_err"]) > 0 and row["db_vs_sql_dss"] == ""
    code, out = run_cli(["bounds", "--N", "30"])
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["hb_cs"]) > 0 and row["db_hb_dss_vs_hb_cs"] == ""


# --- the contract an outside tracer relies on ------------------------------------

def test_dispatch_and_row_path_can_be_wrapped(monkeypatch):
    import iskennedy.cli as cli

    for name in ("main", "build_parser", "cmd_bounds", "cmd_ideal", "cmd_detector",
                 "cmd_mismatch", "cmd_thresholds", "cmd_populations", "cmd_wigner",
                 "cmd_validate"):
        assert callable(getattr(cli, name)), name
    assert callable(cli.Writer.write)
    calls = {"write": 0, "dispatch": 0}
    write, cmd_ideal = cli.Writer.write, cli.cmd_ideal

    def counted_write(self, record):
        calls["write"] += 1
        return write(self, record)

    def counted_cmd_ideal(args):
        calls["dispatch"] += 1
        return cmd_ideal(args)

    monkeypatch.setattr(cli.Writer, "write", counted_write)
    monkeypatch.setattr(cli, "cmd_ideal", counted_cmd_ideal)
    code, out = run_cli(["ideal", "--sweep", "N:0.1:1:5"])
    assert code == 0 and len(parse_csv(out)) == 5
    assert calls == {"write": 5, "dispatch": 1}
    calls["write"] = 0
    code, out = run_cli(["wigner", "--points", "3"])
    assert code == 0 and len(parse_csv(out)) == 9
    assert calls["write"] == 9


def test_build_parser_returns_independent_copies_of_one_parser():
    import iskennedy.cli as cli

    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    argv = ["mismatch", "--N", "2", "--dr", "0.02", "--M", "3", "--format", "jsonl"]
    assert vars(first.parse_args(argv)) == vars(second.parse_args(argv))
    first.parse_args = None
    assert second.parse_args is not None and cli.build_parser().parse_args is not None


def formatted_floats(monkeypatch, argv):
    """The parsed CSV table of `argv` and the floats its Writer formatted."""
    import iskennedy.cli as cli

    formatted = []
    csv_cell = cli._csv_cell
    monkeypatch.setattr(cli, "_csv_cell", lambda value: formatted.append(value) or csv_cell(value))
    code, out = run_cli(argv)
    assert code == 0
    return parse_csv(out), [v for v in formatted if isinstance(v, float)]


@pytest.mark.parametrize("argv", [
    ["wigner", "--points", "3"],
    ["wigner", "--N", "0.5", "--points", "8", "--xmin=-2", "--pmax", "3"],
    ["bounds", "--sweep", "N:0:1:300"],
])
def test_each_distinct_float_is_formatted_once_per_table(monkeypatch, argv):
    rows, formatted = formatted_floats(monkeypatch, argv)
    floats = {float(cell) for row in rows for cell in row.values() if cell}
    assert len(formatted) == len(set(formatted)) == len(floats)


def test_symbol1_of_the_vacuum_grid_formats_nothing_new(monkeypatch):
    rows, formatted = formatted_floats(monkeypatch, ["wigner", "--N", "0", "--beta", "0",
                                                     "--points", "7"])
    assert len(rows) == 49 and all(r["w_symbol0"] == r["w_symbol1"] for r in rows)
    without_symbol1 = {float(r[c]) for r in rows for c in ("x", "p", "w_symbol0")}
    assert len(formatted) == len(without_symbol1)


def test_writer_blocks(tmp_path):
    from iskennedy.cli import Writer
    from iskennedy.errors import NumericalConsistencyError

    texts = ["0|1", "a,b", 'say "hi"', "two\nlines", ""]
    for kind in ("csv", "jsonl"):
        full, split = io.StringIO(), io.StringIO()
        Writer(full, ["k", "s", "v"], kind).write_block(
            {"k": [7] * 5, "s": texts, "v": [-0.0, 1.5, None, 2.0, 1e-300]})
        w = Writer(split, ["k", "s", "v"], kind)
        w.write_block({"k": [7], "s": texts[:2], "v": [-0.0, 1.5]})
        w.write_block({"k": [7], "s": texts[2:], "v": [None, 2.0, 1e-300]})
        assert split.getvalue() == full.getvalue()
    lines = full.getvalue().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"k": 7, "s": t, "v": v} for t, v in zip(texts, [0.0, 1.5, None, 2.0, 1e-300])]
    out = io.StringIO()
    Writer(out, ["k", "s", "v"], "csv").write_block(
        {"k": [7] * 5, "s": texts, "v": [-0.0, 1.5, None, 2.0, 1e-300]})
    reference = io.StringIO()
    csv.writer(reference, lineterminator="\n").writerows(
        [["k", "s", "v"]] + [["7", t, v] for t, v in zip(texts, ["0", "1.5", "", "2", "1e-300"])])
    assert out.getvalue() == reference.getvalue()
    out = io.StringIO()
    w = Writer(out, ["x", "w"], "csv")
    with pytest.raises(NumericalConsistencyError, match="'w'"):
        w.write_block({"x": [0.0, 1.0], "w": [0.5, math.nan]})
    assert out.getvalue() == "x,w\n"


def reference_table(fieldnames, blocks, kind) -> str:
    """A table written one row and one cell at a time, each cell formatted on its own."""
    def cell(v):
        if kind == "jsonl":
            return float.__repr__(v + 0.0) if isinstance(v, float) else json.dumps(v)
        if isinstance(v, float):
            return f"{v + 0.0:.17g}"
        if isinstance(v, str):
            return '"' + v.replace('"', '""') + '"' if any(c in v for c in ',"\r\n') else v
        return "" if v is None else str(v)

    text = ",".join(fieldnames) + "\n" if kind == "csv" else ""
    for block in blocks:
        rows = max(len(block[c]) for c in fieldnames)
        for i in range(rows):
            cells = [cell(block[c][0 if len(block[c]) == 1 else i]) for c in fieldnames]
            if kind == "csv":
                text += ",".join(cells) + "\n"
            else:
                text += "{" + ", ".join(f"{json.dumps(c)}: {v}"
                                        for c, v in zip(fieldnames, cells)) + "}\n"
    return text


_CELL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, 7.0, 7, 0, 1.0, 1, True, None, 0.1, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
              max_value=1e-307, min_value=-1e-307),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-10**20, 10**20),
    st.text(alphabet=',"\n\r ab7.0-', max_size=6),
)


@st.composite
def writer_tables(draw):
    """Fieldnames and blocks whose columns share a small pool of values, each
    block with one-value columns beside full ones."""
    fieldnames = ["a", "b", "c"]
    pool = draw(st.lists(_CELL_VALUES, min_size=1, max_size=12))
    values = st.sampled_from(pool)
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        rows = draw(st.integers(1, 6))
        blocks.append({c: draw(st.lists(values, min_size=n, max_size=n))
                       for c in fieldnames
                       for n in [draw(st.sampled_from([1, rows]))]})
    return fieldnames, blocks


_EDGES = (["a", "b", "c"], [
    {"a": [-0.0, 7.0, 7, 5e-324], "b": [1e308], "c": [np.float64(-0.0), None, "x,\"y\"\n", 1]},
    {"a": [0.0], "b": [-1e308, 1e308, True, 1.0], "c": [7, 7.0, np.float64(1e-310), "0"]},
    {"a": [7, 1.0, -0.0], "b": [0.0, 1, None], "c": [np.float64(7.0)]},
])


@example(table=_EDGES, kind="csv", poison=None)
@example(table=_EDGES, kind="jsonl", poison=None)
@example(table=_EDGES, kind="jsonl", poison=(1, "b", 2, math.inf))
@settings(max_examples=300, deadline=None)
@given(table=writer_tables(), kind=st.sampled_from(["csv", "jsonl"]),
       poison=st.none() | st.tuples(st.integers(0, 4), st.sampled_from(["a", "b", "c"]),
                                    st.integers(0, 5),
                                    st.sampled_from([math.nan, math.inf, -math.inf,
                                                     np.float64("inf")])))
def test_writer_matches_a_row_by_row_reference(table, kind, poison):
    from iskennedy.cli import Writer
    from iskennedy.errors import NumericalConsistencyError

    fieldnames, blocks = table
    if poison is not None:
        at, column, row, bad = poison
        at = min(at, len(blocks) - 1)
        cells = list(blocks[at][column])
        cells[min(row, len(cells) - 1)] = bad
        blocks = [*blocks[:at], {**blocks[at], column: cells}, *blocks[at + 1:]]
    out = io.StringIO()
    w = Writer(out, fieldnames, kind)
    for i, block in enumerate(blocks):
        if poison is not None and i == at:
            with pytest.raises(NumericalConsistencyError, match=repr(column)):
                w.write_block(block)
            break
        w.write_block(block)
    assert out.getvalue() == reference_table(fieldnames, blocks[:i + (poison is None)], kind)


def test_writer_memo_stays_within_its_cap():
    import iskennedy.cli as cli

    values = [i / 7 for i in range(cli._MEMO_CAP + 1000)]
    blocks = [{"v": values[i:i + 256], "w": [-v for v in values[i:i + 256]], "k": [3]}
              for i in range(0, len(values), 256)]
    for kind in ("csv", "jsonl"):
        out = io.StringIO()
        w = cli.Writer(out, ["k", "v", "w"], kind)
        for block in blocks + blocks[:3]:
            w.write_block(block)
            assert len(w._floats) <= cli._MEMO_CAP
        assert out.getvalue() == reference_table(["k", "v", "w"], blocks + blocks[:3], kind)


@pytest.mark.parametrize("words, joined", [
    (["mismatch", "--N", "1", "--dtheta", "-1e-3"], ["mismatch", "--N", "1", "--dtheta=-1e-3"]),
    (["wigner", "--xmin", "-4e0", "--points", "3"], ["wigner", "--xmin=-4e0", "--points", "3"]),
    (["wigner", "--pmin", "-.5E+1", "--points", "3"], ["wigner", "--pmin=-5", "--points", "3"]),
])
def test_negative_values_in_exponent_form(words, joined):
    code, out = run_cli(words)
    assert code == 0 and out
    assert run_cli(joined) == (code, out)


def test_negative_config_value_in_exponent_form(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dtheta = -1e-3\n")
    code, out = run_cli(["--config", str(cfg), "mismatch", "--N", "1"])
    assert code == 0 and out
    assert run_cli(["mismatch", "--N", "1", "--dtheta=-1e-3"]) == (code, out)


def test_overflowing_wigner_span_is_a_usage_error(tmp_path):
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_usage_error_writes_nothing(
            ["wigner", "--xmin=-1e308", "--xmax", "1e308", "--points", "3"], tmp_path)
        assert_usage_error_writes_nothing(
            ["wigner", "--pmin=-1e308", "--pmax", "1e308", "--points", "3"], tmp_path)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("N", ["2e16", "1e17", "1e150"])
@pytest.mark.parametrize("stage", ["input", "nulled"])
def test_populations_where_tanh_r_rounds_to_one_stay_within_all_the_mass(N, stage):
    # Past r = 19.06 the DSS law's Gaussian factor once summed to 0, and every row read 1.
    code, out = run_cli(["populations", "--N", N, "--stage", stage, "--nmax", "3"])
    assert code == 0
    rows = parse_csv(out)
    assert [row["n"] for row in rows] == ["0", "1", "2", "3"]
    for column in ("p_given_0", "p_given_1"):
        values = [float(row[column]) for row in rows]
        assert all(0.0 <= p <= 1.0 for p in values) and math.fsum(values) <= 1.0
    assert [row["p_given_1"] for row in rows] == ["0"] * 4
    if stage == "input":
        assert [row["p_given_0"] for row in rows] == ["0"] * 4


def test_populations_just_below_tanh_r_rounding_to_one_keep_their_bytes():
    code, out = run_cli(["populations", "--N", "1.5e16", "--stage", "input", "--nmax", "3"])
    assert (code, out) == (0, "n,p_given_0,p_given_1\n0,0,0\n1,0,0\n2,0,0\n3,0,0\n")
