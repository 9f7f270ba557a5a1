"""Tests of the benchmark itself: its checks fail on corrupted values, every
workload runs at a small size, and BENCHMARK.json names what the run prints.

    python -m pytest bench -q
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import probe

probe.add_src()

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_CURVES = tuple(inv.replace("--points 101", "--points 11").replace(":300", ":30")
                     .replace(":120", ":12") for inv in workloads.CURVE_INVOCATIONS)


def small(name: str):
    sizes = {"curves": {"invocations": SMALL_CURVES},
             "sweep_dense": {"per_round": 20},
             "mismatch_deep": {"strata": 1, "ladder": (1, 3, 10), "cli_m": (3,)},
             "mc_validate": {"trials": 20_000}}
    return workloads.make(name, **sizes[name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_once_at_a_small_size(name):
    workload = small(name)
    pool = workload.inputs(7)
    assert pool == small(name).inputs(7)  # same seed, same inputs
    result = run.measure(workload, pool, seconds=0)
    assert result["rounds"] == 1
    assert result["attempted"] == len(pool[0]) and result["attempted"] >= 1
    assert result["failures"] == [] and result["problems"] == []


# --- each check reports a corrupted value -----------------------------------

def test_p_err_below_helstrom_or_above_half_is_reported():
    N = 1.0
    assert checks.p_err_in_range("ok", N, checks.p_err_ideal(N)) == []
    assert checks.p_err_in_range("low", N, 0.99 * checks.hb_dss(N))
    assert checks.p_err_in_range("high", N, 0.5000001)


def test_sandwich_reports_a_gap_beyond_3_db():
    hb = checks.hb_dss(0.7)
    assert checks.sandwich("ok", checks.p_err_ideal(0.7), hb) == []
    assert checks.sandwich("wide", 2.01 * hb, hb)


def test_wigner_value_outside_range_is_reported():
    assert checks.wigner_in_range("ok", 1.0 / math.pi) == []
    assert checks.wigner_in_range("high", 1.0001 / math.pi)
    assert checks.wigner_in_range("negative", -1e-300)


def test_odd_symbol0_population_is_reported():
    assert checks.symbol0_even("ok", 3, 0.0) == []
    assert checks.symbol0_even("ok", 2, 0.1) == []
    assert checks.symbol0_even("odd", 3, 1e-20)


def test_z_above_the_bound_is_reported():
    bound = checks.z_bound(100)
    assert 6.0 < bound < 8.0
    assert checks.z_bound(1000) > bound
    assert checks.z_within("ok", -bound, bound) == []
    assert checks.z_within("far", bound * 1.01, bound)


def test_rare_error_counts_are_tested_on_their_poisson_tail():
    # p_err 3.88e-8 at 10^6 trials: two errors give z = 9.96, yet happen to a
    # correct sampler in one call of about 1300.
    trials, p_ref = 10**6, 3.877982716856784e-08
    assert checks.errors_consistent("two", trials, 2, p_ref, 9.96, 200) == []
    assert checks.errors_consistent("twelve", trials, 12, p_ref, 64.0, 200)
    assert checks.errors_consistent("impossible", trials, 1, 0.0, 0.0, 200)
    assert checks.errors_consistent("normal", trials, 500, 4e-4, 5.0, 200) == []
    assert checks.errors_consistent("normal, far", trials, 800, 4e-4, 20.0, 200)


def test_counts_that_do_not_add_up_are_reported():
    assert checks.trials_add_up("ok", 10, 4, 6, 1, 2) == []
    assert checks.trials_add_up("lost", 10, 4, 5, 1, 2)
    assert checks.trials_add_up("too many errors", 10, 4, 6, 5, 0)


def test_poisson_sums_and_threshold_rates():
    assert checks.poisson_at_least(0, 2.0) == 1.0
    assert math.isclose(checks.poisson_at_least(1, 1e-9), -math.expm1(-1e-9), rel_tol=1e-12)
    assert math.isclose(checks.poisson_below(3, 2.0) + checks.poisson_at_least(3, 2.0), 1.0,
                        rel_tol=1e-14)
    N, eta, nu, n_th = 1.0, 0.9, 1e-3, 2
    p_fa = checks.poisson_at_least(n_th, nu)
    p_mi = checks.poisson_below(n_th, 4 * eta * N * (N + 1) + nu)
    assert checks.threshold_rates("ok", N, eta, nu, n_th, p_fa, p_mi) == []
    assert checks.threshold_rates("fa", N, eta, nu, n_th, p_fa * (1 + 1e-6), p_mi)
    assert checks.threshold_rates("mi", N, eta, nu, n_th, p_fa, p_mi * (1 - 1e-6))


def test_error_rising_with_resolution_is_reported():
    assert checks.monotone_in_M("ok", (1, 3, 10), (1e-3, 1e-4, 1e-4 + 1e-18)) == []
    assert checks.monotone_in_M("rise", (1, 3, 10), (1e-3, 1e-4, 2e-4))


def test_corrupted_curve_tables_are_reported():
    workload = small("curves")
    items = workload.inputs(0)[0]
    tables = workload.unit(items[0])
    assert workload.check(items[0], tables) == []

    def corrupt(prefix, column, value):
        argv = next(a for a in tables if " ".join(a).startswith(prefix))
        lines = tables[argv].splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")  # n = 1 in a populations table
        row[header.index(column)] = value
        lines[2] = ",".join(row)
        rows = list(csv.DictReader(lines))
        return workloads.check_table(argv, rows)

    assert corrupt("populations --N 1.0 --stage nulled", "p_given_0", "1e-3")
    assert corrupt("populations --N 1.0 --stage input", "p_given_1", "0.5")
    assert corrupt("ideal", "p_err", "1e-300")
    assert corrupt("wigner --N 1.0", "w_symbol0", "0.4")
    assert corrupt("bounds", "hb_dss", "0.25")
    # A later pass that differs from the first is reported too.
    argv = items[0][0]
    changed = {**tables, argv: tables[argv] + "\n"}
    assert workload.check(items[0], changed)


def test_corrupted_sweep_and_mismatch_outputs_are_reported():
    sweep = small("sweep_dense")
    N = sweep.inputs(1)[0][5]
    rules, mismatch, closed = sweep.unit(N)
    assert sweep.check(N, (rules, mismatch, closed)) == []
    bad_fa = [dataclasses.replace(rules[0], p_fa=rules[0].p_fa * 1.001,
                                  p_err=0.5 * (rules[0].p_fa * 1.001 + rules[0].p_mi))]
    assert sweep.check(N, (bad_fa + rules[1:], mismatch, closed))
    assert sweep.check(N, (rules, mismatch, (closed[0] * 1.001,) + closed[1:]))

    deep = small("mismatch_deep")
    point = deep.inputs(1)[0][0]
    p_errs, tables = deep.unit(point)
    assert deep.check(point, (p_errs, tables)) == []
    assert deep.check(point, (p_errs[:-1] + [p_errs[0] * 2], tables))
    below = [checks.hb_dss(point[0]) / 2] + p_errs[1:]
    assert deep.check(point, (below, tables))


def test_monte_carlo_z_and_rerun_checks_report_corruption():
    mc = small("mc_validate")
    pool = mc.inputs(3)
    outputs = [mc.unit(item) for item in pool[0]]
    assert mc.check_round(pool[0], outputs) == []
    assert mc.finish() == []
    mc.calls_checked.append(("corrupt", 200, 1e-2, 1e3))  # 200 errors expected, |z| = 1000
    assert mc.finish()
    mc.calls_checked[-1] = ("corrupt", 40, 1e-4, 0.0)  # 2 expected: the Poisson tail decides
    assert mc.finish()
    mc.calls_checked.pop()
    item, counts = mc.first
    mc.first = (item, (counts[0] + 1,) + counts[1:])
    assert mc.finish()
    bad = dataclasses.replace(outputs[0], sent0=outputs[0].sent0 - 1)
    assert mc.check(pool[0][0], bad)


# --- the declared metrics are the printed ones ------------------------------

def _benchmark_json():
    return json.loads((Path(probe.ROOT) / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_the_printed_metrics():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_import_report_is_split_by_package():
    tree = (  # post-order, as `-X importtime` prints it: (self us, depth, module)
        (100, 5, "numpy._core"), (2000, 4, "numpy"), (400, 4, "numpy.linalg"),
        (1000, 3, "scipy.special"), (50, 2, "iskennedy.benchmarks"), (30, 1, "iskennedy"),
        (500, 2, "argparse"), (200, 1, "iskennedy.cli"), (70, 1, "json"))
    report = "\n".join(["import time: self [us] | cumulative | imported package"]
                       + [f"import time: {us:9} | {0:10} | {'  ' * depth}{name}"
                          for us, depth, name in tree])
    split = probe.import_split(report)
    assert split == pytest.approx({"numpy_ms": 2.1, "scipy_special_ms": 1.4,
                                   "iskennedy_ms": 0.78})


def test_setup_probe_reports_its_time_and_import_split():
    report = probe.spawn("sweep_dense", 1, importtime=True)
    assert 0 < report["setup_s"] < 60
    assert report["numpy_ms"] > 0 and report["iskennedy_ms"] > 0


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run([sys.executable, str(Path(probe.BENCH) / "run.py"), "--workload",
                           "mc_validate", "--seed", "5", "--seconds", "0", "--trace", "1"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in tracing.PER_LAYER]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["monte_carlo.trials"] == 7 * workloads.MC_TRIALS
    assert metrics["monte_carlo.scenario_problem.calls"] == 6
    assert all(metrics[f"{m}.errors"] == 0 for m in tracing.MODULES)


def test_run_without_the_program_source_fails_without_a_result(tmp_path):
    shutil.copy(Path(probe.ROOT) / "BENCHMARK.json", tmp_path)
    shutil.copytree(probe.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "curves", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
