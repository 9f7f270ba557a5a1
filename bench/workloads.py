"""The four benchmark workloads.

A workload turns a seed into a pool of rounds (its inputs), runs one round
as a list of units, timing each unit, and checks the outputs of a round
outside the timed region.  Every unit of a workload does the same kind of
work, so the median unit time compares like with like.  The program is
called only through its public functions and `iskennedy.cli.main`, looked
up on each call so that the traced run sees its wrappers.

curves         README "Reproducing the standard curves" except `validate`;
               one unit is one pass over the whole set, one pass a round.
sweep_dense    a library sweep; one unit is one energy N, a round 2000 of them.
mismatch_deep  one unit is one (N, dr, dtheta) point at M up to 200 plus the
               experimental detector composition; 24 points a round.
mc_validate    the `validate` battery plus the physical-process sampler; one
               unit is one call of 10^6 trials, a round the seven calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from array import array

import numpy as np

import iskennedy as ik
import iskennedy.cli as cli

import checks

POOL_ROUNDS = 64  # rounds of inputs made at set-up; longer runs cycle through them

CURVE_INVOCATIONS = (
    "bounds --sweep N:0.01:3:300",
    "ideal --sweep N:0.01:3:300",
    "wigner --N 1.0 --points 101",
    "wigner --N 0.333333333 --beta 1.0 --points 101",
    "wigner --N 3.0 --beta 0.111111111 --points 101",
    "wigner --N 0 --beta 0 --points 101",
    "wigner --N 8.0 --beta 0 --points 101",
    "populations --N 1.0 --stage input --nmax 12",
    "populations --N 1.0 --stage nulled --nmax 16",
    "populations --N 1.0 --stage output --nmax 16",
    "detector --sweep N:0.05:3:120 --eta 0.8 --nu 1e-9 --M 1",
    "detector --sweep N:0.05:3:120 --nu 1e-2 --M 2",
    "thresholds --sweep N:0.05:3:120 --nu 1e-2 --M 10",
    "detector --sweep N:0.05:3:120 --nu 1e-2 --M 10 --metrics db_vs_sql_dss",
    "mismatch --sweep N:0.1:3:120 --dr 0.02 --dtheta 0.0942477796 --M 1",
    "mismatch --sweep N:0.1:3:120 --dr 0.02 --dtheta 0.0942477796 --M 3",
    "populations --N 1.0 --dr 0.02 --dtheta 0.0942477796 --nmax 20",
)

# (eta, nu, M) of the sweep's detectors, each one the project documents: the README
# curves' counters, the `validate` counter and the README library example.
SWEEP_DETECTORS = ((0.8, 1e-9, 1), (1.0, 1e-2, 2), (1.0, 1e-2, 10), (0.5, 1e-3, 1),
                   (0.9, 1e-3, 4))
SWEEP_MISMATCH = (0.02, 0.03 * math.pi)
SWEEP_MISMATCH_M = (1, 3)

# Acceptance criterion 10: phase only, amplitude only, combined, on N in [0.5, 3].
DEEP_SETTINGS = ((0.0, 0.03 * math.pi), (0.02, 0.0), (0.02, 0.03 * math.pi))
DEEP_M = (1, 3, 10, 40, 200)
DEEP_CLI_M = (3, 10)
DEEP_DETECTOR = ("0.9", "1e-3")  # eta, nu of the experimental composition

MC_TRIALS = 1_000_000


def run_cli(argv, tracer=None) -> str:
    """One CLI invocation with its table kept in memory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"iskennedy {' '.join(argv)} exited with {code}")
    text = buf.getvalue()
    if tracer is not None:
        tracer.count("cli.bytes_out", len(text))
    return text


def stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> array:
    """One uniform draw in each of n equal strata of [lo, hi), ascending.

    An array of doubles (8 bytes a value) keeps the input pool small beside
    the program's memory; iterating it yields Python floats."""
    return array("d", lo + (np.arange(n) + rng.random(n)) * ((hi - lo) / n))


def _flag(argv, name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


class Workload:
    name = ""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def unit(self, item):
        raise NotImplementedError

    def run_round(self, items) -> tuple[list[float], list, list[str]]:
        """Time each unit in CPU seconds; return unit times, outputs (None
        where a unit raised) and the failure messages."""
        times, outputs, failures = [], [], []
        clock = time.process_time
        for item in items:
            t0 = clock()
            try:
                out = self.unit(item)
            except Exception as exc:  # a failing unit is counted, not fatal
                outputs.append(None)
                failures.append(f"{self.name} {item!r}: {type(exc).__name__}: {exc}")
                continue
            times.append(clock() - t0)
            outputs.append(out)
        return times, outputs, failures

    def check_round(self, items, outputs) -> list[str]:
        problems = []
        for item, out in zip(items, outputs):
            if out is not None:
                problems += self.check(item, out)
        return problems

    def check(self, item, out) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks that need the whole run; outside the timed region."""
        return []


class Curves(Workload):
    """The README table set.  It has no random inputs: the seed is unused."""

    name = "curves"

    def __init__(self, tracer=None, invocations=CURVE_INVOCATIONS):
        super().__init__(tracer)
        self.invocations = tuple(tuple(inv.split()) for inv in invocations)
        self.digest = None

    def inputs(self, seed: int) -> list:
        return [[self.invocations]]

    def unit(self, invocations):
        return {argv: run_cli(argv, self.tracer) for argv in invocations}

    def check(self, invocations, tables) -> list[str]:
        """Check every table of the first pass; later passes must repeat it byte for byte."""
        sha = hashlib.sha256()
        for argv in invocations:  # one table at a time, so the check holds no copy of the set
            sha.update(tables[argv].encode())
            sha.update(b"\0")
        digest = sha.hexdigest()
        if self.digest is not None:
            return [] if digest == self.digest else ["curves: a pass differs from the first pass"]
        self.digest = digest
        problems = []
        for argv, text in tables.items():
            problems += check_table(argv, csv.DictReader(text.splitlines()))
        problems += check_db_columns(tables)
        return problems


def check_table(argv, rows) -> list[str]:
    """Checks of one curve table, read row by row, against properties and recomputed values."""
    label = " ".join(argv)
    command = argv[0]
    problems = []
    count = 0
    for row in rows:
        count += 1
        N = float(row["N"]) if "N" in row else None
        if command == "bounds":
            problems += checks.close(f"{label} hb_cs", float(row["hb_cs"]), checks.hb_cs(N),
                                     checks.CLOSED_FORM_RTOL)
            problems += checks.close(f"{label} sql_cs", float(row["sql_cs"]), checks.sql_cs(N),
                                     checks.CLOSED_FORM_RTOL)
            problems += checks.close(f"{label} hb_dss", float(row["hb_dss"]), checks.hb_dss(N),
                                     checks.CLOSED_FORM_RTOL)
            problems += checks.close(f"{label} sql_dss", float(row["sql_dss"]), checks.sql_dss(N),
                                     checks.CLOSED_FORM_RTOL)
        elif command == "ideal":
            p = float(row["p_err"])
            problems += checks.close(f"{label} p_err", p, checks.p_err_ideal(N),
                                     checks.CLOSED_FORM_RTOL)
            problems += checks.sandwich(f"{label} N={N!r}", p, float(row["hb_dss"]))
            problems += checks.p_err_in_range(label, N, p)
        elif command == "wigner":
            for col in ("w_symbol0", "w_symbol1"):
                problems += checks.wigner_in_range(f"{label} {col}", float(row[col]))
        elif command == "populations":
            n, p0, p1 = int(row["n"]), float(row["p_given_0"]), float(row["p_given_1"])
            stage = _flag(argv, "--stage", "output")
            if stage == "input":
                problems += checks.close(f"{label} n={n}", p1, p0, checks.CLOSED_FORM_RTOL)
            else:
                problems += checks.symbol0_even(label, n, p0)
        elif "p_err" in row:
            problems += checks.p_err_in_range(f"{label} N={N!r}", N, float(row["p_err"]))
    if not count:
        problems.append(f"{label}: empty table")
    if command == "wigner" and count != int(_flag(argv, "--points")) ** 2:
        problems.append(f"{label}: {count} rows for a {_flag(argv, '--points')}-point grid")
    return problems


def check_db_columns(tables: dict) -> list[str]:
    """A `detector --metrics db_vs_sql_dss` table must equal
    10 log10(sql_dss_opt / p_err), p_err taken from the `thresholds` table of
    the same counter."""
    problems = []
    for argv, text in tables.items():
        if argv[0] != "detector" or _flag(argv, "--metrics") != "db_vs_sql_dss":
            continue
        i = argv.index("--metrics")
        twin = ("thresholds",) + argv[1:i] + argv[i + 2:]
        if twin not in tables:
            continue
        p_errs = [float(r["p_err"]) for r in csv.DictReader(io.StringIO(tables[twin]))]
        for row, p in zip(csv.DictReader(io.StringIO(text)), p_errs):
            want = 10.0 * math.log10(checks.sql_dss(float(row["N"])) / p)
            if abs(float(row["db_vs_sql_dss"]) - want) > 1e-9:
                problems.append(f"{' '.join(argv)} N={row['N']}: db_vs_sql_dss "
                                f"{row['db_vs_sql_dss']} != {want!r}")
    return problems


class SweepDense(Workload):
    """Thousands of cheap library calls over energies N in [0.05, 3]."""

    name = "sweep_dense"

    def __init__(self, tracer=None, per_round=2000):
        super().__init__(tracer)
        self.per_round = per_round
        self.detectors = [ik.DetectorModel(eta=e, nu=v, M=m) for e, v, m in SWEEP_DETECTORS]
        self.mismatch = ik.MismatchModel(*SWEEP_MISMATCH)

    def inputs(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [stratified(rng, 0.05, 3.0, self.per_round) for _ in range(POOL_ROUNDS)]

    def unit(self, N):
        design = ik.design_at_optimal_beta(N)
        rules = [ik.p_err_imperfect(design, det) for det in self.detectors]
        mismatch = [ik.p_err_mismatch(design, self.mismatch, M) for M in SWEEP_MISMATCH_M]
        closed = (ik.helstrom_cs(N), ik.sql_cs(N), ik.hb_dss_opt(N), ik.sql_dss_opt(N),
                  ik.helstrom_dss(design.alpha, design.r), ik.sql_dss(design.alpha, design.r))
        return rules, mismatch, closed

    def check(self, N, out) -> list[str]:
        rules, mismatch, closed = out
        label = f"sweep_dense N={N!r}"
        problems = []
        for det, rule in zip(self.detectors, rules):
            tag = f"{label} eta={det.eta} nu={det.nu} M={det.M}"
            problems += checks.p_err_in_range(tag, N, rule.p_err)
            problems += checks.threshold_rates(tag, N, det.eta, det.nu, rule.threshold,
                                               rule.p_fa, rule.p_mi)
        for M, rule in zip(SWEEP_MISMATCH_M, mismatch):
            problems += checks.p_err_in_range(f"{label} mismatch M={M}", N, rule.p_err)
        hb_c, sql_c, hb_d, sql_d, hb_d_ar, sql_d_ar = closed
        for name, got, want in (("helstrom_cs", hb_c, checks.hb_cs(N)),
                                ("sql_cs", sql_c, checks.sql_cs(N)),
                                ("hb_dss_opt", hb_d, checks.hb_dss(N)),
                                ("sql_dss_opt", sql_d, checks.sql_dss(N)),
                                ("helstrom_dss", hb_d_ar, checks.hb_dss(N)),
                                ("sql_dss", sql_d_ar, checks.sql_dss(N))):
            problems += checks.close(f"{label} {name}", got, want, checks.CLOSED_FORM_RTOL)
        return problems


class MismatchDeep(Workload):
    """Few expensive calls: large resolutions and the detector composition."""

    name = "mismatch_deep"

    def __init__(self, tracer=None, strata=8, ladder=DEEP_M, cli_m=DEEP_CLI_M):
        super().__init__(tracer)
        self.strata, self.ladder, self.cli_m = strata, ladder, cli_m

    def inputs(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return [[(N, dr, dt) for N in stratified(rng, 0.5, 3.0, self.strata)
                 for dr, dt in DEEP_SETTINGS] for _ in range(POOL_ROUNDS)]

    def unit(self, point):
        N, dr, dt = point
        design = ik.design_at_optimal_beta(N)
        mm = ik.MismatchModel(dr, dt)
        p_errs = [ik.p_err_mismatch(design, mm, M).p_err for M in self.ladder]
        eta, nu = DEEP_DETECTOR
        tables = [run_cli(("mismatch", "--N", repr(N), "--dr", repr(dr), "--dtheta", repr(dt),
                           "--M", str(M), "--eta", eta, "--nu", nu, "--experimental-detector"),
                          self.tracer)
                  for M in self.cli_m]
        return p_errs, tables

    def check(self, point, out) -> list[str]:
        N, dr, dt = point
        p_errs, tables = out
        label = f"mismatch_deep N={N!r} dr={dr!r} dt={dt!r}"
        problems = checks.monotone_in_M(label, self.ladder, p_errs)
        for M, p in zip(self.ladder, p_errs):
            problems += checks.p_err_in_range(f"{label} M={M}", N, p)
        for M, text in zip(self.cli_m, tables):
            rows = list(csv.DictReader(io.StringIO(text)))
            if len(rows) != 1:
                problems.append(f"{label} cli M={M}: {len(rows)} rows")
                continue
            problems += checks.p_err_in_range(f"{label} cli M={M}", N, float(rows[0]["p_err"]))
        return problems


class McValidate(Workload):
    """Monte Carlo: the six `validate` scenarios and the physical sampler."""

    name = "mc_validate"

    def __init__(self, tracer=None, trials=MC_TRIALS):
        super().__init__(tracer)
        self.trials = trials
        det = ik.DetectorModel(eta=0.5, nu=1e-3, M=1)
        # Same points as `iskennedy validate`; None marks the physical sampler.
        self.calls = [
            (1.0, ik.IdealScenario()),
            (0.5, ik.IdealScenario()),
            (3.0, ik.ImperfectScenario(ik.DetectorModel(eta=1.0, nu=1e-2, M=2))),
            (1.0, ik.ImperfectScenario(det)),
            (2.0, ik.MismatchScenario(ik.MismatchModel(0.02, 0.0), M=3)),
            (1.0, ik.MismatchScenario(ik.MismatchModel(0.02, 0.03 * math.pi), M=1)),
            (1.0, None),
        ]
        self.designs = [ik.design_at_optimal_beta(N) for N, _ in self.calls]
        self.physical_det = det
        self.calls_checked: list[tuple] = []  # (label, errors, p_err_reference, z)
        self.first = None  # (item, counts) of the first call checked

    def inputs(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2 ** 62, size=(POOL_ROUNDS, len(self.calls)))
        return [[(i, int(s)) for i, s in enumerate(row)] for row in seeds]

    def unit(self, item):
        i, seed = item
        design, scenario = self.designs[i], self.calls[i][1]
        if scenario is None:
            return ik.simulate_physical_imperfect(design, self.physical_det, self.trials, seed)
        return ik.simulate(design, ik.TrialConfig(trials=self.trials, seed=seed, scenario=scenario))

    def check(self, item, report) -> list[str]:
        i, seed = item
        N, scenario = self.calls[i]
        label = f"mc_validate call {i} ({type(scenario).__name__}) seed={seed}"
        self.calls_checked.append((label, report.fa_count + report.mi_count,
                                   report.p_err_reference, report.z_score))
        if self.first is None:
            self.first = (item, _counts(report))
        return (checks.trials_add_up(label, self.trials, report.sent0, report.sent1,
                                     report.fa_count, report.mi_count)
                + checks.p_err_in_range(label, N, report.p_err_reference))

    def finish(self) -> list[str]:
        problems = []
        for label, errors, p_ref, z in self.calls_checked:
            problems += checks.errors_consistent(label, self.trials, errors, p_ref, z,
                                                 len(self.calls_checked))
        if self.first is not None:
            item, counts = self.first
            again = _counts(self.unit(item))
            if again != counts:
                problems.append(f"mc_validate {item!r}: a rerun with the same seed gave "
                                f"{again} after {counts}")
        return problems


def _counts(report) -> tuple[int, int, int, int]:
    return report.fa_count, report.mi_count, report.sent0, report.sent1


WORKLOADS = {w.name: w for w in (Curves, SweepDense, MismatchDeep, McValidate)}


def make(name: str, tracer=None, **size) -> Workload:
    if name not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](tracer, **size)
