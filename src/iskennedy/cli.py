"""Command-line front end: sweeps, threshold tables, and Monte Carlo checks.

Subcommands
-----------
bounds       benchmark error probabilities and their dB ratios to HB_CS
ideal        ideal receiver error vs energy, with dB gains over benchmarks
detector     receiver error with an imperfect photon counter (eta, nu, M)
mismatch     receiver error under inverse-squeezing mismatch (dr, dtheta, M)
thresholds   the integer decision-threshold staircase vs energy
populations  photon-count pmfs of both symbols at one operating point
wigner       Wigner-function samples of the two signal states on a grid
validate     Monte Carlo concordance checks; exits 4 when a scenario fails
             (|z| > 4, or below 100 expected errors a two-sided Poisson
             tail under 6.334e-5, the level of |z| > 4)

Output is CSV (RFC-4180, '.' decimal, 17 significant digits) or JSON lines;
rows are emitted in sweep order.  Exit codes: 0 ok, 2 usage error,
3 numerical-consistency failure, 4 validation failure.

A config file (--config) may hold `key = value` lines mirroring the long
option names, e.g. `sweep = N:0.1:3.0:30`; explicit flags override it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import benchmarks
from .errors import NumericalConsistencyError
from .fock_statistics import photon_pmf, poisson_cdf_below, poisson_tail_ge
from .gaussian_states import PhaseSpacePoint, design_at_optimal_beta, make_design, wigner_dss
from .monte_carlo import (
    IdealScenario,
    ImperfectScenario,
    MismatchScenario,
    TrialConfig,
    simulate,
)
from .receiver_ideal import (
    DecisionProblem,
    p_err_ideal,
    p_err_kennedy,
    ratio_to_helstrom,
)
from .receiver_imperfect import (
    DetectorModel,
    apply_detector_to_pmf,
    optimal_threshold,
    p_err_imperfect,
)
from .receiver_mismatch import (
    MismatchModel,
    map_set_decision,
    p_err_mismatch,
    residual,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

# See scenario_fails.  The level is 2 (1 - Phi(4)), the two-sided chance of |z| > 4.
_RARE_ERRORS = 100
_TWO_SIDED_LEVEL = 6.334e-5


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value + 0.0:.17g}"  # + 0.0 folds -0.0 into 0.0
    return str(value)


class Writer:
    """Streams OutputRecords as CSV or JSON lines with stable column order."""

    def __init__(self, stream, fieldnames: list[str], kind: str):
        self.stream = stream
        self.fieldnames = fieldnames
        self.kind = kind
        if kind == "csv":
            self._csv = csv.writer(stream, lineterminator="\n")
            self._csv.writerow(fieldnames)

    def write(self, record: dict) -> None:
        bad = [k for k, v in record.items()
               if isinstance(v, float) and (math.isnan(v) or math.isinf(v))]
        if bad:
            raise NumericalConsistencyError(f"non-finite metric(s) {bad} in output row")
        if self.kind == "csv":
            self._csv.writerow(["" if record.get(k) is None else fmt(record.get(k))
                                for k in self.fieldnames])
        else:
            obj = {k: (v + 0.0 if isinstance(v := record.get(k, None), float) else v)
                   for k in self.fieldnames}
            self.stream.write(json.dumps(obj, allow_nan=False) + "\n")


@contextmanager
def open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def parse_sweep(text: str) -> tuple[str, np.ndarray]:
    """Parse var:start:stop:steps into (var, grid)."""
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("sweep must be var:start:stop:steps")
    var, start, stop, steps = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    if var not in ("N", "eta", "nu", "delta_r", "delta_theta"):
        raise argparse.ArgumentTypeError(f"unknown sweep variable {var!r}")
    if steps < 2:
        raise argparse.ArgumentTypeError("sweep needs at least 2 steps")
    if not start < stop:
        raise argparse.ArgumentTypeError("sweep needs start < stop")
    return var, np.linspace(start, stop, steps)


def add_common(p: argparse.ArgumentParser, sweep_default: str | None = None) -> None:
    p.add_argument("--sweep", type=parse_sweep, default=sweep_default,
                   help="var:start:stop:steps with var in {N,eta,nu,delta_r,delta_theta}")
    p.add_argument("--N", type=float, default=1.0, help="mean photon number (default 1.0)")
    p.add_argument("--beta", type=float, default=None,
                   help="squeezing fraction (default: optimal N/(2N+1))")
    p.add_argument("--metrics", default=None,
                   help="comma-separated subset of the subcommand's metric columns")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def select_columns(args, input_cols: list[str], metric_cols: list[str]) -> list[str]:
    """Inputs are always echoed; --metrics restricts which metrics follow."""
    if getattr(args, "metrics", None) is None:
        return input_cols + metric_cols
    chosen = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in chosen if m not in metric_cols]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown metric(s) {unknown}; registry: {metric_cols}")
    return input_cols + chosen


def add_detector_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=float, default=1.0, help="detection efficiency in (0,1]")
    p.add_argument("--nu", type=float, default=0.0, help="mean dark count rate >= 0")
    p.add_argument("--M", type=int, default=1, help="detector resolution >= 1")


def add_mismatch_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dr", type=float, default=0.0, help="squeezing magnitude mismatch")
    p.add_argument("--dtheta", type=float, default=0.0, help="squeezing phase mismatch (radians)")
    p.add_argument("--M", type=int, default=1, help="detector resolution >= 1")


def design_for(N: float, beta: float | None):
    return make_design(N, beta) if beta is not None else design_at_optimal_beta(N)


def sweep_values(args, default_var: str = "N") -> tuple[str, np.ndarray]:
    if args.sweep is None:
        return default_var, np.array([args.N])
    return args.sweep


# --- subcommand bodies -------------------------------------------------------

def cmd_bounds(args) -> int:
    var, grid = sweep_values(args)
    if var != "N":
        raise argparse.ArgumentTypeError("bounds sweeps over N only")
    cols = select_columns(args, ["N"],
                          ["hb_cs", "sql_cs", "hb_dss", "sql_dss",
                           "db_sql_cs_vs_hb_cs", "db_hb_dss_vs_hb_cs", "db_sql_dss_vs_hb_cs"])
    with open_out(args.out) as fh:
        w = Writer(fh, cols, args.format)
        for N in grid:
            hb_c, sql_c = benchmarks.helstrom_cs(N), benchmarks.sql_cs(N)
            hb_d, sql_d = benchmarks.hb_dss_opt(N), benchmarks.sql_dss_opt(N)
            row = {"N": float(N), "hb_cs": hb_c, "sql_cs": sql_c,
                   "hb_dss": hb_d, "sql_dss": sql_d}
            if N > 0:
                row["db_sql_cs_vs_hb_cs"] = benchmarks.ratio_db(sql_c, hb_c)
                row["db_hb_dss_vs_hb_cs"] = benchmarks.ratio_db(hb_d, hb_c)
                row["db_sql_dss_vs_hb_cs"] = benchmarks.ratio_db(sql_d, hb_c)
            else:
                row["db_sql_cs_vs_hb_cs"] = None
                row["db_hb_dss_vs_hb_cs"] = None
                row["db_sql_dss_vs_hb_cs"] = None
            w.write(row)
    return EXIT_OK


def cmd_ideal(args) -> int:
    var, grid = sweep_values(args)
    if var != "N":
        raise argparse.ArgumentTypeError("ideal sweeps over N only")
    cols = select_columns(args, ["N"],
                          ["p_err", "p_err_kennedy", "hb_dss", "sql_dss", "hb_cs", "sql_cs",
                           "gain_db_vs_kennedy", "gain_db_vs_sql_cs", "gain_db_vs_sql_dss",
                           "gain_db_vs_hb_cs", "db_above_hb_dss", "ratio_to_hb_dss"])
    with open_out(args.out) as fh:
        w = Writer(fh, cols, args.format)
        for N in grid:
            p = p_err_ideal(N)
            row = {"N": float(N), "p_err": p, "p_err_kennedy": p_err_kennedy(N),
                   "hb_dss": benchmarks.hb_dss_opt(N), "sql_dss": benchmarks.sql_dss_opt(N),
                   "hb_cs": benchmarks.helstrom_cs(N), "sql_cs": benchmarks.sql_cs(N),
                   "ratio_to_hb_dss": ratio_to_helstrom(N)}
            if N > 0 and p > 0:
                row["gain_db_vs_kennedy"] = benchmarks.ratio_db(p_err_kennedy(N), p)
                row["gain_db_vs_sql_cs"] = benchmarks.ratio_db(benchmarks.sql_cs(N), p)
                row["gain_db_vs_sql_dss"] = benchmarks.ratio_db(benchmarks.sql_dss_opt(N), p)
                row["gain_db_vs_hb_cs"] = benchmarks.ratio_db(benchmarks.helstrom_cs(N), p)
                row["db_above_hb_dss"] = benchmarks.ratio_db(p, benchmarks.hb_dss_opt(N))
            else:
                for key in ("gain_db_vs_kennedy", "gain_db_vs_sql_cs", "gain_db_vs_sql_dss",
                            "gain_db_vs_hb_cs", "db_above_hb_dss"):
                    row[key] = None
            w.write(row)
    return EXIT_OK


def _detector_row(N: float, beta: float | None, det: DetectorModel) -> dict:
    design = design_for(N, beta)
    rule = p_err_imperfect(design, det)
    return {"N": N, "eta": det.eta, "nu": det.nu, "M": det.M,
            "n_threshold": rule.threshold, "p_fa": rule.p_fa, "p_mi": rule.p_mi,
            "p_err": rule.p_err,
            "db_vs_sql_dss": (benchmarks.ratio_db(benchmarks.sql_dss_opt(N), rule.p_err)
                              if N > 0 and rule.p_err > 0 else None)}


def cmd_detector(args) -> int:
    var, grid = sweep_values(args)
    cols = select_columns(args, ["N", "eta", "nu", "M"],
                          ["n_threshold", "p_fa", "p_mi", "p_err", "db_vs_sql_dss"])
    with open_out(args.out) as fh:
        w = Writer(fh, cols, args.format)
        for v in grid:
            N, eta, nu = args.N, args.eta, args.nu
            if var == "N":
                N = float(v)
            elif var == "eta":
                eta = float(v)
            elif var == "nu":
                nu = float(v)
            else:
                raise argparse.ArgumentTypeError(f"detector cannot sweep {var}")
            w.write(_detector_row(N, args.beta, DetectorModel(eta=eta, nu=nu, M=args.M)))
    return EXIT_OK


def _mismatch_row(N: float, beta: float | None, mm: MismatchModel, M: int,
                  det: DetectorModel | None) -> dict:
    design = design_for(N, beta)
    res = residual(design, mm)
    if det is None:
        rule = p_err_mismatch(design, mm, M)
    else:
        # Experimental: push the mismatch pmfs through an (eta, nu) detector.
        dist0, dist1 = (
            apply_detector_to_pmf(photon_pmf(A, res.r_m, res.theta_m), det,
                                  incident_cutoff=4 * M + 400)
            for A in (0.0, 2.0 * design.gamma))
        rule = map_set_decision(DecisionProblem(dist0=dist0, dist1=dist1))
    return {"N": N, "delta_r": mm.delta_r, "delta_theta": mm.delta_theta, "M": M,
            "r_m": res.r_m, "theta_m": res.theta_m, "vartheta": res.vartheta,
            "gamma_m_re": design.gamma, "gamma_m_im": 0.0,
            "accept_set": "|".join(str(n) for n in sorted(rule.accept_set)),
            "p_fa": rule.p_fa, "p_mi": rule.p_mi, "p_err": rule.p_err,
            "db_vs_sql_dss": (benchmarks.ratio_db(benchmarks.sql_dss_opt(N), rule.p_err)
                              if N > 0 and rule.p_err > 0 else None)}


def cmd_mismatch(args) -> int:
    var, grid = sweep_values(args)
    det = None
    if args.eta != 1.0 or args.nu != 0.0:
        if not args.experimental_detector:
            raise argparse.ArgumentTypeError(
                "composing mismatch with eta/nu is experimental; pass --experimental-detector")
        det = DetectorModel(eta=args.eta, nu=args.nu, M=args.M)
    cols = select_columns(args, ["N", "delta_r", "delta_theta", "M"],
                          ["r_m", "theta_m", "vartheta", "gamma_m_re", "gamma_m_im",
                           "accept_set", "p_fa", "p_mi", "p_err", "db_vs_sql_dss"])
    with open_out(args.out) as fh:
        w = Writer(fh, cols, args.format)
        for v in grid:
            N, dr, dth = args.N, args.dr, args.dtheta
            if var == "N":
                N = float(v)
            elif var == "delta_r":
                dr = float(v)
            elif var == "delta_theta":
                dth = float(v)
            else:
                raise argparse.ArgumentTypeError(f"mismatch cannot sweep {var}")
            w.write(_mismatch_row(N, args.beta, MismatchModel(dr, dth), args.M, det))
    return EXIT_OK


def cmd_thresholds(args) -> int:
    var, grid = sweep_values(args)
    if var != "N":
        raise argparse.ArgumentTypeError("thresholds sweeps over N only")
    det = DetectorModel(eta=args.eta, nu=args.nu, M=args.M)
    cols = select_columns(args, ["N", "eta", "nu", "M"], ["n_threshold", "p_err"])
    with open_out(args.out) as fh:
        w = Writer(fh, cols, args.format)
        for N in grid:
            design = design_for(float(N), args.beta)
            rule = p_err_imperfect(design, det)
            w.write({"N": float(N), "eta": det.eta, "nu": det.nu, "M": det.M,
                     "n_threshold": optimal_threshold(det, design.n_eff),
                     "p_err": rule.p_err})
    return EXIT_OK


def _stage_pmfs(design, stage: str, mm: MismatchModel):
    """Per-symbol photon pmfs at a stage of the receiver chain.

    Displacing a squeezed vacuum by A gives the same photon statistics as
    squeezing a coherent state of amplitude A e^r, which is the
    S(r e^{j theta}) D(A)|0> form photon_pmf takes.
    """
    gamma, r = design.gamma, design.r
    if stage == "input":
        return photon_pmf(-gamma, r), photon_pmf(gamma, r)
    if stage == "nulled":
        return photon_pmf(0.0, r), photon_pmf(2.0 * gamma, r)
    res = residual(design, mm)
    return (photon_pmf(0.0, res.r_m, res.theta_m),
            photon_pmf(2.0 * gamma, res.r_m, res.theta_m))


def cmd_populations(args) -> int:
    design = design_for(args.N, args.beta)
    pmf0, pmf1 = _stage_pmfs(design, args.stage, MismatchModel(args.dr, args.dtheta))
    cols = select_columns(args, ["n"], ["p_given_0", "p_given_1"])
    with open_out(args.out) as fh:
        w = Writer(fh, cols, args.format)
        for n in range(args.nmax + 1):
            w.write({"n": n, "p_given_0": pmf0(n), "p_given_1": pmf1(n)})
    return EXIT_OK


def cmd_wigner(args) -> int:
    design = design_for(args.N, args.beta)
    xs = np.linspace(args.xmin, args.xmax, args.points)
    ps = np.linspace(args.pmin, args.pmax, args.points)
    cols = select_columns(args, ["x", "p"], ["w_symbol0", "w_symbol1"])
    with open_out(args.out) as fh:
        w = Writer(fh, cols, args.format)
        for x in xs:
            for p in ps:
                pt = PhaseSpacePoint(float(x), float(p))
                w.write({"x": float(x), "p": float(p),
                         "w_symbol0": wigner_dss(pt, design, 0),
                         "w_symbol1": wigner_dss(pt, design, 1)})
    return EXIT_OK


def validation_battery(trials: int, seed: int) -> list[dict]:
    """Scenario points spanning ideal, imperfect, and mismatch operation."""
    points = [
        ("ideal N=1.0", design_at_optimal_beta(1.0), IdealScenario()),
        ("ideal N=0.5", design_at_optimal_beta(0.5), IdealScenario()),
        ("imperfect eta=1.0 nu=1e-2 M=2 N=3.0", design_at_optimal_beta(3.0),
         ImperfectScenario(DetectorModel(eta=1.0, nu=1e-2, M=2))),
        ("imperfect eta=0.5 nu=1e-3 M=1 N=1.0", design_at_optimal_beta(1.0),
         ImperfectScenario(DetectorModel(eta=0.5, nu=1e-3, M=1))),
        ("mismatch dr=0.02 dt=0 M=3 N=2.0", design_at_optimal_beta(2.0),
         MismatchScenario(MismatchModel(0.02, 0.0), M=3)),
        ("mismatch dr=0.02 dt=0.03pi M=1 N=1.0", design_at_optimal_beta(1.0),
         MismatchScenario(MismatchModel(0.02, 0.03 * math.pi), M=1)),
    ]
    rows = []
    for i, (label, design, scenario) in enumerate(points):
        report = simulate(design, TrialConfig(trials=trials, seed=seed + i, scenario=scenario))
        rows.append({"scenario": label, "trials": report.trials, "seed": report.seed,
                     "generator": report.generator,
                     "p_err_estimate": report.p_err_estimate,
                     "p_err_reference": report.p_err_reference,
                     "std_error": report.std_error,
                     "fa_count": report.fa_count, "mi_count": report.mi_count,
                     "z_score": report.z_score})
    return rows


def cmd_validate(args) -> int:
    rows = validation_battery(args.trials, args.seed)
    cols = select_columns(args, ["scenario", "trials", "seed", "generator"],
                          ["p_err_estimate", "p_err_reference", "std_error",
                           "fa_count", "mi_count", "z_score"])
    with open_out(args.out) as fh:
        w = Writer(fh, cols, args.format)
        for row in rows:
            w.write(row)
    failed = [r for r in rows if scenario_fails(r["fa_count"] + r["mi_count"], r["trials"],
                                                r["p_err_reference"], r["z_score"])]
    for r in failed:
        print(f"validation failed: {r['scenario']}: {r['fa_count'] + r['mi_count']} errors, "
              f"{r['trials'] * r['p_err_reference']:.3g} expected, z = {r['z_score']:.2f}",
              file=sys.stderr)
    return EXIT_VALIDATION if failed else EXIT_OK


def scenario_fails(errors: int, trials: int, p_ref: float, z: float) -> bool:
    """Whether a Monte Carlo scenario disagrees with its reference error rate.

    |z| > 4 fails, except below _RARE_ERRORS expected errors, where the normal
    law does not hold: there the error count k fails when its two-sided
    Poisson tail 2 min(P(X <= k), P(X >= k)), X ~ Poisson(trials p_ref), is
    below _TWO_SIDED_LEVEL.
    """
    mu = trials * p_ref
    if mu < _RARE_ERRORS:
        tail = min(poisson_cdf_below(errors + 1, mu), poisson_tail_ge(errors, mu))
        return 2.0 * tail < _TWO_SIDED_LEVEL
    return abs(z) > 4.0


# --- parser / config plumbing ------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iskennedy",
        description="Squeezed-light BPSK discrimination laboratory",
    )
    parser.add_argument("--config", default=None, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="benchmark bounds and dB ratios to HB_CS")
    add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("ideal", help="ideal receiver performance vs energy")
    add_common(p)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("detector", help="receiver with imperfect photon counter")
    add_common(p)
    add_detector_opts(p)
    p.set_defaults(func=cmd_detector)

    p = sub.add_parser("mismatch", help="receiver under inverse-squeezing mismatch")
    add_common(p)
    add_mismatch_opts(p)
    p.add_argument("--eta", type=float, default=1.0,
                   help="experimental: detector efficiency applied on top of mismatch")
    p.add_argument("--nu", type=float, default=0.0,
                   help="experimental: dark count rate applied on top of mismatch")
    p.add_argument("--experimental-detector", action="store_true",
                   help="acknowledge the unvalidated mismatch+detector composition")
    p.set_defaults(func=cmd_mismatch)

    p = sub.add_parser("thresholds", help="integer decision-threshold staircase")
    add_common(p)
    add_detector_opts(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("populations", help="photon-count pmfs of both symbols")
    add_common(p)
    p.add_argument("--stage", choices=("input", "nulled", "output"), default="output",
                   help="alphabet stage: as sent, after nulling, after inverse squeezing")
    p.add_argument("--dr", type=float, default=0.0)
    p.add_argument("--dtheta", type=float, default=0.0)
    p.add_argument("--nmax", type=int, default=20, help="largest photon number emitted")
    p.set_defaults(func=cmd_populations)

    p = sub.add_parser("wigner", help="Wigner function samples of the signal states")
    add_common(p)
    p.add_argument("--xmin", type=float, default=-4.0)
    p.add_argument("--xmax", type=float, default=4.0)
    p.add_argument("--pmin", type=float, default=-4.0)
    p.add_argument("--pmax", type=float, default=4.0)
    p.add_argument("--points", type=int, default=81, help="grid points per axis")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("validate", help="Monte Carlo concordance checks")
    add_common(p)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=20260811)
    p.set_defaults(func=cmd_validate)

    return parser


def load_config(path: str) -> list[str]:
    """Turn `key = value` lines into a flag list (later CLI flags override)."""
    extra: list[str] = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected `key = value`")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ValueError(f"{path}:{line_no}: empty key")
            extra.extend([f"--{key}", value])
    return extra


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    # Splice config-file values in right after the subcommand so that any
    # explicit flags (which come later) override them.
    config_path = None
    for i, token in enumerate(list(argv)):
        if token == "--config":
            if i + 1 >= len(argv):
                print("error: --config needs a path", file=sys.stderr)
                return EXIT_USAGE
            config_path = argv[i + 1]
            del argv[i:i + 2]
            break
        if token.startswith("--config="):
            config_path = token.split("=", 1)[1]
            del argv[i]
            break
    if config_path is not None:
        if not argv or argv[0].startswith("-"):
            print("error: --config requires a subcommand", file=sys.stderr)
            return EXIT_USAGE
        try:
            argv[1:1] = load_config(config_path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
