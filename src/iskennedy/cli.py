"""Command-line front end: sweeps, threshold tables, and Monte Carlo checks.

Subcommands (the options and sweep variables of each are declared in
COMMANDS; `iskennedy <subcommand> --help` lists them)
-----------
bounds       benchmark error probabilities and their dB ratios to HB_CS
ideal        ideal receiver error vs energy, with dB gains over benchmarks
detector     receiver error with an imperfect photon counter (eta, nu, M)
mismatch     receiver error under inverse-squeezing mismatch (dr, dtheta, M)
thresholds   the integer decision-threshold staircase vs energy: `detector`
             with the columns n_threshold, p_err
populations  photon-count pmfs of both symbols at one operating point
wigner       Wigner-function samples of the two signal states on a grid
validate     Monte Carlo concordance checks; exits 4 when a scenario fails
             (|z| > 4, or below 100 expected errors a two-sided Poisson
             tail under 6.334e-5, the level of |z| > 4)

Output is CSV (RFC-4180, '.' decimal, 17 significant digits) or JSON lines;
rows are emitted in sweep order, through `emit` as column blocks (see Writer):
a Wigner grid one x line at a time, other tables up to 256 rows at a time,
each distinct float formatted once a table.
Exit codes: 0 ok, 1 reader closed the pipe, 2 usage error, 3 numerical-
consistency failure or float overflow, 4 validation failure.  Usage errors
write nothing: an option the subcommand does not take, a sweep variable it
cannot vary, a --metrics list naming an unknown metric, one twice or none
(--metrics p_err,p_err; --metrics ,), a non-finite number or Wigner grid
span, --M < 1, --nmax < 0, --points or --trials < 1, an unreadable --config
and an --out path that cannot be opened are rejected before output, and so
is a value a model rejects at any point of a sweep (--eta 2, --sweep
eta:0.5:2:4).  A negative value may follow its option as a separate word in
any float form (--dtheta -1e-3).  A dB cell is empty at N = 0 and where one
of its probabilities underflows to 0.

A config file (--config) may hold `key = value` lines mirroring the long
option names, e.g. `sweep = N:0.1:3.0:30`; explicit flags override it.
"""

from __future__ import annotations

import argparse
import copy
import functools
import itertools
import json
import math
import os
import re
import sys
from contextlib import nullcontext
from typing import NamedTuple

from . import benchmarks
from .errors import NumericalConsistencyError
from .fock_statistics import photon_pmf, poisson_cdf_below, poisson_tail_ge
from .gaussian_states import design_at_optimal_beta, make_design, wigner_grid
from .monte_carlo import IdealScenario, ImperfectScenario, MismatchScenario, TrialConfig, simulate
from .receiver_ideal import DecisionProblem, p_err_ideal, p_err_kennedy, ratio_to_helstrom
from .receiver_imperfect import DetectorModel, apply_detector_to_pmf, p_err_imperfect
from .receiver_mismatch import (MismatchModel, map_set_decision, mismatch_law, mismatch_problem,
                                residual)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

# See scenario_fails.  The level is 2 (1 - Phi(4)), the two-sided chance of |z| > 4.
_RARE_ERRORS = 100
_TWO_SIDED_LEVEL = 6.334e-5

# A value that reads like -1 or -.5, after a flag with no "=value": see main.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")
_BARE_FLAG = re.compile(r"--[^=]+")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value + 0.0:.17g}"  # + 0.0 folds -0.0 into 0.0
    if isinstance(value, str):
        quote = any(c in value for c in ',"\r\n')
        return '"' + value.replace('"', '""') + '"' if quote else value
    return "" if value is None else str(value)


def _json_cell(value) -> str:
    return float.__repr__(value + 0.0) if isinstance(value, float) else json.dumps(value)


# The most distinct floats a Writer's memo holds; it starts over when full.
_MEMO_CAP = 1 << 15


class _FloatCells(dict):
    """Float -> its cell, formatted by `cell` on first sight (-0.0 and 0.0
    share a key and a cell).  A non-finite value raises and is never stored."""

    def __init__(self, cell):
        super().__init__()
        self.cell = cell

    def __missing__(self, value: float) -> str:
        if not math.isfinite(value):
            raise NumericalConsistencyError
        if len(self) >= _MEMO_CAP:
            self.clear()
        cell = self[value] = self.cell(value)
        return cell


class Writer:
    """Streams a table as CSV or JSON lines with stable column order.

    `write_block` takes a column block, {column: list of values}.  It formats
    each column with one comprehension (CSV: floats to 17 significant digits,
    None as an empty cell; JSON lines: JSON values, None as null; -0.0 as 0.0
    in both), raising for a non-finite float before any row of the block is
    written, and passes each row's cells to `write`, once per output row.  A
    one-value column stands for its value on every row of the block.  Each
    distinct float is formatted once per table (memoized, at most _MEMO_CAP
    at a time); an int, string or None is formatted each time, so 7 never
    takes the cell of 7.0.
    """

    def __init__(self, stream, fieldnames: list[str], kind: str):
        self.stream = stream
        self.fieldnames = fieldnames
        self.kind = kind
        self._floats = _FloatCells(_csv_cell if kind == "csv" else _json_cell)
        if kind == "csv":
            stream.write(",".join(fieldnames) + "\n")
        else:
            self._keys = [json.dumps(k) + ": " for k in fieldnames]

    def _cells(self, column: str, values: list) -> list[str]:
        floats, cell = self._floats, self._floats.cell
        try:
            return [floats[v] if isinstance(v, float) else cell(v) for v in values]
        except NumericalConsistencyError:
            raise NumericalConsistencyError(
                f"non-finite metric {column!r} in output block") from None

    def write_block(self, block: dict) -> None:
        columns = [self._cells(c, block[c]) for c in self.fieldnames]
        rows = max(map(len, columns))
        for cells in zip(*(c * rows if len(c) == 1 else c for c in columns)):
            self.write(cells)

    def write(self, cells) -> None:
        """One output row from its formatted cells."""
        if self.kind == "csv":
            self.stream.write(",".join(cells) + "\n")
        else:
            self.stream.write("{" + ", ".join(map(str.__add__, self._keys, cells)) + "}\n")


# --- option and subcommand declarations --------------------------------------

def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num).tolist() bit for bit, num >= 1: i*step + start, or
    i/(num-1)*delta + start where the step is zero or underflows, and stop last."""
    div, delta = num - 1, stop - start
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    return [(i / div * delta if step == 0 else i * step) + start for i in range(div)] + [stop]


def sweep_type(variables: tuple[str, ...]):
    """The --sweep type of a subcommand that may vary `variables`."""
    def sweep(text: str) -> tuple[str, list[float]]:
        parts = text.split(":")
        if len(parts) != 4:
            raise argparse.ArgumentTypeError("sweep must be var:start:stop:steps")
        var, start, stop, steps = parts[0], finite(parts[1]), finite(parts[2]), int(parts[3])
        if var not in variables:
            raise argparse.ArgumentTypeError(
                f"cannot sweep {var!r}; choose from {', '.join(variables)}")
        if steps < 2:
            raise argparse.ArgumentTypeError("sweep needs at least 2 steps")
        if not start < stop:
            raise argparse.ArgumentTypeError("sweep needs start < stop")
        return var, linspace(start, stop, steps)
    return sweep


# Every option, declared once: name -> add_argument keywords.  --dr and
# --dtheta store under the sweep variable and column names they set.
OPTIONS = {
    "N": dict(type=finite, default=1.0, help="mean photon number (default 1.0)"),
    "beta": dict(type=finite, default=None,
                 help="squeezing fraction (default: optimal N/(2N+1))"),
    "eta": dict(type=finite, default=1.0,
                help="detection efficiency in (0,1] (experimental under mismatch)"),
    "nu": dict(type=finite, default=0.0,
               help="mean dark count rate >= 0 (experimental under mismatch)"),
    "M": dict(type=at_least(1), default=1, help="detector resolution >= 1"),
    "dr": dict(type=finite, default=0.0, dest="delta_r", help="squeezing magnitude mismatch"),
    "dtheta": dict(type=finite, default=0.0, dest="delta_theta",
                   help="squeezing phase mismatch (radians)"),
    "experimental-detector": dict(
        action="store_true", help="acknowledge the unvalidated mismatch+detector composition"),
    "stage": dict(choices=("input", "nulled", "output"), default="output",
                  help="alphabet stage: as sent, after nulling, after inverse squeezing"),
    "nmax": dict(type=at_least(0), default=20, help="largest photon number emitted"),
    "xmin": dict(type=finite, default=-4.0),
    "xmax": dict(type=finite, default=4.0),
    "pmin": dict(type=finite, default=-4.0),
    "pmax": dict(type=finite, default=4.0),
    "points": dict(type=at_least(1), default=81, help="grid points per axis"),
    "trials": dict(type=at_least(1), default=1_000_000),
    "seed": dict(type=int, default=20260811),
    "metrics": dict(default=None,
                    help="comma-separated subset of the subcommand's metric columns"),
    "format": dict(choices=("csv", "jsonl"), default="csv"),
    "out": dict(default=None, help="output path (default stdout)"),
}

COMMON = ("metrics", "format", "out")


class Command(NamedTuple):
    """A subcommand: the options it reads beyond COMMON, the variables --sweep
    may vary (none: no --sweep), and its input and metric columns.  It runs
    as the module function cmd_<name>."""

    help: str
    options: tuple[str, ...]
    sweeps: tuple[str, ...]
    inputs: tuple[str, ...]
    metrics: tuple[str, ...]


_DETECTOR = ("N", "beta", "eta", "nu", "M")

COMMANDS = {
    "bounds": Command(
        "benchmark bounds and dB ratios to HB_CS", ("N",), ("N",), ("N",),
        ("hb_cs", "sql_cs", "hb_dss", "sql_dss",
         "db_sql_cs_vs_hb_cs", "db_hb_dss_vs_hb_cs", "db_sql_dss_vs_hb_cs")),
    "ideal": Command(
        "ideal receiver performance vs energy", ("N",), ("N",), ("N",),
        ("p_err", "p_err_kennedy", "hb_dss", "sql_dss", "hb_cs", "sql_cs",
         "gain_db_vs_kennedy", "gain_db_vs_sql_cs", "gain_db_vs_sql_dss",
         "gain_db_vs_hb_cs", "db_above_hb_dss", "ratio_to_hb_dss")),
    "detector": Command(
        "receiver with imperfect photon counter", _DETECTOR, ("N", "eta", "nu"),
        ("N", "eta", "nu", "M"), ("n_threshold", "p_fa", "p_mi", "p_err", "db_vs_sql_dss")),
    "mismatch": Command(
        "receiver under inverse-squeezing mismatch",
        ("N", "beta", "dr", "dtheta", "M", "eta", "nu", "experimental-detector"),
        ("N", "delta_r", "delta_theta"), ("N", "delta_r", "delta_theta", "M"),
        ("r_m", "theta_m", "vartheta", "gamma_m_re", "gamma_m_im",
         "accept_set", "p_fa", "p_mi", "p_err", "db_vs_sql_dss")),
    "thresholds": Command(
        "integer decision-threshold staircase", _DETECTOR, ("N",),
        ("N", "eta", "nu", "M"), ("n_threshold", "p_err")),
    "populations": Command(
        "photon-count pmfs of both symbols", ("N", "beta", "stage", "dr", "dtheta", "nmax"),
        (), ("n",), ("p_given_0", "p_given_1")),
    "wigner": Command(
        "Wigner function samples of the signal states",
        ("N", "beta", "xmin", "xmax", "pmin", "pmax", "points"),
        (), ("x", "p"), ("w_symbol0", "w_symbol1")),
    "validate": Command(
        "Monte Carlo concordance checks", ("trials", "seed"), (),
        ("scenario", "trials", "seed", "generator"),
        ("p_err_estimate", "p_err_reference", "std_error", "fa_count", "mi_count", "z_score")),
}


# --- the one table path ------------------------------------------------------

def select_columns(metrics: str | None, spec: Command) -> list[str]:
    """Inputs are always echoed; --metrics restricts which metrics follow, each named
    once, at least one."""
    if metrics is None:
        return [*spec.inputs, *spec.metrics]
    chosen = [m.strip() for m in metrics.split(",") if m.strip()]
    unknown = [m for m in chosen if m not in spec.metrics]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown metric(s) {unknown}; registry: {list(spec.metrics)}")
    if not chosen or len(set(chosen)) < len(chosen):
        raise argparse.ArgumentTypeError(
            f"--metrics must name at least one metric, each once, got {metrics!r}")
    return [*spec.inputs, *chosen]


def emit(args, blocks) -> int:
    """Write `blocks`, column blocks made lazily in order, as the subcommand's table.

    The first block is made before the output opens, so a value that a model
    rejects there writes nothing."""
    cols = select_columns(args.metrics, COMMANDS[args.command])
    blocks = iter(blocks)
    first = next(blocks)
    to_file = args.out not in (None, "-")
    try:
        out = open(args.out, "w", newline="") if to_file else nullcontext(sys.stdout)
    except OSError as exc:  # a missing directory, a directory: a usage error
        raise ValueError(f"cannot open --out {args.out!r}: {exc.strerror}") from None
    with out as fh:
        w = Writer(fh, cols, args.format)
        for block in itertools.chain((first,), blocks):
            w.write_block(block)
        fh.flush()  # a closed pipe raises here, not at shutdown
    return EXIT_OK


def column_blocks(command: str, rows):
    """Row dicts, made lazily, as blocks of up to 256 rows in every column of the subcommand."""
    spec, rows = COMMANDS[command], iter(rows)
    while batch := list(itertools.islice(rows, 256)):
        yield {c: [row[c] for row in batch] for c in spec.inputs + spec.metrics}


def sweep_blocks(args, row):
    """`row(args)` once per --sweep value, in blocks.  Every swept domain is an
    interval, so the row at the last value is made first, before emit opens
    the output."""
    var, grid = args.sweep or ("N", (args.N,))

    def at(value):
        setattr(args, var, float(value))
        return row(args)

    if args.sweep:
        at(grid[-1])
    return column_blocks(args.command, map(at, grid))


def design_for(N: float, beta: float | None):
    return make_design(N, beta) if beta is not None else design_at_optimal_beta(N)


def _db(a: float, b: float, N: float) -> float | None:
    """10 log10(a/b), or an empty cell at N = 0 and where a probability underflowed to 0."""
    return benchmarks.ratio_db(a, b) if N > 0 and a > 0 and b > 0 else None


# --- subcommand bodies -------------------------------------------------------

def _bounds_row(a) -> dict:
    N = a.N
    row = {"N": N, "hb_cs": benchmarks.helstrom_cs(N), "sql_cs": benchmarks.sql_cs(N),
           "hb_dss": benchmarks.hb_dss_opt(N), "sql_dss": benchmarks.sql_dss_opt(N)}
    for name in ("sql_cs", "hb_dss", "sql_dss"):
        row[f"db_{name}_vs_hb_cs"] = _db(row[name], row["hb_cs"], N)
    return row


def cmd_bounds(args) -> int:
    return emit(args, sweep_blocks(args, _bounds_row))


def _ideal_row(a) -> dict:
    N = a.N
    p = p_err_ideal(N)
    row = {"N": N, "p_err": p, "p_err_kennedy": p_err_kennedy(N),
           "hb_dss": benchmarks.hb_dss_opt(N), "sql_dss": benchmarks.sql_dss_opt(N),
           "hb_cs": benchmarks.helstrom_cs(N), "sql_cs": benchmarks.sql_cs(N),
           "ratio_to_hb_dss": ratio_to_helstrom(N)}
    for name in ("p_err_kennedy", "sql_cs", "sql_dss", "hb_cs"):
        row["gain_db_vs_" + name.removeprefix("p_err_")] = _db(row[name], p, N)
    row["db_above_hb_dss"] = _db(p, row["hb_dss"], N)
    return row


def cmd_ideal(args) -> int:
    return emit(args, sweep_blocks(args, _ideal_row))


def _detector_row(a) -> dict:
    rule = p_err_imperfect(design_for(a.N, a.beta), DetectorModel(eta=a.eta, nu=a.nu, M=a.M))
    return {"N": a.N, "eta": a.eta, "nu": a.nu, "M": a.M,
            "n_threshold": rule.threshold, "p_fa": rule.p_fa, "p_mi": rule.p_mi,
            "p_err": rule.p_err,
            "db_vs_sql_dss": _db(benchmarks.sql_dss_opt(a.N), rule.p_err, a.N)}


def cmd_detector(args) -> int:
    return emit(args, sweep_blocks(args, _detector_row))


def cmd_thresholds(args) -> int:
    """`detector` over N with the columns n_threshold, p_err."""
    return cmd_detector(args)


def _mismatch_row(a) -> dict:
    """One `mismatch` row: mismatch_problem's pmfs, or with --eta/--nu each symbol law
    through apply_detector_to_pmf, decided by map_set_decision."""
    design = design_for(a.N, a.beta)
    res = residual(design, MismatchModel(a.delta_r, a.delta_theta))
    if a.eta == 1.0 and a.nu == 0.0:
        problem = mismatch_problem(design, res, a.M)
    else:  # experimental: push the mismatch laws through an (eta, nu) detector
        det = DetectorModel(eta=a.eta, nu=a.nu, M=a.M)
        problem = DecisionProblem(*(apply_detector_to_pmf(mismatch_law(design, res, s), det)
                                    for s in (0, 1)))
    rule = map_set_decision(problem)
    return {"N": a.N, "delta_r": a.delta_r, "delta_theta": a.delta_theta, "M": a.M,
            "r_m": res.r_m, "theta_m": res.theta_m, "vartheta": res.vartheta,
            "gamma_m_re": design.gamma, "gamma_m_im": 0.0,
            "accept_set": "|".join(str(n) for n in sorted(rule.accept_set)),
            "p_fa": rule.p_fa, "p_mi": rule.p_mi, "p_err": rule.p_err,
            "db_vs_sql_dss": _db(benchmarks.sql_dss_opt(a.N), rule.p_err, a.N)}


def cmd_mismatch(args) -> int:
    if (args.eta != 1.0 or args.nu != 0.0) and not args.experimental_detector:
        raise argparse.ArgumentTypeError(
            "composing mismatch with eta/nu is experimental; pass --experimental-detector")
    return emit(args, sweep_blocks(args, _mismatch_row))


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
    return mismatch_law(design, res, 0), mismatch_law(design, res, 1)


def cmd_populations(args) -> int:
    design = design_for(args.N, args.beta)
    pmf0, pmf1 = _stage_pmfs(design, args.stage, MismatchModel(args.delta_r, args.delta_theta))
    return emit(args, column_blocks(args.command, (
        {"n": n, "p_given_0": pmf0(n), "p_given_1": pmf1(n)} for n in range(args.nmax + 1))))


def cmd_wigner(args) -> int:
    """One block per x line; the grid's mirror symmetries repeat many cells."""
    if not (math.isfinite(args.xmax - args.xmin) and math.isfinite(args.pmax - args.pmin)):
        raise argparse.ArgumentTypeError("the grid span overflows a float")
    design = design_for(args.N, args.beta)
    xs = linspace(args.xmin, args.xmax, args.points)
    ps = linspace(args.pmin, args.pmax, args.points)
    lines = zip(xs, wigner_grid(xs, ps, design, 0), wigner_grid(xs, ps, design, 1))
    return emit(args, ({"x": [x], "p": ps, "w_symbol0": w0, "w_symbol1": w1}
                       for x, w0, w1 in lines))


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
    return [{"scenario": label, **vars(simulate(
                design, TrialConfig(trials=trials, seed=seed + i, scenario=scenario)))}
            for i, (label, design, scenario) in enumerate(points)]


def cmd_validate(args) -> int:
    rows = validation_battery(args.trials, args.seed)
    emit(args, column_blocks(args.command, rows))
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
    """A copy of the process's one parser, built on first use: what is set on it stays on it."""
    return copy.copy(_parser())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iskennedy",
        description="Squeezed-light BPSK discrimination laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        if spec.sweeps:
            p.add_argument("--sweep", type=sweep_type(spec.sweeps), default=None,
                           help=f"var:start:stop:steps with var in {{{','.join(spec.sweeps)}}}")
        for option in spec.options + COMMON:
            p.add_argument("--" + option, **OPTIONS[option])
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
    at = next((i for i, token in enumerate(argv) if token.partition("=")[0] == "--config"), None)
    if at is not None:
        _, eq, path = argv.pop(at).partition("=")
        try:
            if not eq and at == len(argv):
                raise ValueError("--config needs a path")
            path = path if eq else argv.pop(at)
            if not argv or argv[0].startswith("-"):
                raise ValueError("--config requires a subcommand")
            argv[1:1] = load_config(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    # `--dtheta -1e-3` as `--dtheta=-1e-3`: argparse takes a word that starts
    # with '-' for a flag unless it reads like -1 or -.5.
    for i in reversed(range(1, len(argv))):
        if _NEGATIVE_NUMBER.match(argv[i]) and _BARE_FLAG.fullmatch(argv[i - 1]):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        # Looked up on each call, so wrappers installed on this module take effect.
        return globals()["cmd_" + args.command](args)
    except BrokenPipeError:  # the reader left (`| head`): the shutdown flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (argparse.ArgumentTypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError as exc:  # an input so large that a float overflows (--N 1e200)
        print(f"numerical overflow: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
