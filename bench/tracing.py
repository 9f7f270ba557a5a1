"""Per-layer tracing from outside the program.

`install` wraps the public functions listed in TARGETS, one or more for each
module of `src/iskennedy`, and `cli.Writer.write` and the parser that
`cli.build_parser` returns, with a span recorder.  A public function left
out (`p_err_mismatch`, `detected_count_pmf`, `optimal_threshold`, ...) counts
toward its caller's self time.  Every module attribute that is the same function object is
replaced, so names bound by `from ... import` in `cli`, `monte_carlo`, the
receivers and the package namespace are wrapped too.

A span has a name, a start, an end and a parent, in CPU seconds of the
process like every time of the benchmark.  A layer's self time is its span
minus the time its child spans cover.  A call is counted at the layer
boundary: a call whose parent span has the same key (for example
`make_design` under `design_at_optimal_beta`) adds self time but not a call.
An exception is counted once per module, where it leaves that module's
wrapped functions.  Spans are kept in memory, up to SPAN_CAP, and written
out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

SPAN_CAP = 50_000  # spans kept for the run's file; the counters see every call

MODULES = ("benchmarks", "gaussian_states", "fock_statistics", "receiver_ideal",
           "receiver_imperfect", "receiver_mismatch", "monte_carlo", "cli")

# (module, public functions, span key).  Functions sharing a key form one layer metric.
TARGETS = (
    ("benchmarks", ("helstrom_dss", "sql_dss", "helstrom_cs", "sql_cs", "hb_dss_opt",
                    "sql_dss_opt", "ratio_db", "bisect_root", "crossover_sql_dss_vs_hb_cs"),
     "benchmarks"),
    ("gaussian_states", ("wigner_dss",), "gaussian_states.wigner_dss"),
    ("gaussian_states", ("optimal_beta", "make_design", "design_at_optimal_beta"),
     "gaussian_states.design"),
    ("fock_statistics", ("dss_pmf",), "fock_statistics.dss_pmf"),
    ("fock_statistics", ("sv_pmf",), "fock_statistics.sv_pmf"),
    ("fock_statistics", ("poisson_pmf",), "fock_statistics.poisson_pmf"),
    ("fock_statistics", ("poisson_tail_ge", "poisson_cdf_below"), "fock_statistics.poisson_tail"),
    ("fock_statistics", ("clamp_to_resolution",), "fock_statistics.clamp_to_resolution"),
    ("receiver_ideal", ("transform_means", "ideal_count_pmf", "map_threshold_ideal",
                        "p_err_ideal", "p_err_kennedy", "ratio_to_helstrom",
                        "crossings_vs_benchmarks", "ideal_decision", "threshold_accept_set"),
     "receiver_ideal"),
    ("receiver_imperfect", ("p_err_imperfect",), "receiver_imperfect.p_err_imperfect"),
    ("receiver_imperfect", ("apply_detector_to_pmf",), "receiver_imperfect.apply_detector_to_pmf"),
    ("receiver_mismatch", ("residual",), "receiver_mismatch.residual"),
    ("receiver_mismatch", ("mismatch_count_pmf",), "receiver_mismatch.mismatch_count_pmf"),
    ("receiver_mismatch", ("map_set_decision",), "receiver_mismatch.map_set_decision"),
    ("monte_carlo", ("scenario_problem",), "monte_carlo.scenario_problem"),
    ("monte_carlo", ("simulate", "simulate_physical_imperfect"), "monte_carlo.sample"),
    ("cli", ("main",), "cli.main"),
    ("cli", ("cmd_bounds", "cmd_ideal", "cmd_detector", "cmd_mismatch", "cmd_thresholds",
             "cmd_populations", "cmd_wigner", "cmd_validate"), "cli.cmd"),
)


class Tracer:
    def __init__(self):
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.keep_spans = True
        self._stack: list[list] = []
        self._next_id = 0

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def snapshot(self) -> dict[str, float]:
        return dict(self.counters)

    def delta(self, before: dict[str, float]) -> defaultdict[str, float]:
        out: defaultdict[str, float] = defaultdict(float)
        for name, value in self.counters.items():
            out[name] = value - before.get(name, 0.0)
        return out

    def wrap(self, fn, key: str, module: str, hook=None):
        """Return `fn` recording a span under `key`; `hook(args, kwargs)` may
        count something about the call and returns the args to pass on."""
        counters, stack, clock = self.counters, self._stack, time.process_time
        calls, self_ms, incl_ms = key + ".calls", key + ".self_ms", key + ".incl_ms"
        errors = module + ".errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args = hook(args, kwargs)
            parent = stack[-1] if stack else None
            outer = parent is None or parent[0] != key
            if outer:
                counters[calls] += 1
            self._next_id += 1
            frame = [key, clock(), 0.0, self._next_id, module]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[4] != module:
                    counters[errors] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                span = end - frame[1]
                counters[self_ms] += (span - frame[2]) * 1e3
                if outer:
                    counters[incl_ms] += span * 1e3
                if parent is not None:
                    parent[2] += span
                if self.keep_spans:
                    if len(self.spans) < SPAN_CAP:
                        self.spans.append((frame[3], parent[3] if parent else None,
                                           key, frame[1], end))
                    else:
                        self.dropped_spans += 1

        return wrapper

    def install(self) -> None:
        """Wrap the TARGETS everywhere the package holds a reference to them."""
        import iskennedy.cli as cli

        package = [m for name, m in sys.modules.items()
                   if name == "iskennedy" or name.startswith("iskennedy.")]
        hooks = {"dss_pmf": self._count_hermite, "apply_detector_to_pmf": self._count_incident,
                 "simulate": self._count_config_trials,
                 "simulate_physical_imperfect": self._count_trials}
        for module_name, names, key in TARGETS:
            module = sys.modules["iskennedy." + module_name]
            for name in names:
                original = getattr(module, name)
                wrapped = self.wrap(original, key, module_name, hooks.get(name))
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapped)
        cli.Writer.write = self.wrap(cli.Writer.write, "cli.write", "cli")
        build_parser = cli.build_parser

        def traced_parser():
            parser = build_parser()
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse", "cli")
            return parser

        cli.build_parser = self.wrap(traced_parser, "cli.parse", "cli")

    def _count_hermite(self, args, kwargs):
        self.counters["fock_statistics.hermite_steps"] += args[0] if args else kwargs["n"]
        return args

    def _count_incident(self, args, kwargs):
        pmf = args[0] if args else kwargs.pop("pmf")
        counters = self.counters

        def counted(n):
            counters["receiver_imperfect.incident_terms"] += 1
            return pmf(n)

        return (counted,) + tuple(args[1:])

    def _count_config_trials(self, args, kwargs):
        config = args[1] if len(args) > 1 else kwargs["config"]
        self.counters["monte_carlo.trials"] += config.trials
        return args

    def _count_trials(self, args, kwargs):
        self.counters["monte_carlo.trials"] += args[2] if len(args) > 2 else kwargs["trials"]
        return args


def _calls_self(key: str) -> list[tuple]:
    return [(key + ".calls", "count", "lower", lambda d: d[key + ".calls"]),
            (key + ".self_ms", "ms", "lower", lambda d: d[key + ".self_ms"])]


def _ratio(num: str, den: str, scale: float = 1.0):
    return lambda d: d[num] / d[den] * scale if d[den] else 0.0


def _counter(name: str):
    return lambda d: d[name]


# Median over set-up probes: (metric, unit, better, field of the probe report).
IMPORT_METRICS = (
    ("import.numpy_ms", "ms", "lower", "numpy_ms"),
    ("import.scipy_special_ms", "ms", "lower", "scipy_special_ms"),
    ("import.iskennedy_ms", "ms", "lower", "iskennedy_ms"),
)

# Median over rounds of the per-round value: (metric, unit, better, value of a round's counters).
ROUND_METRICS = (
    ("cli.rows", "count", "higher", _counter("cli.write.calls")),
    ("cli.bytes_out", "bytes", "lower", _counter("cli.bytes_out")),
    ("cli.write_ms", "ms", "lower", _counter("cli.write.self_ms")),
    ("cli.parse_ms", "ms", "lower", _counter("cli.parse.self_ms")),
    ("cli.cmd_self_ms", "ms", "lower", _counter("cli.cmd.self_ms")),
    *_calls_self("gaussian_states.wigner_dss"),
    *_calls_self("gaussian_states.design"),
    *_calls_self("benchmarks"),
    *_calls_self("fock_statistics.dss_pmf"),
    ("fock_statistics.hermite_steps", "count", "lower", _counter("fock_statistics.hermite_steps")),
    ("fock_statistics.hermite_steps_per_value", "count", "lower",
     _ratio("fock_statistics.hermite_steps", "fock_statistics.dss_pmf.calls")),
    *_calls_self("fock_statistics.sv_pmf"),
    *_calls_self("fock_statistics.poisson_pmf"),
    *_calls_self("fock_statistics.poisson_tail"),
    *_calls_self("fock_statistics.clamp_to_resolution"),
    *_calls_self("receiver_ideal"),
    *_calls_self("receiver_imperfect.p_err_imperfect"),
    *_calls_self("receiver_imperfect.apply_detector_to_pmf"),
    ("receiver_imperfect.incident_terms", "count", "lower",
     _counter("receiver_imperfect.incident_terms")),
    *_calls_self("receiver_mismatch.residual"),
    *_calls_self("receiver_mismatch.mismatch_count_pmf"),
    *_calls_self("receiver_mismatch.map_set_decision"),
    *_calls_self("monte_carlo.scenario_problem"),
    ("monte_carlo.sample_ms", "ms", "lower", _counter("monte_carlo.sample.self_ms")),
    ("monte_carlo.trials", "count", "higher", _counter("monte_carlo.trials")),
    ("monte_carlo.trials_per_s", "1/s", "higher",
     _ratio("monte_carlo.trials", "monte_carlo.sample.incl_ms", 1e3)),
)

# Summed over the whole run: exceptions that left each module.
ERROR_METRICS = tuple((module + ".errors", "count", "lower") for module in MODULES)

PER_LAYER = tuple(m[:3] for m in IMPORT_METRICS + ROUND_METRICS + ERROR_METRICS)


def layer_metrics(tracer: Tracer, rounds: list, setups: list[dict]) -> dict[str, dict]:
    """Every per-layer metric as {"value", "unit"}, from per-round counter deltas."""
    out = {}
    for name, unit, _, field in IMPORT_METRICS:
        out[name] = {"value": statistics.median(s[field] for s in setups), "unit": unit}
    for name, unit, _, value in ROUND_METRICS:
        out[name] = {"value": statistics.median(value(d) for d in rounds), "unit": unit}
    for name, unit, _ in ERROR_METRICS:
        out[name] = {"value": tracer.counters[name], "unit": unit}
    return out
