"""Benchmark of iskennedy: one workload per run, in one process and one thread.

    python3 bench/run.py --workload curves --seed 1 --seconds 20 --trace 0

The run repeats whole rounds of the workload's fixed work until `--seconds`
have passed, checking each round's outputs outside the timed region.
Between rounds it starts SETUP_PROBES fresh interpreters, spread over the
run, that import the program and make the workload's inputs (`setup_s`).
The last line of standard output is one JSON object with `correct`,
`attempted` and `failed` (units of work) and the metrics: the end-to-end
ones with `--trace 0`; with `--trace 1` the per-layer ones, from a run with
every public function of the program wrapped.
Results and spans are also written under `bench/out/`.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import probe

SETUP_PROBES = 12
OUT = Path(probe.BENCH) / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("unit_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def measure(workload, pool: list, seconds: float, tracer=None, setup=None) -> dict:
    """Run whole rounds from the pool until `seconds` have passed.

    `setup()` starts one set-up probe; the SETUP_PROBES probes are spread
    evenly over the run, between rounds, so that they sample the machine in
    the same states as the rounds do.
    """
    round_s, per_round = [], []
    unit_s = array("d")  # 8 bytes a unit: more units from a faster program barely move peak RSS
    problems, failures, setups = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        if setup and time.perf_counter() - start >= len(setups) * seconds / SETUP_PROBES:
            setups.append(setup())
        items = pool[len(round_s) % len(pool)]
        before = tracer.snapshot() if tracer else None
        t0 = time.process_time()
        times, outputs, failed = workload.run_round(items)
        round_s.append(time.process_time() - t0)
        if tracer:
            per_round.append(tracer.delta(before))
            tracer.keep_spans = False  # spans of the first round only
        attempted += len(items)
        unit_s.extend(times)
        failures += failed
        problems += workload.check_round(items, outputs)
        del outputs  # hold one round's outputs at a time, not two
        if time.perf_counter() - start >= seconds:
            break
    while setup and len(setups) < SETUP_PROBES:
        setups.append(setup())
    problems += workload.finish()
    return {"rounds": len(round_s), "round_s": round_s, "unit_s": unit_s,
            "per_round": per_round, "attempted": attempted, "failures": failures,
            "problems": problems, "setups": setups}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    probe.pin_threads()
    probe.add_src()
    import iskennedy

    probe.check_source(iskennedy)
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    workload = workloads.make(args.workload, tracer)
    pool = workload.inputs(args.seed)
    if tracer:
        tracer.install()
    run = measure(workload, pool, args.seconds, tracer,
                  setup=lambda: probe.spawn(args.workload, args.seed, importtime=bool(tracer)))
    setups = run["setups"]

    wall_s = statistics.median(run["round_s"])
    unit_p50_ms = statistics.median(run["unit_s"]) * 1e3 if run["unit_s"] else None
    if tracer:
        metrics = tracing.layer_metrics(tracer, run["per_round"], setups)
    else:
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                  "wall_s": wall_s, "unit_p50_ms": unit_p50_ms,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for message in (run["failures"] + run["problems"])[:20]:
        print(message, file=sys.stderr)
    correct = not run["problems"] and not run["failures"]
    result = {"correct": correct, "attempted": run["attempted"],
              "failed": len(run["failures"]), "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"result": result, "wall_s": wall_s, "unit_p50_ms": unit_p50_ms,
              "round_s": run["round_s"], "setups": setups}
    if tracer:
        detail["dropped_spans"] = tracer.dropped_spans
        detail["spans"] = [list(span) for span in tracer.spans]
    (OUT / f"{stem}.json").write_text(json.dumps(detail) + "\n")
    print(json.dumps(result))
    return 0 if correct and unit_p50_ms is not None else 1


if __name__ == "__main__":
    sys.exit(main())
