"""Set-up probe: one fresh interpreter importing the program and making inputs.

Run as a child process by `run.py`:

    python3 bench/probe.py curves 1

The child reads the CPU time of the process on its first line (counted by
the kernel from the start of the process, so it is interpreter start-up),
then times `import iskennedy, iskennedy.cli` and the making of the
workload's inputs.  The benchmark's own modules are imported between those
two spans, untimed, and nothing of the program is imported before them.  It
prints one JSON line with `setup_s`, the sum of the three.

`spawn(..., importtime=True)` starts the child under `python -X importtime`
and adds the import time of numpy, scipy and iskennedy (see `import_split`),
in ms of wall clock, as the interpreter reports them.
The traced run uses it; the measured runs do not, so `setup_s` never carries
the cost of that report.
"""

import time

START = time.process_time()  # first statement: interpreter start-up only

import os  # noqa: E402  (both already loaded by the interpreter)
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# One thread everywhere: set before numpy is imported, here and in children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Packages whose import time the traced run reports, by metric field.
IMPORT_PACKAGES = {"numpy": "numpy_ms", "scipy": "scipy_special_ms",
                   "iskennedy": "iskennedy_ms"}


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def add_src() -> None:
    """Put the checkout's `src` first on sys.path, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "iskennedy", "__init__.py")):
        print(f"bench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)


def check_source(module) -> None:
    """Refuse to measure an iskennedy that was not imported from this checkout."""
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        print(f"bench: imported {module.__file__}, not the checkout's source", file=sys.stderr)
        raise SystemExit(2)


def spawn(workload: str, seed: int, importtime: bool = False) -> dict:
    """Run one probe child; return its report (`setup_s`, and with
    `importtime` the import time of each package in IMPORT_PACKAGES)."""
    import json
    import subprocess

    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run([sys.executable, *flags, os.path.join(BENCH, "probe.py"),
                           workload, str(seed)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        report.update(import_split(proc.stderr))
    return report


def import_split(report: str) -> dict[str, float]:
    """Import time of numpy, scipy and iskennedy, in ms, from an `-X importtime` report.

    Each module's self time goes to the nearest of these above it in the
    import tree, itself included: the first import of the `numpy` package, a
    scipy module or an iskennedy module.  So numpy's figure is what
    `import numpy` costs; a numpy or standard-library module that scipy or
    iskennedy brings in later counts as theirs; and the three add up to
    `import iskennedy, iskennedy.cli`.
    """
    out = dict.fromkeys(IMPORT_PACKAGES.values(), 0.0)
    lines = [line[len("import time:"):].split("|") for line in report.splitlines()
             if line.startswith("import time:")]
    above: list[tuple[int, str | None]] = []  # (depth, owner) of the open ancestors
    for self_us, _, name in reversed(lines):  # reversed post-order: parents come first
        if not self_us.strip().isdigit():
            continue  # the header
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        top = name.split(".")[0]
        while above and above[-1][0] >= depth:
            above.pop()
        above.append((depth, top if name == "numpy" or top in ("scipy", "iskennedy") else None))
        owner = next((p for _, p in reversed(above) if p), None)
        if owner:
            out[IMPORT_PACKAGES[owner]] += int(self_us) / 1e3
    return out


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    pin_threads()
    add_src()
    t0 = time.process_time()
    import iskennedy
    import iskennedy.cli  # noqa: F401
    t1 = time.process_time()
    check_source(iskennedy)
    import json

    import workloads

    t2 = time.process_time()
    workloads.make(workload).inputs(seed)
    t3 = time.process_time()
    print(json.dumps({"setup_s": START + (t1 - t0) + (t3 - t2)}))


if __name__ == "__main__":
    main()
