"""Benchmark of sparsesum's three public solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. One workload runs in this single
process, one solve at a time. It repeats whole rounds of its cases
(workloads.py) until S seconds have passed, checks every output against
the oracles in oracles.py, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (solve_s, solves_per_s,
peak_rss_mb, setup_s). --trace 1 alternates untraced and traced solves
of each case and reports the per-layer metrics of tracer.py, means per
traced solve, plus trace.overhead_s; its spans go to
perfbench/out/<workload>.spans. The process exits 1 if an output is
wrong, and exits 1 without printing a result if the checkout holds no
src/sparsesum.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

# The speed of the machine drifts by up to a third between runs a
# minute apart (README.md), far more than a regression worth catching.
# So every timed interval is scaled by CALIBRATION_REF_S / c, where c is
# the time of calibrate() measured right before and right after it, and
# CALIBRATION_REF_S is calibrate()'s median time on the reference
# machine. The times then read as seconds on that machine at a steady
# speed.
CALIBRATION_REF_S = 0.105
_CAL_DATA = np.arange(1 << 16, dtype=np.int64)


def calibrate() -> float:
    """Seconds taken by a fixed mix of small numpy calls and interpreted
    integer arithmetic, the two kinds of work a solve does. It does not
    touch sparsesum, so a change to the package cannot move it."""
    start = time.perf_counter()
    acc = 0
    for i in range(250):
        merged = np.unique(np.concatenate([_CAL_DATA[i:i + 2000], _CAL_DATA[i + 100:i + 2100]]))
        acc += int(np.searchsorted(merged, i + 500))
        for j in range(200):
            acc += j * j % 7
    return time.perf_counter() - start


class Calibrated:
    """Scales intervals by the calibration measured on either side."""

    def __init__(self):
        self.cals = [calibrate()]
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float) -> None:
        self.cals.append(calibrate())
        self.raw.append(seconds)
        self.scaled.append(seconds * CALIBRATION_REF_S * 2 / (self.cals[-2] + self.cals[-1]))


# A fresh interpreter imports the package and makes one small solve;
# it prints the seconds both took.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import sparsesum
sys.path.insert(0, {here!r})
from workloads import warm_up
warm_up(sparsesum)
print(time.perf_counter() - start)
"""


def import_sparsesum():
    init = SRC / "sparsesum" / "__init__.py"
    if not init.is_file():
        sys.exit(f"run.py: no package source at {init}; run from a sparsesum checkout")
    sys.path.insert(0, str(SRC))
    import sparsesum

    if Path(sparsesum.__file__).resolve() != init.resolve():
        sys.exit(f"run.py: imported sparsesum from {sparsesum.__file__}, not {init}")
    return sparsesum


def measure_setup() -> float:
    """Median over SETUP_REPEATS fresh processes of import + one small
    solve, calibrated."""
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE))
    samples = Calibrated()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            check=True,
        )
        samples.add(float(out.stdout.strip().splitlines()[-1]))
    print(f"setup raw: {samples.raw}", file=sys.stderr)
    return statistics.median(samples.scaled)


class Run:
    """Counts, timings and outputs of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs = []  # (case, output), checked after the timed phase

    def attempt(self, case, fn) -> float | None:
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.failed += 1
            print(f"FAILED {case.label}", file=sys.stderr)
            traceback.print_exc()
            return None
        elapsed = time.perf_counter() - start
        self.outputs.append((case, out))
        return elapsed

    def correct(self) -> bool:
        ok = True
        for case, out in self.outputs:
            fault = case.check(out)
            if fault:
                ok = False
                print(f"WRONG {case.label}: {fault}", file=sys.stderr)
        return ok


def run_untraced(cases, seconds: float, run: Run) -> dict:
    times = Calibrated()
    start = time.perf_counter()
    while True:
        for case in cases:
            elapsed = run.attempt(case, case.solve)
            if elapsed is not None:
                times.add(elapsed)
        if time.perf_counter() - start >= seconds:
            break
    if not times.scaled:
        sys.exit("run.py: every solve failed")
    print(f"solve raw: median {statistics.median(times.raw)} s over {len(times.raw)} solves;"
          f" calibration median {statistics.median(times.cals)} s", file=sys.stderr)
    # a closed loop: throughput is solves over the time spent solving
    return {
        "solve_s": (statistics.median(times.scaled), "s"),
        "solves_per_s": (len(times.scaled) / sum(times.scaled), "1/s"),
    }


def run_traced(cases, seconds: float, run: Run, workload: str) -> dict:
    from tracer import METRICS, Tracer

    tracer = Tracer()
    plain, traced = [], []

    def solve_plain(case):
        return run.attempt(case, case.solve)

    def solve_traced(case):
        tracer.install()
        try:
            return run.attempt(case, lambda: tracer.solve("solve", case.solve))
        finally:
            tracer.uninstall()

    sides = [(plain, solve_plain), (traced, solve_traced)]
    start = time.perf_counter()
    for rnd in itertools.count():
        for case in cases:
            # swap the order every round, so that neither side always
            # runs right after the other
            for times, solve in sides if rnd % 2 == 0 else sides[::-1]:
                elapsed = solve(case)
                if elapsed is not None:
                    times.append(elapsed)
        if time.perf_counter() - start >= seconds:
            break
    if not traced or not plain:
        sys.exit("run.py: every solve failed")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"{workload}.spans")
    metrics = {k: (v, METRICS[k]) for k, v in tracer.metrics(len(traced)).items()}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, warm_up

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    ss = import_sparsesum()
    setup_s = None if args.trace else measure_setup()
    cases = WORKLOADS[args.workload](ss, args.seed)
    warm_up(ss)

    run = Run()
    if args.trace:
        metrics = run_traced(cases, args.seconds, run, args.workload)
    else:
        metrics = run_untraced(cases, args.seconds, run)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["setup_s"] = (setup_s, "s")
    correct = run.correct()
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
