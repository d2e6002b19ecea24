"""Parallel sweep benchmark: SerialExecutor vs WorkStealingExecutor wall time.

Three acceptance properties of the experiment execution layer are measured
and asserted on a Figure-5-style sweep at n >= 100:

* **Equivalence** — the parallel row table matches the serial one exactly
  (every column except wall-clock ``seconds``), i.e. fanning jobs out over a
  process pool changes nothing but the schedule.
* **LP reuse under fan-out** — every job's provenance counters report
  exactly **one** simplified-LP relaxation solve per instance: affinity
  grouping keeps each instance's line-up (and its shared
  :class:`~repro.core.pipeline.SolveContext`) on one worker.
* **Speed-up** — with 2 workers the sweep completes at least **1.3x**
  faster than serially.  The assertion requires >= 2 usable cores (it is
  skipped, with a note, on single-core machines — the equivalence and LP
  checks still run).

Run as a script (not collected by pytest — benchmarks use the ``bench_``
prefix on purpose)::

    PYTHONPATH=src python benchmarks/bench_sweep_parallel.py [--quick]

``--quick`` shrinks the sweep; it is the mode the CI smoke job runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

try:
    from benchmarks._reporting import emit_bench_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from _reporting import emit_bench_json

from repro.core.registry import build_runners
from repro.experiments.executor import SerialExecutor, compile_sweep
from repro.experiments.figures import InstanceSweepFactory
from repro.experiments.harness import run_plan
from repro.experiments.scheduler import WorkStealingExecutor

WORKERS = 2
MIN_SPEEDUP = 1.3


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: a smaller sweep grid",
    )
    args = parser.parse_args(argv)

    if args.quick:
        values, num_items, repetitions = [120, 160, 200, 240], 120, 2
    else:
        values, num_items, repetitions = [120, 160, 200, 240, 280, 320], 150, 2

    factory = InstanceSweepFactory(
        dataset="timik", vary="n", num_items=num_items, num_slots=3
    )
    algorithms = build_runners(["AVG", "AVG-D"], {"AVG": {"repetitions": 5}})
    plan = compile_sweep(
        "bench-sweep-parallel",
        f"figure-5-style sweep, n in {values}, m={num_items}",
        values,
        factory,
        algorithms,
        seed=0,
        repetitions=repetitions,
    )
    print(f"Sweep plan: {len(plan)} jobs ({len(values)} values x {repetitions} reps), "
          f"line-up {', '.join(plan.algorithm_names)}")

    start = time.perf_counter()
    serial = run_plan(plan, SerialExecutor())
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_plan(plan, WorkStealingExecutor(workers=WORKERS))
    parallel_seconds = time.perf_counter() - start

    speedup = serial_seconds / parallel_seconds
    cpus = _usable_cpus()
    print(f"serial:          {serial_seconds:8.2f} s")
    print(f"parallel ({WORKERS}w):   {parallel_seconds:8.2f} s   "
          f"speedup {speedup:.2f}x   ({cpus} usable CPU(s))")

    failures = 0

    if serial.comparable_rows() != parallel.comparable_rows():
        print("FAIL: parallel row table differs from the serial one")
        failures += 1
    else:
        print(f"OK: {len(parallel.rows)} parallel rows identical to serial "
              "(all columns except wall-clock seconds)")

    for result, label in ((serial, "serial"), (parallel, "parallel")):
        bad = [
            prov for prov in result.parameters["job_provenance"]
            if prov["lp_solves"] != 1
        ]
        if bad:
            print(f"FAIL: {label} jobs with lp_solves != 1: "
                  f"{[(p['value'], p['rep'], p['lp_solves']) for p in bad]}")
            failures += 1
        else:
            print(f"OK: every {label} job performed exactly 1 LP solve per instance")

    worker_pids = {
        prov["pid"] for prov in parallel.parameters["job_provenance"]
    }
    if os.getpid() in worker_pids:
        print("FAIL: parallel jobs ran in the parent process")
        failures += 1

    if cpus >= 2:
        if speedup < MIN_SPEEDUP:
            print(f"FAIL: speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor "
                  f"with {WORKERS} workers")
            failures += 1
        else:
            print(f"OK: speedup {speedup:.2f}x >= {MIN_SPEEDUP}x with {WORKERS} workers")
    else:
        print(f"NOTE: only {cpus} usable CPU — the {MIN_SPEEDUP}x speedup floor "
              "needs >= 2 cores and was not asserted")

    emit_bench_json(
        "sweep_parallel",
        {
            "jobs": len(plan),
            "workers": WORKERS,
            "usable_cpus": cpus,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "speedup_asserted": cpus >= 2,
        },
        failures=failures,
    )

    print()
    if failures:
        print(f"{failures} acceptance check(s) failed.")
        return 1
    print("All checks passed: the process-pool executor reproduces the serial "
          "table with one LP solve per instance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
