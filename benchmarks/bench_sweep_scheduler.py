"""Work-stealing scheduler benchmark: a chunk-by-value schedule vs work stealing.

A chunked schedule assigns *all* repetitions of one sweep value to one
worker.  On a heterogeneous sweep — small instances next to one instance an
order of magnitude bigger — that chunk is the makespan: one worker grinds
the heavy value's repetitions back to back while the others sit idle.  The
:class:`~repro.experiments.scheduler.WorkStealingExecutor` splits the heavy
value's repetitions into separately claimable groups and orders groups
largest-first (``n * m * k``), so the heavy repetitions run *concurrently*.

The chunked baseline runs on a bench-local
:class:`~concurrent.futures.ProcessPoolExecutor` of ``min(workers,
values)`` processes: each value's jobs are one
:func:`~repro.experiments.executor._run_job_group` task, submitted in value
order with no store, so workers claim the values in plan order and run
each value's repetitions one after another.  Its table comes from
:func:`~repro.experiments.harness.aggregate_plan`, as ``run_plan``'s does.

Acceptance properties asserted on a Figure-5-style sweep whose largest
value, n=1080, is 8-11x the next one, with four repetitions per value.
The heavy value's jobs are what make the sweep heterogeneous, so they
must stay heavy as the solvers get faster.  With LP_SIMP solved by column
pricing an n=1080, m=100 job takes ~1.8 s and an n=100 job ~0.1-0.2 s
(2-CPU host): the chunked worker grinds four heavy jobs back to back
while stealing runs them two by two, and each leg lasts seconds, so
neither the pools' start-up (~0.3 s) nor a slow second decides the ratio.
The sweep used to end at n=360 with two repetitions; once pricing cut
those jobs to ~0.4 s the speed-up fell into that noise.  A larger n is
no better: two concurrent n=1800 jobs slow each other down, and such a
sweep read 1.13-1.44x.

* **Equivalence** — the work-stealing row table matches the chunked one
  exactly (every column except wall-clock ``seconds``): dynamic claiming
  changes the schedule, never the science.
* **LP reuse under stealing** — every job still reports exactly **one**
  simplified-LP relaxation solve: affinity grouping keeps all jobs of one
  instance on one worker.
* **Speed-up** — the stolen sweep completes at least **1.25x** faster than
  the chunked one with the same worker count.  Asserted only on >= 2-core
  hosts (the equivalence and LP checks always run).
* **Schedule** — the stolen leg's schedule starts with the heavy value's
  four repetition groups.

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_sweep_scheduler.py [--quick]

``--quick`` shrinks the sweep; it is the mode the CI smoke job runs.  Set
``BENCH_JSON_DIR`` to also write a machine-readable ``BENCH_*.json`` report.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional

try:
    from benchmarks._reporting import emit_bench_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from _reporting import emit_bench_json

from repro.core.registry import build_runners
from repro.experiments.executor import (
    JobResult,
    SweepJob,
    SweepPlan,
    _run_job_group,
    compile_sweep,
)
from repro.experiments.figures import InstanceSweepFactory
from repro.experiments.harness import ExperimentResult, aggregate_plan, run_plan
from repro.experiments.scheduler import WorkStealingExecutor

WORKERS = 2
MIN_SPEEDUP = 1.25


def run_chunked(plan: SweepPlan, workers: int) -> ExperimentResult:
    """Run ``plan`` chunked by value: one pool task per value, in value order."""
    chunks: Dict[int, List[SweepJob]] = {}
    for job in plan.jobs:
        chunks.setdefault(job.value_index, []).append(job)
    # The default start method, as WorkStealingExecutor's pool uses, so both
    # legs pay the same pool start-up.
    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        futures = [
            pool.submit(_run_job_group, plan.instance_factory, tuple(jobs), None, None, True)
            for jobs in chunks.values()
        ]
        results: List[JobResult] = [
            result for future in futures for result in future.result()[0]
        ]
    table = aggregate_plan(plan, {result.job_index: result for result in results})
    table.parameters["job_provenance"] = [result.provenance for result in results]
    return table


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
        values, num_items, repetitions = [60, 80, 100, 1080], 100, 4
    else:
        values, num_items, repetitions = [60, 80, 100, 140, 1080], 120, 4

    factory = InstanceSweepFactory(
        dataset="timik", vary="n", num_items=num_items, num_slots=3
    )
    algorithms = build_runners(["AVG", "AVG-D"], {"AVG": {"repetitions": 4}})
    plan = compile_sweep(
        "bench-sweep-scheduler",
        f"heterogeneous sweep, n in {values}, m={num_items}",
        values,
        factory,
        algorithms,
        seed=0,
        repetitions=repetitions,
    )
    print(f"Sweep plan: {len(plan)} jobs ({len(values)} values x {repetitions} reps), "
          f"heaviest value {max(values)} vs lightest {min(values)}")

    start = time.perf_counter()
    chunked = run_chunked(plan, WORKERS)
    chunked_seconds = time.perf_counter() - start

    stealing = WorkStealingExecutor(workers=WORKERS)
    start = time.perf_counter()
    stolen = run_plan(plan, stealing)
    stolen_seconds = time.perf_counter() - start

    speedup = chunked_seconds / stolen_seconds
    cpus = _usable_cpus()
    print(f"chunked ({WORKERS}w):        {chunked_seconds:8.2f} s")
    print(f"work-stealing ({WORKERS}w):  {stolen_seconds:8.2f} s   "
          f"speedup {speedup:.2f}x   ({cpus} usable CPU(s))")

    failures = 0

    if chunked.comparable_rows() != stolen.comparable_rows():
        print("FAIL: work-stealing row table differs from the chunked one")
        failures += 1
    else:
        print(f"OK: {len(stolen.rows)} work-stealing rows identical to chunked "
              "(all columns except wall-clock seconds)")

    for result, label in ((chunked, "chunked"), (stolen, "work-stealing")):
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

    # The size key puts the heavy value's repetitions at the head of the queue.
    head = [group.jobs[0].value for group in stealing.last_schedule[:repetitions]]
    if head != [max(values)] * repetitions:
        order = [group.jobs[0].value for group in stealing.last_schedule]
        print(f"FAIL: the stolen schedule does not start with the {repetitions} "
              f"n={max(values)} groups: {order}")
        failures += 1
    else:
        print(f"OK: the stolen schedule starts with the {repetitions} "
              f"n={max(values)} groups")

    if cpus >= 2:
        if speedup < MIN_SPEEDUP:
            print(f"FAIL: speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor "
                  f"with {WORKERS} workers")
            failures += 1
        else:
            print(f"OK: speedup {speedup:.2f}x >= {MIN_SPEEDUP}x over the "
                  f"chunked schedule with {WORKERS} workers")
    else:
        print(f"NOTE: only {cpus} usable CPU — the {MIN_SPEEDUP}x speedup floor "
              "needs >= 2 cores and was not asserted")

    emit_bench_json(
        "sweep_scheduler",
        {
            "jobs": len(plan),
            "workers": WORKERS,
            "usable_cpus": cpus,
            "chunked_seconds": chunked_seconds,
            "stolen_seconds": stolen_seconds,
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
    print("All checks passed: work stealing beats chunking on heterogeneous "
          "sweeps without changing the table.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
