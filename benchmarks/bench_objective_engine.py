"""Throughput benchmark: vectorized objective engine vs the scalar oracle.

Measures, on synthetic Timik-like instances at n ∈ {50, 200, 800}
(m = 120, k = 4):

* full-evaluation throughput of the vectorized engine
  (:func:`repro.core.objective.evaluate` / ``evaluate_st``) against the
  scalar reference oracle (``tests/oracles/objective_reference.py``), and
* incremental-evaluation throughput of
  :class:`repro.core.objective.DeltaEvaluator` (single-cell mutations)
  against a from-scratch vectorized re-evaluation after every mutation.

Run as a script (not collected by pytest — benchmarks use the ``bench_``
prefix on purpose)::

    PYTHONPATH=src python benchmarks/bench_objective_engine.py [--quick]

``--quick`` drops the n=800 row and shrinks the timing budget; it is the
mode the CI smoke job runs.  The script exits non-zero if the vectorized
full evaluation is less than 10x the oracle at n=200 — the acceptance
criterion this engine was built against.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

try:
    from benchmarks._reporting import emit_bench_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from _reporting import emit_bench_json

from repro.core import objective as engine
from repro.core.configuration import SAVGConfiguration
from repro.core.objective import DeltaEvaluator
from repro.data import datasets

# The scalar evaluation is a test oracle and lives with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import objective_reference as oracle  # noqa: E402

M_ITEMS = 120
K_SLOTS = 4
SPEEDUP_FLOOR = 10.0  # acceptance: vectorized >= 10x oracle at n=200


def _time_calls(fn: Callable[[], object], budget_seconds: float, min_calls: int = 3) -> float:
    """Seconds per call, averaged over as many calls as fit in the budget."""
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if calls >= min_calls and elapsed >= budget_seconds:
            return elapsed / calls


def _random_configuration(instance, seed: int) -> SAVGConfiguration:
    rng = np.random.default_rng(seed)
    assignment = np.stack(
        [rng.permutation(instance.num_items)[: instance.num_slots] for _ in range(instance.num_users)]
    )
    return SAVGConfiguration(assignment=assignment, num_items=instance.num_items)


def bench_full_eval(num_users: int, budget: float, st_mode: bool) -> Tuple[float, float, float]:
    """Return (oracle s/call, engine s/call, speedup) for full evaluation."""
    if st_mode:
        instance = datasets.make_st_instance(
            "timik", num_users=num_users, num_items=M_ITEMS, num_slots=K_SLOTS,
            max_subgroup_size=8, seed=num_users,
        )
        slow: Callable[[], object] = lambda: oracle.evaluate_st(instance, config)
        fast: Callable[[], object] = lambda: engine.evaluate_st(instance, config)
    else:
        instance = datasets.make_instance(
            "timik", num_users=num_users, num_items=M_ITEMS, num_slots=K_SLOTS, seed=num_users,
        )
        slow = lambda: oracle.evaluate(instance, config)
        fast = lambda: engine.evaluate(instance, config)
    config = _random_configuration(instance, seed=num_users + 1)
    slow_spc = _time_calls(slow, budget)
    fast_spc = _time_calls(fast, budget)
    return slow_spc, fast_spc, slow_spc / fast_spc


def bench_delta_eval(num_users: int, budget: float) -> Tuple[float, float, float]:
    """Return (full-reeval s/mutation, delta s/mutation, speedup)."""
    instance = datasets.make_instance(
        "timik", num_users=num_users, num_items=M_ITEMS, num_slots=K_SLOTS, seed=num_users,
    )
    config = _random_configuration(instance, seed=num_users + 1)
    rng = np.random.default_rng(num_users + 2)
    mutations = [
        (int(rng.integers(instance.num_users)), int(rng.integers(instance.num_slots)),
         int(rng.integers(instance.num_items)))
        for _ in range(4096)
    ]
    cursor = [0]

    delta = DeltaEvaluator(instance, config)

    def next_mutation():
        user, slot, item = mutations[cursor[0] % len(mutations)]
        cursor[0] += 1
        return user, slot, item

    def full_step():
        user, slot, item = next_mutation()
        config.assignment[user, slot] = item
        return engine.evaluate(instance, config).total

    def delta_step():
        user, slot, item = next_mutation()
        return delta.set_cell(user, slot, item)

    full_spc = _time_calls(full_step, budget)
    delta_spc = _time_calls(delta_step, budget)
    return full_spc, delta_spc, full_spc / delta_spc


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: skip n=800 and shrink the per-measurement budget",
    )
    args = parser.parse_args(argv)
    bench_started = time.perf_counter()

    sizes = (50, 200) if args.quick else (50, 200, 800)
    budget = 0.2 if args.quick else 1.0

    header = f"{'n':>5}  {'variant':<10} {'oracle s/call':>14} {'engine s/call':>14} {'speedup':>9}"
    print("Full evaluation (m=%d, k=%d)" % (M_ITEMS, K_SLOTS))
    print(header)
    print("-" * len(header))
    speedup_at_200 = None
    for n in sizes:
        for st_mode, label in ((False, "SVGIC"), (True, "SVGIC-ST")):
            slow_spc, fast_spc, speedup = bench_full_eval(n, budget, st_mode)
            print(f"{n:>5}  {label:<10} {slow_spc:>14.6f} {fast_spc:>14.6f} {speedup:>8.1f}x")
            if n == 200 and not st_mode:
                speedup_at_200 = speedup

    print()
    header = f"{'n':>5}  {'full s/mut':>12} {'delta s/mut':>12} {'speedup':>9}"
    print("Incremental evaluation (DeltaEvaluator, single-cell mutations)")
    print(header)
    print("-" * len(header))
    for n in sizes:
        full_spc, delta_spc, speedup = bench_delta_eval(n, budget)
        print(f"{n:>5}  {full_spc:>12.6f} {delta_spc:>12.6f} {speedup:>8.1f}x")

    print()
    assert speedup_at_200 is not None
    failed = speedup_at_200 < SPEEDUP_FLOOR
    emit_bench_json(
        "objective_engine",
        {
            "wall_seconds": time.perf_counter() - bench_started,
            "speedup_at_200": speedup_at_200,
            "speedup_floor": SPEEDUP_FLOOR,
            "sizes": list(sizes),
        },
        failures=int(failed),
    )
    if failed:
        print(
            f"FAIL: vectorized full evaluation is only {speedup_at_200:.1f}x the scalar "
            f"oracle at n=200 (floor: {SPEEDUP_FLOOR:.0f}x)"
        )
        return 1
    print(
        f"PASS: vectorized full evaluation is {speedup_at_200:.1f}x the scalar oracle "
        f"at n=200, m={M_ITEMS}, k={K_SLOTS} (floor: {SPEEDUP_FLOOR:.0f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
