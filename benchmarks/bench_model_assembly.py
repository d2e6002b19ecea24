"""Assembly benchmark: batched sparse model building vs the loop-built oracle.

Measures, on synthetic Timik-like instances (m = 120, k = 4), the time to
*assemble* (not solve) the three solver-layer models:

* the simplified LP relaxation ``LP_SIMP`` over CSR candidate lists
  (:func:`repro.core.lp._build_sparse`, every user listing all items),
* the full LP relaxation ``LP_SVGIC`` (:func:`repro.core.lp._build_full`), and
* the exact MILP over the same lists (:func:`repro.core.ip._build_program_sparse`),

each against its original per-(pair, item, slot) Python-loop builder
preserved in ``tests/oracles/assembly_reference.py``.  Before timing, the
batched and loop-built models are checked for identical sparse matrices on
the smallest size — for LP_SIMP and the IP after dropping the oracle's empty
columns, which the CSR builders never lay out — so the benchmark cannot
silently compare different models.

Run as a script (not collected by pytest — benchmarks use the ``bench_``
prefix on purpose)::

    PYTHONPATH=src python benchmarks/bench_model_assembly.py [--quick]

``--quick`` drops the n=400 row and shrinks the timing budget; it is the
mode the CI smoke job runs.  The script exits non-zero if batched assembly
of the full LP formulation is less than 10x the loop builder at n=200 —
the acceptance criterion this layer was built against.
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

from repro.core.ip import _build_program_sparse
from repro.core.lp import _build_full, _build_sparse
from repro.core.sparse import uniform_candidate_lists
from repro.data import datasets

# The loop builders are test oracles and live with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import assembly_reference as oracle  # noqa: E402

M_ITEMS = 120
K_SLOTS = 4
SPEEDUP_FLOOR = 10.0  # acceptance: batched full-LP assembly >= 10x loops at n=200


def _time_calls(fn: Callable[[], object], budget_seconds: float, min_calls: int = 1) -> float:
    """Seconds per call, averaged over as many calls as fit in the budget."""
    calls = 0
    start = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - start
        if calls >= min_calls and elapsed >= budget_seconds:
            return elapsed / calls


def _instance(num_users: int):
    return datasets.make_instance(
        "timik", num_users=num_users, num_items=M_ITEMS, num_slots=K_SLOTS, seed=num_users
    )


def _builders(variant: str, instance, items):
    lists = uniform_candidate_lists(instance.num_users, items)
    if variant == "LP simp":
        return (
            lambda: _build_sparse(instance, *lists, True),
            lambda: oracle.build_simplified_lp_reference(instance, items, True),
        )
    if variant == "LP full":
        return (
            lambda: _build_full(instance, items, True),
            lambda: oracle.build_full_lp_reference(instance, items, True),
        )
    if variant == "IP":
        return (
            lambda: _build_program_sparse(instance, *lists),
            lambda: oracle.build_ip_reference(instance, items),
        )
    raise ValueError(variant)


def _check_equivalence(num_users: int) -> None:
    """Guard: batched and loop-built models must be identical before timing."""
    instance = _instance(num_users)
    items = np.arange(instance.num_items, dtype=np.int64)
    for variant in ("LP simp", "LP full", "IP"):
        batched_fn, loop_fn = _builders(variant, instance, items)
        reference = loop_fn()
        if variant != "LP full":  # the CSR builders lay out no empty column
            reference = oracle.drop_empty_columns(reference)
        assert oracle.same_model(batched_fn(), reference), variant


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: skip n=400 and shrink the per-measurement budget",
    )
    args = parser.parse_args(argv)
    bench_started = time.perf_counter()

    sizes = (50, 200) if args.quick else (50, 200, 400)
    budget = 0.2 if args.quick else 1.0

    _check_equivalence(num_users=50)
    print("Equivalence guard passed (batched == loop-built at n=50).")
    print()

    header = f"{'n':>5}  {'model':<8} {'loop s/build':>13} {'batch s/build':>14} {'speedup':>9}"
    print(f"Model assembly (m={M_ITEMS}, k={K_SLOTS}, all items)")
    print(header)
    print("-" * len(header))
    speedup_at_200 = None
    for n in sizes:
        instance = _instance(n)
        items = np.arange(instance.num_items, dtype=np.int64)
        for variant in ("LP simp", "LP full", "IP"):
            batched_fn, loop_fn = _builders(variant, instance, items)
            loop_spc = _time_calls(loop_fn, budget)
            batch_spc = _time_calls(batched_fn, budget, min_calls=3)
            speedup = loop_spc / batch_spc
            print(f"{n:>5}  {variant:<8} {loop_spc:>13.4f} {batch_spc:>14.6f} {speedup:>8.1f}x")
            if n == 200 and variant == "LP full":
                speedup_at_200 = speedup

    print()
    assert speedup_at_200 is not None
    failed = speedup_at_200 < SPEEDUP_FLOOR
    emit_bench_json(
        "model_assembly",
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
            f"FAIL: batched full-LP assembly is only {speedup_at_200:.1f}x the loop "
            f"builder at n=200 (floor: {SPEEDUP_FLOOR:.0f}x)"
        )
        return 1
    print(
        f"PASS: batched full-LP assembly is {speedup_at_200:.1f}x the loop builder "
        f"at n=200, m={M_ITEMS}, k={K_SLOTS} (floor: {SPEEDUP_FLOOR:.0f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
