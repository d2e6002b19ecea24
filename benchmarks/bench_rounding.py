"""Rounding benchmark: the batched AVG-D rounder against the per-cell oracle.

AVG-D's derandomized CSF rounding
(:class:`repro.core.avg_d._DeterministicRounder`) caches each ``(item, slot)``
cell's ranked prefix sums and, after a move, rescans only the cells in the
moved item's row and slot's column, in one NumPy pass.  The per-cell rounder
it replaced, which rescans every cell with its own call each iteration, is
kept as a test oracle (``tests/oracles/avg_d_reference.py``).

On each instance both rounders round the same LP solution (default AVG-D
settings: ``r = 0.25``, advanced sampling).  Gates:

* **identical** — same final configuration and iteration count;
* **speed-up** — the oracle's rounding time over the batched one is at
  least 3x in ``--quick`` mode (a shard-sized SVGIC-ST instance, n=20, m=24,
  k=3, M=5, the size ``solve_sharded`` rounds) and at least 5x in full mode
  (SVGIC-ST n=300, m=60, k=3, M=5, seed 1, and Timik SVGIC n=300, m=150,
  k=5, seed 0);
* **memory** — full mode also caps the peak traced memory (tracemalloc) of
  one batched rounding at n=300, m=150, k=5 at 32 MB.

Times are the best of a few repeats (one in full mode, where the oracle runs
for seconds).  The LP solve is outside every timed region.

Run as a script (not collected by pytest — benchmarks use the ``bench_``
prefix on purpose)::

    PYTHONPATH=src python benchmarks/bench_rounding.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

try:
    from benchmarks._reporting import emit_bench_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from _reporting import emit_bench_json

from repro.core.avg_d import _DeterministicRounder
from repro.core.lp import solve_lp_relaxation
from repro.data import datasets

# The per-cell rounder is a test oracle and lives with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.avg_d_reference import ReferenceDeterministicRounder  # noqa: E402

BALANCING_RATIO = 0.25

#: (kind, n, m, k, cap or None, seed) per mode, with its speed-up gate.
QUICK_CASES = [("svgic-st", 20, 24, 3, 5, 0)]
FULL_CASES = [("svgic-st", 300, 60, 3, 5, 1), ("svgic", 300, 150, 5, None, 0)]
QUICK_MIN_SPEEDUP = 3.0
FULL_MIN_SPEEDUP = 5.0
#: Full-mode ceiling on one batched rounding's peak traced memory, checked on
#: every case with n=300, m=150, k=5.
PEAK_CEILING_MB = 32.0


def _instance(kind: str, n: int, m: int, k: int, cap: Optional[int], seed: int):
    if kind == "svgic":
        return datasets.make_instance(
            "timik", num_users=n, num_items=m, num_slots=k, seed=seed
        )
    return datasets.make_st_instance(
        "timik", num_users=n, num_items=m, num_slots=k, max_subgroup_size=cap, seed=seed
    )


def _best_time(rounder_cls, instance, fractional, repeats: int):
    """Best wall time of ``repeats`` full roundings, and the last rounder."""
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        rounder = rounder_cls(instance, fractional, BALANCING_RATIO, True)
        rounder.run()
        best = min(best, time.perf_counter() - began)
    return best, rounder


def round_case(
    kind: str, n: int, m: int, k: int, cap: Optional[int], seed: int, repeats: int
) -> Dict[str, Any]:
    """Time both rounders on one instance's LP solution."""
    instance = _instance(kind, n, m, k, cap, seed)
    fractional = solve_lp_relaxation(instance)
    batched_seconds, batched = _best_time(_DeterministicRounder, instance, fractional, repeats)
    reference_seconds, reference = _best_time(
        ReferenceDeterministicRounder, instance, fractional, repeats
    )
    tracemalloc.start()
    _DeterministicRounder(instance, fractional, BALANCING_RATIO, True).run()
    peak_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "kind": kind,
        "n": n,
        "m": m,
        "k": k,
        "cap": cap,
        "seed": seed,
        "iterations": batched.iterations,
        "batched_seconds": batched_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / batched_seconds,
        "peak_traced_mb": peak_bytes / 1e6,
        "identical": bool(
            np.array_equal(batched.config.assignment, reference.config.assignment)
            and batched.iterations == reference.iterations
        ),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: one shard-sized instance",
    )
    args = parser.parse_args(argv)
    bench_started = time.perf_counter()
    cases = QUICK_CASES if args.quick else FULL_CASES
    min_speedup = QUICK_MIN_SPEEDUP if args.quick else FULL_MIN_SPEEDUP
    repeats = 5 if args.quick else 1

    header = (
        f"{'instance':<9} {'n':>4} {'m':>4} {'k':>2} {'cap':>4} {'iters':>5} "
        f"{'batched s':>10} {'oracle s':>9} {'speedup':>8} {'peak MB':>8} identical"
    )
    print(f"AVG-D rounding, batched vs per-cell oracle (r={BALANCING_RATIO})")
    print(header)
    print("-" * len(header))

    failures = 0
    rows = []
    for case in cases:
        row = round_case(*case, repeats=repeats)
        rows.append(row)
        cap = "-" if row["cap"] is None else row["cap"]
        print(
            f"{row['kind']:<9} {row['n']:>4} {row['m']:>4} {row['k']:>2} {cap:>4} "
            f"{row['iterations']:>5} {row['batched_seconds']:>10.4f} "
            f"{row['reference_seconds']:>9.4f} {row['speedup']:>7.1f}x "
            f"{row['peak_traced_mb']:>8.2f} {'yes' if row['identical'] else 'NO'}"
        )
        if not row["identical"]:
            print("FAIL: the batched rounder diverged from the per-cell oracle")
            failures += 1
        if row["speedup"] < min_speedup:
            print(f"FAIL: speed-up {row['speedup']:.1f}x is below {min_speedup:.0f}x")
            failures += 1
        if (
            not args.quick
            and (row["n"], row["m"], row["k"]) == (300, 150, 5)
            and row["peak_traced_mb"] > PEAK_CEILING_MB
        ):
            print(
                f"FAIL: peak traced memory {row['peak_traced_mb']:.1f} MB exceeds "
                f"{PEAK_CEILING_MB:.0f} MB"
            )
            failures += 1

    emit_bench_json(
        "rounding",
        {
            "wall_seconds": time.perf_counter() - bench_started,
            "mode": "quick" if args.quick else "full",
            "min_speedup": min_speedup,
            "cases": rows,
        },
        failures=failures,
    )

    print()
    if failures:
        print(f"{failures} acceptance check(s) failed.")
        return 1
    print(
        f"All checks passed: the batched rounder matched the per-cell oracle "
        f"and was at least {min_speedup:.0f}x faster."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
