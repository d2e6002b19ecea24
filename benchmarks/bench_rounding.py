"""Rounding benchmark: AVG-D's and AVG's CSF rounding against their oracles.

AVG-D's derandomized CSF rounding
(:class:`repro.core.avg_d._DeterministicRounder`) caches each ``(item, slot)``
cell's ranked prefix sums and, after a move, rescans only the cells in the
moved item's row and slot's column, in one NumPy pass.  The per-cell rounder
it replaced, which rescans every cell with its own call each iteration, is
kept as a test oracle (``tests/oracles/avg_d_reference.py``).  AVG's
randomized rounding (:func:`repro.core.avg.csf_rounding`) runs on the same
dense state; its per-user rounding is kept as ``tests/oracles/avg_reference.py``.

On each instance the rounders round the same LP solution (default settings:
AVG-D with ``r = 0.25``, advanced sampling for both; AVG with seed 0).  Gates:

* **identical** — AVG-D: same final configuration and iteration count; AVG:
  same configuration, CSF statistics and final generator state;
* **speed-up** — the AVG-D oracle's rounding time over the batched one is at
  least 3x in ``--quick`` mode (a shard-sized SVGIC-ST instance, n=20, m=24,
  k=3, M=5, the size ``solve_sharded`` rounds) and at least 5x in full mode
  (SVGIC-ST n=300, m=60, k=3, M=5, seed 1, and Timik SVGIC n=300, m=150,
  k=5, seed 0);
* **memory** — full mode also caps the peak traced memory (tracemalloc) of
  one batched rounding at n=300, m=150, k=5 at 32 MB.

AVG's times and their ratio are reported, not gated.  Times are the best of
a few repeats (one for AVG-D in full mode, where its oracle runs for
seconds).  The LP solve is outside every timed region.

Run as a script (not collected by pytest — benchmarks use the ``bench_``
prefix on purpose)::

    PYTHONPATH=src python benchmarks/bench_rounding.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

try:
    from benchmarks._reporting import emit_bench_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from _reporting import emit_bench_json

from repro.core.avg import CSFStatistics, csf_rounding
from repro.core.avg_d import _DeterministicRounder
from repro.core.lp import solve_lp_relaxation
from repro.core.pipeline import instance_size_limit
from repro.data import datasets

# The reference rounders are test oracles and live with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.avg_d_reference import ReferenceDeterministicRounder  # noqa: E402
from oracles.avg_reference import reference_csf_rounding  # noqa: E402

BALANCING_RATIO = 0.25
#: AVG's rounding takes milliseconds, so both legs take the best of this many.
AVG_REPEATS = 5
AVG_SEED = 0

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


def _avg_leg(instance, fractional) -> Dict[str, Any]:
    """Time AVG's rounding and its oracle (best of :data:`AVG_REPEATS`) and compare them."""
    size_limit = instance_size_limit(instance)
    legs = {
        "avg": lambda rng: csf_rounding(instance, fractional, rng=rng),
        "avg_reference": lambda rng: reference_csf_rounding(
            instance, fractional, rng=rng, size_limit=size_limit
        ),
    }
    seconds: Dict[str, float] = {}
    outcomes: Dict[str, Any] = {}
    for _ in range(AVG_REPEATS):
        for leg, rounding in legs.items():
            generator = np.random.default_rng(AVG_SEED)
            began = time.perf_counter()
            config, stats = rounding(generator)
            seconds[leg] = min(seconds.get(leg, np.inf), time.perf_counter() - began)
            statistics = {stat.name: getattr(stats, stat.name) for stat in fields(CSFStatistics)}
            outcomes[leg] = (
                config.assignment.tolist(), statistics, generator.bit_generator.state
            )
    return {
        "avg_seconds": seconds["avg"],
        "avg_reference_seconds": seconds["avg_reference"],
        "avg_speedup": seconds["avg_reference"] / seconds["avg"],
        "avg_iterations": outcomes["avg"][1]["iterations"],
        "avg_identical": outcomes["avg"] == outcomes["avg_reference"],
    }


def round_case(
    kind: str, n: int, m: int, k: int, cap: Optional[int], seed: int, repeats: int
) -> Dict[str, Any]:
    """Time both AVG-D rounders and both AVG roundings on one instance's LP solution."""
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
        **_avg_leg(instance, fractional),
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
    print(f"AVG-D rounding, batched vs per-cell oracle (r={BALANCING_RATIO}); AVG vs its oracle")
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
        print(
            f"{'':<9} AVG: {row['avg_iterations']} iterations, {row['avg_seconds']:.4f} s "
            f"vs oracle {row['avg_reference_seconds']:.4f} s ({row['avg_speedup']:.2f}x), "
            f"identical {'yes' if row['avg_identical'] else 'NO'}"
        )
        if not row["identical"]:
            print("FAIL: the batched rounder diverged from the per-cell oracle")
            failures += 1
        if not row["avg_identical"]:
            print("FAIL: AVG's rounding diverged from its oracle")
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
        f"and was at least {min_speedup:.0f}x faster; AVG matched its oracle."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
