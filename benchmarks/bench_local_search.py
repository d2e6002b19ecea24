"""Local-search benchmark: improver gain over raw AVG / AVG-D, and LP reuse.

Three properties of the unified solver pipeline are measured and asserted:

* **Improver gain** — running the registry's ``AVG+LS`` / ``AVG-D+LS``
  variants (the base algorithm followed by the
  :class:`~repro.core.pipeline.LocalSearchImprover` stage) on synthetic
  Timik-like instances reports the relative utility gain of the 2-opt
  delta-evaluated local search over the raw rounding output.  The script
  exits non-zero if any improved run ends *below* its raw counterpart —
  local search must never lose utility.
* **LP reuse** — the whole line-up is dispatched through one shared
  :class:`~repro.core.pipeline.SolveContext` per instance; the script
  asserts the context performed exactly **one** simplified-LP relaxation
  solve (every further request was a cache hit), i.e. the shared context
  eliminates the redundant relaxation solves AVG and AVG-D used to pay.
* **LS stage** — on one AVG-D output, the improver (single-cell moves
  from a don't-look worklist of batched probes, pairwise exchanges scored
  in closed form, a batch per NumPy pass) is timed against the apply/revert
  reference improver kept as a test oracle
  (``tests/oracles/local_search_reference.py``), which probes one display
  unit per call.  Two legs run on the same start: the default search and a
  single-cell one (``pairwise=False``, the churn repair's mode).  In both,
  the improver must end in the oracle's configuration after the same moves
  and passes; full mode also requires the default leg to be at least 10x
  faster at n=300, m=150, k=5.

Run as a script (not collected by pytest — benchmarks use the ``bench_``
prefix on purpose)::

    PYTHONPATH=src python benchmarks/bench_local_search.py [--quick]

``--quick`` shrinks the instance grid and the LS-stage instance (n=40,
m=40, k=3, identity gates only); it is the mode the CI smoke job runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

try:
    from benchmarks._reporting import emit_bench_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from _reporting import emit_bench_json

from repro.core.pipeline import LocalSearchImprover, SolveContext
from repro.core.registry import run_registered
from repro.data import datasets

# The apply/revert improver is a test oracle and lives with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.local_search_reference import ReferenceLocalSearchImprover  # noqa: E402

K_SLOTS = 3

#: LS-stage instance (n, m, k, seed) per mode, and the full-mode speed-up gate.
LS_STAGE_QUICK = (40, 40, 3, 4)
LS_STAGE_FULL = (300, 150, 5, 0)
LS_STAGE_MIN_SPEEDUP = 10.0


def _instance(num_users: int, num_items: int, seed: int, num_slots: int = K_SLOTS):
    return datasets.make_instance(
        "timik", num_users=num_users, num_items=num_items, num_slots=num_slots, seed=seed
    )


def ls_stage(instance, start, *, pairwise: bool) -> Dict[str, Any]:
    """Time the improver and the reference improver from the same start."""
    began = time.perf_counter()
    batched = LocalSearchImprover(pairwise=pairwise).apply(instance, start)
    batched_seconds = time.perf_counter() - began
    began = time.perf_counter()
    reference = ReferenceLocalSearchImprover(pairwise=pairwise).apply(instance, start)
    reference_seconds = time.perf_counter() - began
    identical = (
        np.array_equal(batched.configuration.assignment, reference.configuration.assignment)
        and batched.info["moves"] == reference.info["moves"]
        and batched.info["passes"] == reference.info["passes"]
    )
    return {
        "n": instance.num_users,
        "m": instance.num_items,
        "k": instance.num_slots,
        "pairwise": pairwise,
        "moves": batched.info["moves"],
        "passes": batched.info["passes"],
        "batched_seconds": batched_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / batched_seconds,
        "identical": identical,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: fewer and smaller instances",
    )
    args = parser.parse_args(argv)
    bench_started = time.perf_counter()

    grid = [(10, 25, 0), (15, 40, 1)] if args.quick else [
        (10, 25, 0), (15, 40, 1), (20, 60, 2), (30, 80, 3),
    ]

    header = (
        f"{'n':>4} {'m':>4}  {'algo':<6} {'raw utility':>12} {'with LS':>10} "
        f"{'gain %':>7} {'moves':>6} {'LS s':>7}"
    )
    print(f"Local-search improver gain (timik-like, k={K_SLOTS})")
    print(header)
    print("-" * len(header))

    failures = 0
    for n, m, seed in grid:
        instance = _instance(n, m, seed)
        context = SolveContext(instance)
        for base_name in ("AVG", "AVG-D"):
            raw = run_registered(
                base_name, instance, context=context, rng=np.random.default_rng(seed)
            )
            start = time.perf_counter()
            improved = run_registered(
                f"{base_name}+LS",
                instance,
                context=context,
                rng=np.random.default_rng(seed),
            )
            ls_seconds = time.perf_counter() - start
            stage = improved.info["stages"]["local_search"]
            gain = (improved.objective - raw.objective) / raw.objective * 100.0
            print(
                f"{n:>4} {m:>4}  {base_name:<6} {raw.objective:>12.4f} "
                f"{improved.objective:>10.4f} {gain:>6.2f}% {stage['moves']:>6} "
                f"{ls_seconds:>7.3f}"
            )
            if improved.objective < raw.objective - 1e-9:
                print(f"FAIL: {base_name}+LS lost utility on n={n}, m={m}")
                failures += 1
            if stage["delta_drift"] > 1e-9:
                print(f"FAIL: delta drift {stage['delta_drift']:.2e} exceeds 1e-9")
                failures += 1

        # Shared-context accounting: AVG, AVG+LS, AVG-D and AVG-D+LS all
        # requested the simplified relaxation; exactly one solve happened.
        stats = context.stats()
        print(
            f"{'':>4} {'':>4}  LP: {stats['lp_requests']} requests, "
            f"{stats['lp_solves']} solve(s), {stats['lp_hits']} cache hit(s)"
        )
        if stats["lp_solves"] != 1:
            print(
                f"FAIL: shared SolveContext performed {stats['lp_solves']} LP solves "
                f"(expected exactly 1)"
            )
            failures += 1

    n, m, k, seed = LS_STAGE_QUICK if args.quick else LS_STAGE_FULL
    instance = _instance(n, m, seed, k)
    start = run_registered("AVG-D", instance).configuration
    print()
    print(f"LS stage on the AVG-D output (n={n}, m={m}, k={k}):")
    legs = {}
    for leg, pairwise in (("default", True), ("single-cell", False)):
        row = legs[leg] = ls_stage(instance, start, pairwise=pairwise)
        print(
            f"  {leg:<11} batched {row['batched_seconds']:.3f} s vs reference "
            f"{row['reference_seconds']:.3f} s = {row['speedup']:.1f}x; "
            f"{row['moves']} moves in {row['passes']} passes, "
            f"identical: {'yes' if row['identical'] else 'NO'}"
        )
        if not row["identical"]:
            print(f"FAIL: the {leg} improver diverged from the reference")
            failures += 1
    if not args.quick and legs["default"]["speedup"] < LS_STAGE_MIN_SPEEDUP:
        print(
            f"FAIL: LS-stage speed-up {legs['default']['speedup']:.1f}x is below "
            f"{LS_STAGE_MIN_SPEEDUP:.0f}x"
        )
        failures += 1

    emit_bench_json(
        "local_search",
        {
            "wall_seconds": time.perf_counter() - bench_started,
            "instances": len(grid),
            "ls_stage": legs["default"],
            "ls_stage_single_cell": legs["single-cell"],
        },
        failures=failures,
    )

    print()
    if failures:
        print(f"{failures} acceptance check(s) failed.")
        return 1
    print(
        "All checks passed: local search never lost utility, the shared "
        "SolveContext eliminated every redundant LP relaxation solve, and the "
        "improver matched the reference in both LS-stage legs."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
