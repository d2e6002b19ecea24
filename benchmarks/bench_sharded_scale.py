"""Figure-5-style scaling sweep: community-sharded solving at large ``n``.

For each population size the instance is generated in the sparse-first
regime (top-K truncated preference/social tables, thinned friendship graph)
and solved with the community-sharded engine
(:func:`repro.core.sharding.solve_sharded`); up to ``--monolith-max`` users
the monolithic AVG-D+LS solve runs as well, so the quality gap of sharding
(whose boundary repair is local search too) is *measured* at the largest
common size instead of assumed.  Reported per size: wall time, tracemalloc
peak memory during the solve, shard/cut-pair statistics and utility totals.

Two acceptance gates make this script a CI smoke check (``--quick``):

* **Objective equivalence** — the sharded solve's reported total matches
  the scalar oracle ``total_utility`` of ``tests/oracles/objective_reference.py`` to
  1e-9 on the sharded configuration of the smallest size.
* **Memory headroom** — at the largest size the monolith runs, the sharded
  solve's measured peak memory stays under half the measured peak of the
  monolithic simplified LP over every item (reported beside its estimate,
  :func:`repro.core.sparse.estimate_lp_bytes`), i.e. sharding solves a point
  inside a budget the monolith exceeds.  A solve's peak is the larger of
  its tracemalloc peak (exact, but blind to native memory) and the growth
  of peak RSS over resident size when it runs in a fresh process (which
  counts the LP solver's C++ heap, but not memory the process already held).

Run as a script (not collected by pytest — benchmarks use the ``bench_``
prefix on purpose)::

    PYTHONPATH=src python benchmarks/bench_sharded_scale.py [--quick]

Full mode sweeps n in {1000, 10000, 50000}; ``--quick`` shrinks the grid to
CI size (seconds, not minutes).
"""

from __future__ import annotations

import argparse
import gc
import multiprocessing
import resource
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import List, Optional

import numpy as np

try:
    from benchmarks._reporting import emit_bench_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from _reporting import emit_bench_json

from repro.core.objective import evaluate
from repro.core.pipeline import LocalSearchImprover
from repro.core.registry import run_registered
from repro.core.sharding import solve_sharded
from repro.core.sparse import estimate_lp_bytes
from repro.data import datasets

# The scalar evaluation is a test oracle and lives with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import objective_reference  # noqa: E402

EQUIVALENCE_TOL = 1e-9


def build_instance(num_users: int, *, num_items: int, seed: int = 7):
    """A sparse-first Timik-style instance sized for the scaling sweep."""
    return datasets.make_instance(
        "timik",
        num_users=num_users,
        num_items=num_items,
        num_slots=5,
        seed=seed,
        preference_top_k=min(20, num_items),
        social_top_k=min(20, num_items),
        edge_density=0.3,
    )


class _PeakProbe:
    """Peak-memory probe: tracemalloc (precise, ~5x slowdown) or ru_maxrss.

    ``trace=True`` measures exact Python-side allocation peaks — right for
    the CI gate at quick sizes.  ``trace=False`` reports the process
    high-water RSS *delta* across the probed region: free, but since the
    high-water mark never resets it can undercount a region smaller than an
    earlier one — acceptable for the large-n report where points run in
    increasing size order.
    """

    def __init__(self, trace: bool) -> None:
        self.trace = trace

    def __enter__(self):
        if self.trace:
            tracemalloc.start()
        else:
            self._rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return self

    def __exit__(self, *exc):
        if self.trace:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            self.peak_mb = peak / 1e6
        else:
            rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.peak_mb = max(0, rss1 - self._rss0) / 1e3  # ru_maxrss is KB on Linux
        return False


def solve_sharded_point(instance, max_shard_users: int):
    """The sharded solve the sweep measures."""
    return solve_sharded(
        instance,
        algorithm="AVG-D",
        max_shard_users=max_shard_users,
        seed=11,
        repair_max_passes=2,
        repair_max_items=16,
        algorithm_overrides={"lp_formulation": "sparse"},
    )


def solve_monolith_point(instance):
    """The faithful monolithic baseline: one simplified LP with every item in
    every user's list — exactly the model sharding exists to replace."""
    return run_registered("AVG-D", instance, lp_formulation="simplified", prune_items=False)


def _status_kb(field: str) -> float:
    """``VmRSS`` (resident now) or ``VmHWM`` (peak resident) of this process, in KB.

    Read from ``/proc/self/status`` (Linux).  ``ru_maxrss`` would not do: a
    spawned process inherits its parent's peak across ``exec``.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field} line")


def fresh_process_peak_mb(leg: str, num_users: int, num_items: int, max_shard_users: int):
    """Peak RSS growth (MB) of one ``leg`` (sharded or monolith) solve in this process.

    Meant for a fresh process.  A small solve of the same kind runs first,
    so lazily imported code is resident before the measured solve starts.
    Freed memory the process still holds is reused without growing RSS, so
    a small solve reads low.
    """
    if leg == "sharded":
        solve = partial(solve_sharded_point, max_shard_users=max_shard_users)
    else:
        solve = solve_monolith_point
    solve(build_instance(40, num_items=num_items))
    instance = build_instance(num_users, num_items=num_items)
    gc.collect()
    before = _status_kb("VmRSS")
    solve(instance)
    return (_status_kb("VmHWM") - before) / 1e3


def run_point(instance, *, max_shard_users: int, monolith: bool, trace_memory: bool):
    """Solve one sweep point sharded (and optionally monolithically)."""
    start = time.perf_counter()
    with _PeakProbe(trace_memory) as probe:
        sharded = solve_sharded_point(instance, max_shard_users)
    sharded_seconds = time.perf_counter() - start
    sharded_peak = probe.peak_mb

    row = {
        "num_users": instance.num_users,
        "num_edges": instance.num_edges,
        "num_shards": sharded.num_shards,
        "cut_pairs": sharded.info["cut_pairs"],
        "total_pairs": sharded.info["total_pairs"],
        "evictions": sharded.evictions,
        "repair_moves": sharded.repair_moves,
        "sharded_total": sharded.total,
        "union_total": sharded.union_total,
        "sharded_seconds": sharded_seconds,
        "solve_seconds": sharded.info["solve_seconds"],
        "repair_seconds": sharded.info["repair_seconds"],
        "sharded_peak_mb": sharded_peak,
        "monolith_lp_est_mb": estimate_lp_bytes(instance, formulation="simplified") / 1e6,
        "feasible": sharded.feasible,
        "configuration": sharded.configuration,
    }

    if monolith:
        start = time.perf_counter()
        with _PeakProbe(trace_memory) as probe:
            mono = solve_monolith_point(instance)
        row["monolith_seconds"] = time.perf_counter() - start
        row["monolith_peak_mb"] = probe.peak_mb
        # Sharding ends in local search, so quality is compared against
        # monolithic AVG-D+LS.  The polish runs outside the probe: the memory
        # gate measures the monolithic LP solve alone.
        start = time.perf_counter()
        polished = LocalSearchImprover().apply(instance, mono.configuration)
        row["monolith_ls_seconds"] = time.perf_counter() - start
        row["monolith_total"] = evaluate(instance, polished.configuration).total
        row["quality_gap"] = 1.0 - row["sharded_total"] / row["monolith_total"]
    return row


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: a smaller population grid",
    )
    parser.add_argument(
        "--monolith-max", type=int, default=None, metavar="N",
        help="largest n the monolithic AVG-D+LS solve is attempted at",
    )
    parser.add_argument(
        "--sizes", default=None, metavar="N1,N2,...",
        help="override the population grid (comma-separated)",
    )
    parser.add_argument(
        "--trace-memory", action="store_true",
        help="use tracemalloc even in full mode (precise peaks, ~5x slower)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        populations, num_items, shard_cap = [150, 400], 40, 100
        monolith_max = args.monolith_max or 400
    else:
        populations, num_items, shard_cap = [1_000, 10_000, 50_000], 100, 512
        monolith_max = args.monolith_max or 1_000
    if args.sizes:
        populations = [int(v) for v in args.sizes.split(",")]
    # tracemalloc slows the solve ~5x; precise peaks gate the quick mode,
    # the large-n report falls back to free high-water RSS deltas.
    trace_memory = args.quick or args.trace_memory

    rows = []
    for num_users in populations:
        print(f"[bench] generating n={num_users} ...", flush=True)
        instance = build_instance(num_users, num_items=num_items)
        row = run_point(
            instance,
            max_shard_users=shard_cap,
            monolith=num_users <= monolith_max,
            trace_memory=trace_memory,
        )
        row["instance"] = instance
        rows.append(row)
        gap = f"  gap={row['quality_gap']:+.4f}" if "quality_gap" in row else ""
        print(
            f"[bench] n={num_users:>6}  shards={row['num_shards']:>3}  "
            f"cut={row['cut_pairs']}/{row['total_pairs']}  "
            f"t={row['sharded_seconds']:.2f}s "
            f"(solve {row['solve_seconds']:.2f} + repair {row['repair_seconds']:.2f})  "
            f"peak={row['sharded_peak_mb']:.1f}MB  "
            f"lp-est(mono)={row['monolith_lp_est_mb']:.1f}MB  "
            f"U={row['sharded_total']:.3f}{gap}",
            flush=True,
        )

    # Gate (a): the sharded total agrees with the scalar oracle on a real solution.
    first = rows[0]
    oracle_total = objective_reference.total_utility(first["instance"], first["configuration"])
    drift = abs(first["sharded_total"] - oracle_total)
    print(f"[gate] sharded-vs-oracle objective drift: {drift:.2e}")
    assert drift <= EQUIVALENCE_TOL, (
        f"sharded total drifted from the scalar oracle: {drift:.2e} > {EQUIVALENCE_TOL}"
    )

    # Gate (b): at the largest common point the sharded solve completes
    # within a memory ceiling the measured monolithic LP exceeds (half the
    # monolith's peak — sharding must show real headroom, not a rounding
    # win).  Each solve's peak is the larger of its traced Python-side peak
    # and its RSS growth in a fresh process, which counts HiGHS's own
    # memory.  At sizes beyond the monolith the estimate column tells the
    # same story without running it.
    for row in rows:
        assert row["feasible"], "sharded configuration violates constraints"
    gated = [row for row in rows if "monolith_peak_mb" in row]
    assert gated, "no sweep point ran the monolithic baseline"
    largest = max(gated, key=lambda row: row["num_users"])
    gate_mb = {}
    spawn = multiprocessing.get_context("spawn")
    for leg in ("sharded", "monolith"):
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as fresh:
            rss_mb = fresh.submit(
                fresh_process_peak_mb, leg, largest["num_users"], num_items, shard_cap
            ).result()
        largest[f"{leg}_rss_peak_mb"] = rss_mb
        gate_mb[leg] = max(largest[f"{leg}_peak_mb"], rss_mb)
    ceiling_mb = gate_mb["monolith"] / 2.0
    print(
        f"[gate] n={largest['num_users']}: sharded peak {gate_mb['sharded']:.1f}MB vs "
        f"ceiling {ceiling_mb:.1f}MB (monolith peak {gate_mb['monolith']:.1f}MB); "
        f"traced {largest['sharded_peak_mb']:.1f} vs {largest['monolith_peak_mb']:.1f}MB, "
        f"fresh-process RSS growth {largest['sharded_rss_peak_mb']:.1f} vs "
        f"{largest['monolith_rss_peak_mb']:.1f}MB"
    )
    assert gate_mb["sharded"] < ceiling_mb, (
        f"sharded peak {gate_mb['sharded']:.1f}MB not under the "
        f"{ceiling_mb:.1f}MB ceiling the monolith exceeds"
    )

    # Every sharded solve must return a valid configuration, and whenever no
    # eviction was forced the repair must not have lost utility.
    for row in rows:
        assert row["configuration"].is_valid(row["instance"])
        if row["evictions"] == 0:
            assert row["sharded_total"] >= row["union_total"] - 1e-9

    common = [row for row in rows if "quality_gap" in row]
    if common:
        worst = max(common, key=lambda row: row["num_users"])
        print(
            f"[bench] quality gap vs monolithic AVG-D+LS at n={worst['num_users']}: "
            f"{worst['quality_gap']:+.4f} "
            f"(sharded {worst['sharded_total']:.3f} vs mono {worst['monolith_total']:.3f})"
        )

    emit_bench_json(
        "sharded_scale",
        {
            "populations": populations,
            "sharded_seconds": {
                str(row["num_users"]): row["sharded_seconds"] for row in rows
            },
            "sharded_peak_mb": {
                str(row["num_users"]): row["sharded_peak_mb"] for row in rows
            },
            "monolith_peak_mb": largest["monolith_peak_mb"],
            "sharded_rss_peak_mb": largest["sharded_rss_peak_mb"],
            "monolith_rss_peak_mb": largest["monolith_rss_peak_mb"],
            "memory_headroom": gate_mb["monolith"] / max(gate_mb["sharded"], 1e-9),
            "quality_gap": worst["quality_gap"] if common else None,
        },
        failures=0,
    )

    print("[bench] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
