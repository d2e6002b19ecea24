"""LP benchmark: LP_SIMP by certified column pricing against one universe solve.

:func:`repro.core.lp.solve_lp_relaxation` solves LP_SIMP from each user's
top ``k + 2`` candidate items (under an SVGIC-ST cap, made cap-feasible)
and adds, on one warm HiGHS session, only the columns whose reduced cost
says they can pay, until none does.  The *universe* leg solves the model
over every candidate list in one HiGHS call, as the library did before
pricing.  Both legs run from the instance: candidate lists, model
assembly, HiGHS (every round) and, for the priced leg, the decode.  Each
case reports both wall times, the pricing rounds (HiGHS runs) and the
priced model's start and final column counts against the universe model's.

Cases (Timik instances, default ``"simplified"`` lists unless unpruned):

* the perfbench solve-ls shape, n=20, m=30, k=3 (full: 24 seeds; quick: 4);
* n=100, m=60, k=4, seeds 0-2, pruned and unpruned (both modes);
* the same shape as SVGIC-ST under a binding cap M=5 (both modes);
* n=300, m=150, k=5, seed 0 (full mode), and as SVGIC-ST with M=10,
  pruned and unpruned (full mode).

Gates: every case's priced objective equals the universe objective at 1e-9
relative; the priced leg is at least 2x faster than the universe leg on
every n=100 case, capped or not, and, in full mode, at least 3x faster at
n=300.  Times are the best of a few alternating repeats (one at n=300,
where the universe solve takes seconds).  Without SciPy's HiGHS binding
nothing is priced, and the script says so and exits 0.

Run as a script (not collected by pytest — benchmarks use the ``bench_``
prefix on purpose)::

    PYTHONPATH=src python benchmarks/bench_lp_pricing.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

try:
    from benchmarks._reporting import emit_bench_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from _reporting import emit_bench_json

from repro.core.lp import _build_sparse, _candidate_lists, solve_lp_relaxation
from repro.data import datasets
from repro.solvers import linprog as linprog_module

#: (n, m, k, cap, seeds, prune_items) per mode; cap ``None`` is plain SVGIC.
SOLVE_LS = (20, 30, 3, None)
QUICK_CASES = [
    (*SOLVE_LS, range(4), True),
    (100, 60, 4, None, range(3), True),
    (100, 60, 4, None, range(3), False),
    (100, 60, 4, 5, range(3), True),
    (100, 60, 4, 5, range(3), False),
]
FULL_CASES = [
    (*SOLVE_LS, range(24), True),
    *QUICK_CASES[1:],
    (300, 150, 5, None, range(1), True),
    (300, 150, 5, 10, range(1), True),
    (300, 150, 5, 10, range(1), False),
]
#: Minimum universe/priced wall-time ratio per gated shape (n, m, k, cap).
MIN_SPEEDUP = {
    (100, 60, 4, None): 2.0,
    (100, 60, 4, 5): 2.0,
    (300, 150, 5, None): 3.0,
    (300, 150, 5, 10): 3.0,
}
RELATIVE_TOLERANCE = 1e-9


def _universe_solve(instance, prune_items: bool) -> float:
    """The universe model, assembled and solved in one HiGHS call; its objective."""
    lists = _candidate_lists(instance, "simplified", prune_items, None, True)
    return _build_sparse(instance, *lists, True).solve().objective


def _priced_solve(instance, prune_items: bool) -> float:
    return solve_lp_relaxation(instance, prune_items=prune_items).objective


def _pricing_record(instance, prune_items: bool) -> Tuple[int, int, int]:
    """One untimed priced solve's ``(HiGHS runs, start columns, final columns)``."""
    record: Dict[str, int] = {"runs": 1, "start": 0, "added": 0}
    solve = linprog_module.linprog

    def recorded(**kwargs):
        record["start"] = len(kwargs["c"])
        price = kwargs["price"]
        if price is None:
            return solve(**kwargs)

        def recorded_price(row_duals):
            priced = price(row_duals)
            if priced is not None:
                record["runs"] += 1
                record["added"] += len(priced.c)
            return priced

        return solve(**{**kwargs, "price": recorded_price})

    linprog_module.linprog = recorded
    try:
        solve_lp_relaxation(instance, prune_items=prune_items)
    finally:
        linprog_module.linprog = solve
    return record["runs"], record["start"], record["start"] + record["added"]


def _best_times(legs: Dict[str, Callable[[], float]], repeats: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Best wall time of each leg over ``repeats`` alternating rounds, and its objective."""
    best: Dict[str, float] = {name: float("inf") for name in legs}
    objectives: Dict[str, float] = {}
    for _ in range(repeats):
        for name, leg in legs.items():
            began = time.perf_counter()
            objectives[name] = leg()
            best[name] = min(best[name], time.perf_counter() - began)
    return best, objectives


def run_case(
    n: int, m: int, k: int, cap: Optional[int], seed: int, prune_items: bool, repeats: int
) -> Dict[str, Any]:
    """Time both legs on one instance and record the priced solve's rounds and columns."""
    shape = dict(num_users=n, num_items=m, num_slots=k, seed=seed)
    if cap is None:
        instance = datasets.make_instance("timik", **shape)
    else:
        instance = datasets.make_st_instance("timik", max_subgroup_size=cap, **shape)
    seconds, objectives = _best_times(
        {
            "universe": lambda: _universe_solve(instance, prune_items),
            "priced": lambda: _priced_solve(instance, prune_items),
        },
        repeats,
    )
    runs, start_columns, final_columns = _pricing_record(instance, prune_items)
    lists = _candidate_lists(instance, "simplified", prune_items, None, True)
    universe, priced = objectives["universe"], objectives["priced"]
    return {
        "n": n,
        "m": m,
        "k": k,
        "cap": cap,
        "seed": seed,
        "prune_items": prune_items,
        "universe_seconds": seconds["universe"],
        "priced_seconds": seconds["priced"],
        "speedup": seconds["universe"] / seconds["priced"],
        "highs_runs": runs,
        "start_columns": start_columns,
        "final_columns": final_columns,
        "universe_columns": _build_sparse(instance, *lists, True).num_variables,
        "universe_objective": universe,
        "priced_objective": priced,
        "relative_difference": abs(priced - universe) / max(abs(universe), 1e-300),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: 4 solve-ls seeds and the n=100 cases, capped or not, no n=300",
    )
    args = parser.parse_args(argv)
    bench_started = time.perf_counter()
    if linprog_module._highs is None:
        print("SKIP: SciPy's HiGHS binding is not in use; its fallback prices nothing")
        return 0

    header = (
        f"{'n':>4} {'m':>4} {'k':>2} {'cap':>3} {'seed':>4} {'pruned':>6} {'universe s':>10} "
        f"{'priced s':>9} {'speedup':>8} {'runs':>4} {'columns start/final/universe':>29} "
        f"{'rel diff':>8}"
    )
    print("LP_SIMP: priced from top-(k+2) start lists vs one universe solve")
    print(header)
    print("-" * len(header))
    failures = 0
    rows = []
    for n, m, k, cap, seeds, prune_items in QUICK_CASES if args.quick else FULL_CASES:
        repeats = 1 if n >= 300 else 3
        for seed in seeds:
            row = run_case(n, m, k, cap, seed, prune_items, repeats)
            rows.append(row)
            columns = f"{row['start_columns']}/{row['final_columns']}/{row['universe_columns']}"
            print(
                f"{n:>4} {m:>4} {k:>2} {'-' if cap is None else cap:>3} {seed:>4} "
                f"{'yes' if prune_items else 'no':>6} "
                f"{row['universe_seconds']:>10.4f} {row['priced_seconds']:>9.4f} "
                f"{row['speedup']:>7.1f}x {row['highs_runs']:>4} {columns:>29} "
                f"{row['relative_difference']:>8.1e}"
            )
            if row["relative_difference"] > RELATIVE_TOLERANCE:
                print(f"FAIL: objectives differ by more than {RELATIVE_TOLERANCE:.0e} relative")
                failures += 1
            gate = MIN_SPEEDUP.get((n, m, k, cap))
            if gate is not None and row["speedup"] < gate:
                print(f"FAIL: speed-up {row['speedup']:.1f}x is below {gate:.0f}x")
                failures += 1

    emit_bench_json(
        "lp_pricing",
        {
            "wall_seconds": time.perf_counter() - bench_started,
            "mode": "quick" if args.quick else "full",
            "min_speedup": {
                f"n={n},m={m},k={k}" + ("" if cap is None else f",M={cap}"): gate
                for (n, m, k, cap), gate in MIN_SPEEDUP.items()
            },
            "relative_tolerance": RELATIVE_TOLERANCE,
            "cases": rows,
        },
        failures=failures,
    )

    print()
    if failures:
        print(f"{failures} acceptance check(s) failed.")
        return 1
    print(
        "All checks passed: every priced objective matched the universe solve, "
        "and the priced solves cleared their speed-up gates."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
