"""Streaming churn benchmark: incremental sessions and the churn engine.

Replays seeded join/leave/preference-drift traces
(:func:`repro.data.make_churn_trace`) through three maintenance policies and
gates the incremental path's acceptance properties:

* **Incremental vs scalar session** — the same trace through the vectorized
  :class:`repro.extensions.dynamic.DynamicSession` and the preserved scalar
  ``ReferenceDynamicSession`` (``tests/oracles/dynamic_reference.py``).
  Utilities must agree to 1e-6 on the compared prefix and the per-event
  speedup must clear **10x** in ``--quick`` mode (**50x** in full mode,
  where the scalar session replays a prefix and the comparison is
  per-event).
* **Churn engine vs full re-solve per event** — the engine (event-local
  repair, warm-start re-solve policy) against the monolithic baseline that
  re-solves the active subgroup on every event *through*
  :class:`repro.serving.SolverService` (the serving-replay leg: every
  baseline solve is a served request against a warm store).  Mean utility
  retention must stay at or above **95%** of the full-re-solve trajectory,
  at a small fraction of its latency.

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_dynamic_churn.py [--quick]

``--quick`` shrinks the workload; it is the mode the CI smoke job runs.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

import numpy as np

try:
    from benchmarks._reporting import emit_bench_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from _reporting import emit_bench_json

from repro.data import datasets, make_churn_trace
from repro.data.churn import DRIFT, JOIN, LEAVE
from repro.extensions.churn import ChurnEngine, ResolvePolicy, replay_incremental, solve_active
from repro.extensions.dynamic import DynamicSession
from repro.serving import SolverService

# The scalar session is a test oracle and lives with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.dynamic_reference import ReferenceDynamicSession  # noqa: E402


def session_speedup_leg(
    *,
    num_users: int,
    num_items: int,
    num_events: int,
    scalar_prefix: int,
    seed: int,
    max_subgroup_size: int = 6,
):
    """Replay one trace through the incremental and scalar sessions; timed."""
    instance = datasets.make_st_instance(
        "timik",
        num_users=num_users,
        num_items=num_items,
        num_slots=3,
        max_subgroup_size=max_subgroup_size,
        seed=seed,
    )
    trace = make_churn_trace(
        instance,
        num_events=num_events,
        seed=seed + 1,
        join_weight=0.6,
        leave_weight=0.25,
        drift_weight=0.15,
        initial_active_fraction=0.5,
    )
    config, _, _ = solve_active(instance, trace.initial_active)

    fast = DynamicSession(instance, config, active=trace.initial_active.copy())
    started = time.perf_counter()
    fast_utilities = replay_incremental(fast, trace)
    fast_seconds = time.perf_counter() - started

    prefix = replace(trace, events=trace.events[:scalar_prefix])
    slow = ReferenceDynamicSession(
        instance, config, active=trace.initial_active.copy()
    )
    started = time.perf_counter()
    slow_utilities = replay_incremental(slow, prefix)
    slow_seconds = time.perf_counter() - started

    per_event_fast = fast_seconds / len(trace.events)
    per_event_slow = slow_seconds / len(prefix.events)
    max_divergence = float(
        np.max(np.abs(np.asarray(fast_utilities[: len(slow_utilities)]) - slow_utilities))
    )
    return {
        "num_users": num_users,
        "num_items": num_items,
        "events": len(trace.events),
        "scalar_events": len(prefix.events),
        "incremental_seconds": fast_seconds,
        "scalar_seconds": slow_seconds,
        "per_event_speedup": per_event_slow / per_event_fast if per_event_fast else None,
        "max_divergence": max_divergence,
        "kind_counts": trace.kind_counts,
    }


def engine_vs_full_resolve_leg(
    *, num_users: int, num_items: int, num_events: int, seed: int
):
    """Engine replay vs a full re-solve per event served by SolverService."""
    instance = datasets.make_st_instance(
        "timik",
        num_users=num_users,
        num_items=num_items,
        num_slots=3,
        max_subgroup_size=5,
        seed=seed,
    )
    trace = make_churn_trace(
        instance, num_events=num_events, seed=seed + 2, initial_active_fraction=0.6
    )

    engine = ChurnEngine(
        instance,
        trace.initial_active,
        policy=ResolvePolicy(degradation_threshold=0.08, min_events_between_resolves=5),
    )
    started = time.perf_counter()
    ticks = engine.replay(trace)
    engine_seconds = time.perf_counter() - started

    # Monolithic baseline: every event answers with a fresh solve of the
    # active subgroup, each one a request served by the SolverService (warm
    # store, so recurring active sets hit the cache like production would).
    baseline_utilities: List[float] = []
    active = trace.initial_active.copy()
    preference = None
    started = time.perf_counter()
    with SolverService(
        tempfile.mkdtemp(prefix="repro-churn-baseline-"),
        batch_window=0.0,
        max_batch_size=1,
    ) as service:
        for event in trace.events:
            if event.kind == JOIN:
                active[event.user] = True
            elif event.kind == LEAVE:
                active[event.user] = False
            elif event.kind == DRIFT:
                if preference is None:
                    preference = instance.preference.copy()
                preference[event.user] = event.preference
            base = (
                instance
                if preference is None
                else replace(instance, preference=preference)
            )
            sub_instance, _ = base.subgroup_instance(
                [int(u) for u in np.nonzero(active)[0]]
            )
            serve = service.solve(sub_instance, timeout=600)
            baseline_utilities.append(float(serve.result.objective))
        service_stats = service.stats()
    baseline_seconds = time.perf_counter() - started

    engine_utilities = [tick.utility for tick in ticks]
    retention = [
        mine / theirs
        for mine, theirs in zip(engine_utilities, baseline_utilities)
        if theirs > 0
    ]
    return {
        "num_users": num_users,
        "num_items": num_items,
        "events": len(trace.events),
        "engine_seconds": engine_seconds,
        "baseline_seconds": baseline_seconds,
        "latency_ratio": baseline_seconds / engine_seconds if engine_seconds else None,
        "mean_retention": float(np.mean(retention)) if retention else None,
        "min_retention": float(np.min(retention)) if retention else None,
        "engine_resolves": engine.resolves,
        "engine_repair_moves": engine.repair_moves,
        "served_requests": service_stats["completed"],
        "kind_counts": trace.kind_counts,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: smaller instances, 10x speedup gate",
    )
    args = parser.parse_args(argv)

    if args.quick:
        speedup_kwargs = dict(
            num_users=120, num_items=40, num_events=30, scalar_prefix=12, seed=400
        )
        engine_kwargs = dict(num_users=36, num_items=16, num_events=10, seed=500)
        speedup_floor = 10.0
    else:
        speedup_kwargs = dict(
            num_users=2000,
            num_items=120,
            num_events=120,
            scalar_prefix=6,
            seed=400,
            max_subgroup_size=24,
        )
        engine_kwargs = dict(num_users=80, num_items=30, num_events=30, seed=500)
        speedup_floor = 50.0
    retention_floor = 0.95

    failures: List[str] = []

    print(
        f"Churn leg 1: incremental vs scalar session "
        f"(n={speedup_kwargs['num_users']}, m={speedup_kwargs['num_items']}, "
        f"{speedup_kwargs['num_events']} events, scalar prefix "
        f"{speedup_kwargs['scalar_prefix']})"
    )
    speedup = session_speedup_leg(**speedup_kwargs)
    print(
        f"  incremental {speedup['incremental_seconds']:.3f}s for "
        f"{speedup['events']} events; scalar {speedup['scalar_seconds']:.3f}s for "
        f"{speedup['scalar_events']}; per-event speedup "
        f"{speedup['per_event_speedup']:.1f}x; max divergence "
        f"{speedup['max_divergence']:.2e}"
    )
    if speedup["max_divergence"] > 1e-6:
        failures.append(
            f"incremental and scalar sessions diverged by "
            f"{speedup['max_divergence']:.2e} (> 1e-6)"
        )
    if speedup["per_event_speedup"] < speedup_floor:
        failures.append(
            f"per-event speedup {speedup['per_event_speedup']:.1f}x is below the "
            f"{speedup_floor:.0f}x floor"
        )

    print(
        f"\nChurn leg 2: engine vs full re-solve per event through SolverService "
        f"(n={engine_kwargs['num_users']}, {engine_kwargs['num_events']} events)"
    )
    engine = engine_vs_full_resolve_leg(**engine_kwargs)
    print(
        f"  engine {engine['engine_seconds']:.2f}s "
        f"({engine['engine_resolves']} solve(s), "
        f"{engine['engine_repair_moves']} repair moves) vs baseline "
        f"{engine['baseline_seconds']:.2f}s over {engine['served_requests']} served "
        f"requests; latency ratio {engine['latency_ratio']:.1f}x; retention "
        f"mean {engine['mean_retention']:.3f} / min {engine['min_retention']:.3f}"
    )
    if engine["mean_retention"] is None or engine["mean_retention"] < retention_floor:
        failures.append(
            f"mean utility retention {engine['mean_retention']} is below the "
            f"{retention_floor:.0%} floor"
        )
    if engine["latency_ratio"] is not None and engine["latency_ratio"] < 1.0:
        failures.append(
            "the incremental engine was slower than full re-solve per event "
            f"(latency ratio {engine['latency_ratio']:.2f}x)"
        )

    emit_bench_json(
        "dynamic_churn",
        {
            "quick": args.quick,
            "speedup_floor": speedup_floor,
            "retention_floor": retention_floor,
            "session_speedup": speedup,
            "engine_vs_full_resolve": engine,
        },
        failures=len(failures),
    )

    if failures:
        print("\nFAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"\nOK: incremental session {speedup['per_event_speedup']:.0f}x over the "
        f"scalar reference, engine retained {engine['mean_retention']:.1%} of the "
        f"full-re-solve utility at 1/{engine['latency_ratio']:.0f} of its latency"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
