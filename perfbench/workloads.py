"""The four workloads: inputs from a seed, the measured loop and the output checks.

Every input is generated from ``--seed`` through :func:`repro.utils.rng.derive_seed`
during set-up; the measured loops only call :mod:`repro`'s public API.  Each
workload records one :class:`Op` per operation (host-normalized afterwards
by :class:`~perfbench.metrics.HostReference`) and checks every output:
a check that fails, or an operation that raises, marks that op failed.

==============  ======  ==================================================
workload        loop    one op
==============  ======  ==================================================
solve-ls        closed  ``run_registered("AVG-D+LS")`` on a fresh context
serve-mixed     open    one ``SolverService`` request (Poisson arrivals)
churn-replay    closed  ``ChurnEngine.apply_event`` of one trace event
sharded         closed  ``solve_sharded`` (sparse LP, sparse-pair repair)
==============  ======  ==================================================
"""

from __future__ import annotations

import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.metrics import REF_NOMINAL_MS, HostReference, mean, median

#: A closed loop stops after this multiple of ``--seconds`` of wall time even
#: when a slow host has not yet accumulated ``--seconds`` of normalized time.
WALL_CAP = 1.3

#: How many failure descriptions a workload keeps for the report.
KEEP_FAILURES = 5


def close_to(a: float, b: float, tolerance: float) -> bool:
    """``|a - b| <= tolerance * max(1, |b|)``."""
    return abs(a - b) <= tolerance * max(1.0, abs(b))


def subgroup_sizes(assignment: np.ndarray, num_items: int) -> np.ndarray:
    """``(num_items, k)`` users per (item, slot) cell, counted from an assignment's rows.

    Unassigned cells (negative entries) count toward no item.
    """
    return np.stack(
        [np.bincount(column[column >= 0], minlength=num_items) for column in assignment.T], axis=1
    )


@dataclass
class Op:
    """One measured operation: wall-clock interval, returned utility, check outcome."""

    start: float
    end: float
    utility: float
    ok: bool


@dataclass
class Phase:
    """The ops of one measured phase plus what the workload needs for its layer metrics."""

    ops: List[Op]
    started: float
    ended: float
    extras: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """Base class: set-up, one measured phase, checks and teardown."""

    name = ""
    loop = ""
    #: ``utility_mean`` averages the first this many ops (full size, tiny size).
    #: Every measured phase makes at least that many, so the value depends on
    #: the seed alone, not on how fast the program or the host ran.
    utility_ops: Tuple[int, int] = (1, 1)

    def __init__(self, seed: int, workdir: Path, *, tiny: bool = False) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.tiny = tiny
        self.prefix_ops = self.utility_ops[1 if tiny else 0]
        self.failures: List[str] = []
        self.failed_ops = 0
        self._setups = 0

    # -- bookkeeping ----------------------------------------------------- #
    def fail(self, message: str) -> None:
        """Record one failed op with a description."""
        self.failed_ops += 1
        if len(self.failures) < KEEP_FAILURES:
            self.failures.append(message)

    def _verify(self, index: int, check: Callable[[], Optional[str]]) -> bool:
        """Run one op's checks; a returned message or an exception fails the op."""
        try:
            problem = check()
        except Exception:
            problem = traceback.format_exc(limit=3)
        if problem:
            self.fail(f"{self.name} op {index}: {problem}")
            return False
        return True

    def _fresh_dir(self, label: str) -> Path:
        self._setups += 1
        path = self.workdir / f"{label}-{self._setups}"
        path.mkdir(parents=True, exist_ok=False)
        return path

    # -- the interface run.py drives ------------------------------------- #
    def setup(self) -> None:
        """Build every input from the seed (replacing any earlier set-up)."""
        raise NotImplementedError

    def run(self, seconds: float, ref: HostReference, tracer: Any = None) -> Phase:
        """Measure for ``seconds`` of host-normalized time."""
        raise NotImplementedError

    def throughput(self, phase: Phase, ref: HostReference) -> Tuple[float, str]:
        """Ops per normalized second and a description of how it was measured."""
        busy = sum(ref.normalized(op.start, op.end) for op in phase.ops)
        raw = sum(op.end - op.start for op in phase.ops)
        return (
            len(phase.ops) / busy,
            f"{len(phase.ops)} ops / busy time, closed loop (raw {len(phase.ops) / raw:.3f})",
        )

    def final_checks(self) -> int:
        """Checks on the end state; returns how many were made."""
        return 0

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        """Per-layer metrics the program reports itself (result fields, telemetry)."""
        return {}

    def close(self) -> None:
        """Release what set-up opened."""


# --------------------------------------------------------------------------- #
# Closed loop
# --------------------------------------------------------------------------- #
def closed_loop(
    workload: Workload,
    seconds: float,
    ref: HostReference,
    call: Callable[[int], Any],
    verify: Callable[[int, Any], Tuple[float, Optional[str]]],
    *,
    tracer: Any = None,
    limit: Optional[int] = None,
) -> Phase:
    """One client calling ``call(i)`` back to back until ``seconds`` of normalized busy time.

    Only ``call`` is timed; ``verify(i, result)`` runs afterwards and returns
    ``(utility, problem or None)``; a problem or an exception fails the op.
    The host reference is sampled between ops whenever its interval has
    passed.  Stops early after ``WALL_CAP * seconds`` of wall time, but never
    before ``workload.prefix_ops`` ops; stops at ``limit`` ops regardless.
    """
    ops: List[Op] = []
    ref.sample()
    busy = 0.0
    started = time.perf_counter()
    while limit is None or len(ops) < limit:
        index = len(ops)
        if index >= workload.prefix_ops and (
            busy >= seconds or time.perf_counter() - started >= WALL_CAP * seconds
        ):
            break
        ref.maybe_sample()
        if tracer is not None:
            tracer.set_op(index)
        begin = time.perf_counter()
        try:
            result = call(index)
        except Exception:
            end = time.perf_counter()
            workload.fail(f"{workload.name} op {index} raised: {traceback.format_exc(limit=3)}")
            ops.append(Op(begin, end, math.nan, False))
            busy += (end - begin) * REF_NOMINAL_MS / ref.millis[-1]
            continue
        end = time.perf_counter()
        busy += (end - begin) * REF_NOMINAL_MS / ref.millis[-1]
        try:
            utility, problem = verify(index, result)
        except Exception:
            utility, problem = math.nan, traceback.format_exc(limit=3)
        if problem:
            workload.fail(f"{workload.name} op {index}: {problem}")
        ops.append(Op(begin, end, utility, not problem))
    if tracer is not None:
        tracer.set_op(None)
    ref.sample()
    return Phase(ops, started, time.perf_counter())


# --------------------------------------------------------------------------- #
# solve-ls: one registered solve
# --------------------------------------------------------------------------- #
class SolveLS(Workload):
    """Closed loop, one client: ``run_registered("AVG-D+LS")`` per distinct instance."""

    name = "solve-ls"
    loop = "closed, 1 client"
    utility_ops = (96, 4)

    def setup(self) -> None:
        from repro.data import datasets
        from repro.utils.rng import derive_seed

        users, pool = (8, 4) if self.tiny else (20, 256)
        self.instances = [
            datasets.make_instance(
                "timik",
                num_users=users,
                num_items=12 if self.tiny else 30,
                num_slots=3,
                seed=derive_seed(self.seed, "solve-ls", index),
            )
            for index in range(pool)
        ]

    def run(self, seconds: float, ref: HostReference, tracer: Any = None) -> Phase:
        from repro.core.objective import total_utility
        from repro.core.pipeline import SolveContext
        from repro.core.registry import run_registered

        instances = self.instances

        def call(index: int) -> Any:
            instance = instances[index % len(instances)]
            return run_registered("AVG-D+LS", instance, context=SolveContext(instance), rng=index)

        def verify(index: int, result: Any) -> Tuple[float, Optional[str]]:
            instance = instances[index % len(instances)]
            result.configuration.validate(instance)
            if index % 8 == 0:
                scratch = total_utility(instance, result.configuration)
                if not close_to(result.objective, scratch, 1e-9):
                    return result.objective, f"objective {result.objective!r} != total_utility {scratch!r}"
            return float(result.objective), None

        return closed_loop(self, seconds, ref, call, verify, tracer=tracer)


# --------------------------------------------------------------------------- #
# serve-mixed: one served request
# --------------------------------------------------------------------------- #
#: Open-loop arrival rate (requests per second) and the hit share of the mix.
#: The rate stays under half the service's capacity even when the host runs
#: several times slower than usual, so a slow wave does not build a backlog.
#: It also keeps the hits that queue behind a miss (3-8 a run) below the 11
#: slowest requests, so the tail stays in the miss mode; at 8 req/s 2-16
#: did, and the tail moved with how many a seed's arrivals gave.
SERVE_RATE = 6.0
SERVE_HIT_SHARE = 0.75
SERVE_HOT_SET = 24
#: No batching window: a timed wait per batch adds a thread wake-up to every
#: request; requests that queue up while a batch runs are still co-batched.
SERVE_BATCH_WINDOW = 0.0
SERVE_MAX_BATCH = 8
#: A request unanswered after this long has failed (and missed any latency limit).
SERVE_TIMEOUT = 60.0
#: The served instances (hot set and fresh pool) are one fixed universe;
#: ``--seed`` varies the traffic: arrival times, which requests hit, and so
#: which hot instance each hit repeats.  The 96 requests utility_mean covers
#: hold only about 48 distinct instances, so with per-seed instances its
#: spread across seeds was 0.031, against 0.003 with the universe fixed.
SERVE_UNIVERSE_SEED = 2021


def arrival_schedule(
    seed: int, count: int, rate: float, hit_share: float, phase: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded Poisson arrival offsets (seconds) and hit flags (exactly ``hit_share`` of them, shuffled)."""
    from repro.utils.rng import derive_seed

    generator = np.random.default_rng(derive_seed(seed, "serve-arrivals", phase))
    offsets = np.cumsum(generator.exponential(1.0 / rate, size=count))
    hits = np.arange(count) < int(round(hit_share * count))
    generator.shuffle(hits)
    return offsets, hits


class ServeMixed(Workload):
    """Open loop: Poisson arrivals to one ``SolverService`` (75% store hits)."""

    name = "serve-mixed"
    loop = f"open, Poisson {SERVE_RATE:g} req/s"
    utility_ops = (96, 4)

    def setup(self) -> None:
        from repro.data import datasets
        from repro.serving.service import SolverService
        from repro.utils.rng import derive_seed

        self.close()
        users, items = (6, 10) if self.tiny else (14, 30)

        def build(label: str, index: int) -> Any:
            return datasets.make_instance(
                "timik",
                num_users=users,
                num_items=items,
                num_slots=3,
                seed=derive_seed(SERVE_UNIVERSE_SEED, label, index),
            )

        hot_count = 4 if self.tiny else SERVE_HOT_SET
        fresh_count = 24 if self.tiny else 160
        self.hot = [build("serve-hot", index) for index in range(hot_count)]
        self.fresh = [build("serve-fresh", index) for index in range(fresh_count)]
        self._next_fresh = 0
        self._next_request = 0
        self._phases = 0
        self._store_dir = self._fresh_dir("serve-store")
        self.service = SolverService(
            self._store_dir,
            workers=0,
            batch_window=SERVE_BATCH_WINDOW,
            max_batch_size=SERVE_MAX_BATCH,
        )
        warm = [self.service.submit(instance, seed=index) for index, instance in enumerate(self.hot)]
        for ticket in warm:
            ticket.result(timeout=SERVE_TIMEOUT)

    def _request(self, hit: bool) -> Any:
        """The next request's instance: a hot-set repeat or the next fresh instance."""
        self._next_request += 1
        if hit:
            return self.hot[self._next_request % len(self.hot)]
        instance = self.fresh[self._next_fresh % len(self.fresh)]
        self._next_fresh += 1
        return instance

    def _collect(self, tickets: Sequence[Tuple[Any, Any, float]]) -> List[Tuple[Any, Any, float, Any]]:
        """Wait for every ticket: ``(instance, seed, due, ServeResult or None)``."""
        answered = []
        for instance, ticket, due in tickets:
            try:
                served = ticket.result(timeout=SERVE_TIMEOUT)
            except Exception:
                self.fail(f"{self.name} request {ticket.request_id}: {traceback.format_exc(limit=3)}")
                served = None
            answered.append((instance, ticket.request.seed, due, served))
        return answered

    def _verify_served(self, index: int, instance: Any, seed: int, served: Any) -> bool:
        from repro.core.objective import total_utility
        from repro.core.pipeline import SolveContext
        from repro.core.registry import run_registered
        from repro.utils.rng import derive_seed

        def check() -> Optional[str]:
            served.result.configuration.validate(instance)
            if index % 10 == 0:
                scratch = total_utility(instance, served.result.configuration)
                if not close_to(served.objective, scratch, 1e-9):
                    return f"objective {served.objective!r} != total_utility {scratch!r}"
                direct = run_registered(
                    served.algorithm,
                    instance,
                    context=SolveContext(instance),
                    rng=derive_seed(seed, served.algorithm),
                )
                if not close_to(served.objective, direct.objective, 1e-6):
                    return f"served {served.objective!r} != direct solve {direct.objective!r}"
            return None

        return self._verify(index, check)

    def run(self, seconds: float, ref: HostReference, tracer: Any = None) -> Phase:
        count = max(self.prefix_ops, int(round(SERVE_RATE * seconds)))
        offsets, hits = arrival_schedule(self.seed, count, SERVE_RATE, SERVE_HIT_SHARE, self._phases)
        self._phases += 1
        for _ in range(3):
            ref.sample()
        tickets: List[Tuple[Any, Any, float]] = []
        late: List[float] = []
        done = 0
        started = time.perf_counter() + 0.05
        for offset, hit in zip(offsets, hits):
            due = started + float(offset)
            while True:
                pause = due - time.perf_counter()
                if pause <= 0:
                    break
                while done < len(tickets) and tickets[done][1].done():
                    done += 1
                # Sample the host reference only while the service is idle, so
                # it neither delays the batcher nor measures lock contention.
                if done == len(tickets) and pause > 0.01 and ref.due():
                    ref.sample(warm_up=True)
                    continue
                time.sleep(min(pause, 0.005))
            instance = self._request(bool(hit))
            sent = time.perf_counter()
            late.append(sent - due)
            tickets.append((instance, self.service.submit(instance, seed=self._next_request), due))
        answered = self._collect(tickets)
        ended = time.perf_counter()  # the checks below (direct solves) are not part of the phase
        for _ in range(3):
            ref.sample()
        ops: List[Op] = []
        results = []
        for index, (instance, seed, due, served) in enumerate(answered):
            if served is None:
                ops.append(Op(due, due + SERVE_TIMEOUT, math.nan, False))
                continue
            ok = self._verify_served(index, instance, seed, served)
            end = served.completed_at if ok else max(served.completed_at, due + SERVE_TIMEOUT)
            ops.append(Op(due, end, served.objective, ok))
            results.append(served)
        return Phase(ops, started, ended, {"results": results, "late": late})

    def throughput(self, phase: Phase, ref: HostReference) -> Tuple[float, str]:
        """Requests per second of the batcher's busy time (claim to last completion of each batch)."""
        batches: Dict[int, Tuple[float, float]] = {}
        for served in phase.extras["results"]:
            begun = served.submitted_at + served.queue_seconds
            first, last = batches.get(served.batch_id, (begun, served.completed_at))
            batches[served.batch_id] = (min(first, begun), max(last, served.completed_at))
        busy = sum(ref.normalized(first, last) for first, last in batches.values())
        raw = sum(last - first for first, last in batches.values())
        count = len(phase.extras["results"])
        return (
            count / busy,
            f"{count} requests / service busy time over {len(batches)} batches (raw {count / raw:.3f})",
        )

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        results = phase.extras["results"]
        misses = [r for r in results if not r.cache_hit]
        batches = {r.batch_id for r in misses}
        return {
            "serve.queue_ms": median([r.queue_seconds * 1e3 for r in results]),
            "serve.decode_ms": median([r.decode_seconds * 1e3 for r in results]),
            "serve.solve_ms": median([r.solve_seconds * 1e3 for r in misses]),
            "serve.batch_size_mean": mean([float(r.batch_size) for r in results]),
            "serve.cache_hit_ratio": (len(results) - len(misses)) / max(1, len(results)),
            "serve.lp_batches": len(batches) / max(1, len(results)),
            "gen.late_ms": mean([value * 1e3 for value in phase.extras["late"]]),
        }

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()
            service.store.close()
            self.service = None
            shutil.rmtree(self._store_dir, ignore_errors=True)


# --------------------------------------------------------------------------- #
# churn-replay: one churn event
# --------------------------------------------------------------------------- #
CHURN_CHECK_EVERY = 500
#: The churn workload's user universe is one fixed instance; ``--seed`` varies
#: the event trace.  The slowest events are those of the few highest-degree
#: users, so with a per-seed instance the tail followed each graph's hubs
#: (11-19 ms across ten seeds) rather than the program.
CHURN_UNIVERSE_SEED = 2020


class ChurnReplay(Workload):
    """Closed loop over a seeded join/leave/drift trace fed to ``ChurnEngine``."""

    name = "churn-replay"
    loop = "closed, 1 client"
    utility_ops = (3000, 100)

    def setup(self) -> None:
        from repro.data import datasets
        from repro.data.churn import make_churn_trace
        from repro.extensions.churn import ChurnEngine, ResolvePolicy
        from repro.store import ArtifactStore
        from repro.utils.rng import derive_seed

        self.close()
        # The full trace is about three times what one run replays, so a
        # faster program still measures for the whole run.
        users, items, events = (40, 20, 400) if self.tiny else (300, 60, 30000)
        self.instance = datasets.make_st_instance(
            "timik",
            num_users=users,
            num_items=items,
            num_slots=3,
            max_subgroup_size=5,
            seed=CHURN_UNIVERSE_SEED,
        )
        self.trace = make_churn_trace(
            self.instance,
            num_events=events,
            seed=derive_seed(self.seed, "churn-trace"),
            # Leaves slightly outweigh joins, so the active count settles just
            # above the min_active floor instead of random-walking away from it
            # (which made per-event cost and utility depend on the seed).
            join_weight=0.35,
            leave_weight=0.45,
            drift_weight=0.2,
            initial_active_fraction=0.55,
            min_active=int(0.5 * users),
        )
        self._store_dir = self._fresh_dir("churn-store")
        self.store = ArtifactStore(self._store_dir)
        self.engine = ChurnEngine(
            self.instance,
            self.trace.initial_active,
            policy=ResolvePolicy(degradation_threshold=0.08, min_events_between_resolves=5),
            store=self.store,
        )
        self._next_event = 0

    def _session_problem(self) -> Optional[str]:
        """Validate the active rows, recount the subgroup sizes and recompute the utility."""
        from repro.extensions.dynamic import check_session_inputs

        session = self.engine.session
        check_session_inputs(self.instance, session.configuration, session.active)
        sizes = subgroup_sizes(session.configuration.assignment[session.active], self.instance.num_items)
        if int(sizes.max()) > self.instance.max_subgroup_size:
            return f"subgroup of {int(sizes.max())} users exceeds the cap {self.instance.max_subgroup_size}"
        if not np.array_equal(sizes, session.counts):
            return "the session's subgroup counts differ from a recount of its configuration"
        running, scratch = self.engine.current_utility(), session.recompute_utility()
        if not close_to(running, scratch, 1e-6):
            return f"current_utility {running!r} != recompute_utility {scratch!r}"
        return None

    def run(self, seconds: float, ref: HostReference, tracer: Any = None) -> Phase:
        events = self.trace.events
        first = self._next_event
        ticks: List[Any] = []

        def call(index: int) -> Any:
            return self.engine.apply_event(events[first + index])

        def verify(index: int, tick: Any) -> Tuple[float, Optional[str]]:
            ticks.append(tick)
            if (first + index) % CHURN_CHECK_EVERY == CHURN_CHECK_EVERY - 1:
                return float(tick.utility), self._session_problem()
            return float(tick.utility), None

        phase = closed_loop(
            self, seconds, ref, call, verify, tracer=tracer, limit=len(events) - first
        )
        self._next_event = first + len(phase.ops)
        phase.extras["ticks"] = ticks
        return phase

    def final_checks(self) -> int:
        self._verify(self._next_event, self._session_problem)
        return 1

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        ticks = phase.extras["ticks"]
        return {
            "churn.resolves": sum(1 for tick in ticks if tick.action == "resolve") / max(1, len(ticks)),
            "churn.repair_moves": mean([float(tick.repair_moves) for tick in ticks]),
        }

    def close(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            # Drop the engine before the next set-up builds one, so two never
            # coexist in memory (peak_rss_mb covers set-up too).
            self.engine = None
            store.close()
            self.store = None
            shutil.rmtree(self._store_dir, ignore_errors=True)


# --------------------------------------------------------------------------- #
# sharded: one sharded solve
# --------------------------------------------------------------------------- #
#: More instances than a run solves, so each op solves a distinct one and the
#: p50 is a median over many instances rather than over a few repeated ones.
SHARD_INSTANCES = 64
#: The SVGIC-ST subgroup cap.  Each shard meets it on its own, so the stitched
#: union of three shards overfills cells and the repair evicts (~45 per op).
SHARD_CAP = 5


class Sharded(Workload):
    """Closed loop calling ``solve_sharded`` over seeded sparse-first SVGIC-ST instances."""

    name = "sharded"
    loop = "closed, 1 client"
    utility_ops = (24, 2)

    def setup(self) -> None:
        from repro.data import datasets
        from repro.utils.rng import derive_seed

        users, items = (24, 12) if self.tiny else (60, 24)
        self.instances = [
            datasets.make_st_instance(
                "timik",
                num_users=users,
                num_items=items,
                num_slots=3,
                max_subgroup_size=SHARD_CAP,
                seed=derive_seed(self.seed, "sharded", index),
                preference_top_k=20,
                social_top_k=20,
                edge_density=0.3,
            )
            for index in range(SHARD_INSTANCES)
        ]
        self.max_shard_users = users // 3

    def run(self, seconds: float, ref: HostReference, tracer: Any = None) -> Phase:
        from repro.core.objective import total_utility
        from repro.core.sharding import solve_sharded

        instances = self.instances
        infos: List[Dict[str, Any]] = []

        def call(index: int) -> Any:
            # solve_sharded's default repair budget: 3 passes over all items.
            return solve_sharded(
                instances[index % len(instances)],
                algorithm="AVG-D",
                max_shard_users=self.max_shard_users,
                workers=1,
                seed=index,
                sparse_pairs=True,
                algorithm_overrides={"lp_formulation": "sparse"},
            )

        def verify(index: int, result: Any) -> Tuple[float, Optional[str]]:
            instance = instances[index % len(instances)]
            infos.append({**result.info, "evictions": result.evictions, "repair_moves": result.repair_moves})
            result.configuration.validate(instance)
            largest = int(subgroup_sizes(result.configuration.assignment, instance.num_items).max())
            if largest > instance.max_subgroup_size:
                return result.total, f"subgroup of {largest} users exceeds the cap {instance.max_subgroup_size}"
            if not result.feasible:
                return result.total, "sharded result reports itself infeasible"
            if index % 4 == 0:
                scratch = total_utility(instance, result.configuration)
                if not close_to(result.total, scratch, 1e-9):
                    return result.total, f"total {result.total!r} != total_utility {scratch!r}"
            return float(result.total), None

        phase = closed_loop(self, seconds, ref, call, verify, tracer=tracer)
        phase.extras["infos"] = infos
        return phase

    def layer_metrics(self, phase: Phase) -> Dict[str, float]:
        infos = phase.extras["infos"]

        def per_op(key: str) -> float:
            return mean([float(info[key]) for info in infos])

        return {
            "shard.partition_s": per_op("partition_seconds"),
            "shard.solve_s": per_op("solve_seconds"),
            "shard.repair_s": per_op("repair_seconds"),
            "shard.count": per_op("num_shards"),
            "shard.boundary_users": per_op("boundary_users"),
            "shard.repair_moves": per_op("repair_moves"),
            "shard.evictions": per_op("evictions"),
        }


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (SolveLS, ServeMixed, ChurnReplay, Sharded)
}

__all__ = [
    "WORKLOADS",
    "Workload",
    "Op",
    "Phase",
    "SolveLS",
    "ServeMixed",
    "ChurnReplay",
    "Sharded",
    "arrival_schedule",
    "closed_loop",
    "subgroup_sizes",
]
