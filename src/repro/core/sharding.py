"""Community-sharded solving for large SVGIC / SVGIC-ST instances.

Monolithic solves hit a wall as ``n`` grows into the tens of thousands: the
LP/MILP variable count scales with ``n * m``, and HiGHS's time and memory
with it.  This module trades a small, *measured* quality gap for
near-linear scaling by exploiting the community structure of the
friendship graph:

1. **Partition** — users are split into balanced community shards via the
   deterministic social-aware BFS ordering of
   :func:`repro.baselines.prepartition.balanced_prepartition`, so most
   friendship edges fall *inside* a shard and only a thin frontier of "cut"
   pairs spans two shards.
2. **Solve** — each shard becomes an ordinary sub-instance
   (:meth:`~repro.core.problem.SVGICInstance.subgroup_instance`) solved by
   any registry algorithm through its own :class:`~repro.core.pipeline.SolveContext`
   (optionally backed by a shared :class:`repro.store.ArtifactStore`), either
   serially or fanned out over a process pool.
3. **Stitch + repair** — shard configurations are merged into one full
   configuration.  Per-user validity (no duplicate items in a row) is
   preserved by construction, but on SVGIC-ST the union can overfill
   ``(item, slot)`` subgroups — each shard respected the cap ``M`` only
   locally.  A deterministic eviction pass moves the cheapest members of
   overfull subgroups to their best under-cap alternatives (max-delta via
   :meth:`~repro.core.objective.DeltaEvaluator.probe_many`), then a
   boundary-restricted :class:`~repro.core.pipeline.LocalSearchImprover`
   polishes the users incident to cut pairs (plus any evicted users) to
   recover the social utility the independent shard solves could not see.

The repair pass evaluates gains against the *full* instance through the
same dense arrays every evaluator reads: the ``(n, m)`` preference matrix
and the ``(P, m)`` pair-weight grid :attr:`SVGICInstance.pair_social`.  When
the raw union is already feasible the repair is pure local search and the
final utility is guaranteed not to drop below the union's; forced evictions
(infeasible unions) may trade utility for feasibility, and both totals are
reported so the trade is visible.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.configuration import SAVGConfiguration, cell_counts, shown_items
from repro.core.objective import DeltaEvaluator, UtilityBreakdown, evaluate, evaluate_st
from repro.core.pipeline import LocalSearchImprover, SolveContext
from repro.core.problem import SVGICInstance, SVGICSTInstance

__all__ = [
    "ShardSolve",
    "ShardedSolveResult",
    "boundary_users",
    "community_shards",
    "cut_pair_ids",
    "solve_sharded",
]


# --------------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------------- #
def community_shards(
    instance: SVGICInstance,
    max_shard_users: int,
    *,
    social_aware: bool = True,
    rng: Any = None,
) -> List[np.ndarray]:
    """Split the user set into balanced community shards of at most ``max_shard_users``.

    A thin wrapper over :func:`repro.baselines.prepartition.balanced_prepartition`
    returning sorted ``int64`` arrays.  With ``social_aware=True`` (the
    default) the partition is a pure function of the friendship graph —
    deterministic across calls and seeds — and contiguous BFS blocks keep
    communities together, minimizing cut pairs.
    """
    from repro.baselines.prepartition import balanced_prepartition

    groups = balanced_prepartition(
        instance, max_shard_users, rng=rng, social_aware=social_aware
    )
    return [np.asarray(group, dtype=np.int64) for group in groups]


def _shard_labels(instance: SVGICInstance, shards: List[np.ndarray]) -> np.ndarray:
    """``(n,)`` shard id per user; every user must appear in exactly one shard."""
    labels = np.full(instance.num_users, -1, dtype=np.int64)
    total = 0
    for shard_id, members in enumerate(shards):
        labels[members] = shard_id
        total += members.size
    if total != instance.num_users or (labels < 0).any():
        raise ValueError("shards must partition the full user set")
    return labels


def cut_pair_ids(instance: SVGICInstance, shard_labels: np.ndarray) -> np.ndarray:
    """Ids of friend pairs whose endpoints live in different shards."""
    pairs = instance.pairs
    if pairs.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.nonzero(shard_labels[pairs[:, 0]] != shard_labels[pairs[:, 1]])[0]


def boundary_users(instance: SVGICInstance, shard_labels: np.ndarray) -> np.ndarray:
    """Sorted unique users incident to at least one cut pair."""
    cut = cut_pair_ids(instance, shard_labels)
    if cut.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.unique(instance.pairs[cut].ravel())


# --------------------------------------------------------------------------- #
# Per-shard solving (module-level so ProcessPoolExecutor can pickle it)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardSolve:
    """Outcome of one shard's independent solve."""

    shard_id: int
    num_users: int
    algorithm: str
    seconds: float
    local_total: float
    lp_solves: int
    lp_store_hits: int
    lp_seconds: float = 0.0


def _solve_shard_task(
    payload: Tuple[int, SVGICInstance, str, Dict[str, Any], Any, Any],
) -> Tuple[int, np.ndarray, ShardSolve]:
    """Solve one shard sub-instance; picklable for process-pool fan-out."""
    shard_id, sub_instance, algorithm, overrides, seed, store = payload
    from repro.core.registry import run_registered

    context = SolveContext(sub_instance, store=store)
    result = run_registered(
        algorithm, sub_instance, context=context, rng=seed, **overrides
    )
    stats = ShardSolve(
        shard_id=shard_id,
        num_users=sub_instance.num_users,
        algorithm=result.algorithm,
        seconds=result.seconds,
        local_total=result.breakdown.total,
        lp_solves=context.lp_solves,
        lp_store_hits=context.lp_store_hits,
        lp_seconds=float(getattr(context, "lp_seconds", 0.0)),
    )
    return shard_id, result.configuration.assignment, stats


def _shard_seed(seed: Optional[int], shard_id: int) -> Optional[np.random.SeedSequence]:
    """Independent, reproducible per-shard seed stream (``None`` stays ``None``)."""
    if seed is None:
        return None
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(shard_id,))


# --------------------------------------------------------------------------- #
# Stitch + repair
# --------------------------------------------------------------------------- #
def _evict_overfull(
    instance: SVGICSTInstance,
    evaluator: DeltaEvaluator,
    *,
    max_sweeps: int = 8,
) -> Tuple[List[int], int]:
    """Restore the subgroup-size cap by moving members of overfull cells.

    For every overfull ``(item, slot)`` cell of the evaluator's
    :attr:`~repro.core.objective.DeltaEvaluator.counts`, members are
    relocated one at a time.  Each step takes every remaining member's best
    *under-cap* item outside its row and moves the member/item pair with
    the largest utility delta.  The members' deltas for every item come
    from :meth:`DeltaEvaluator.probe_many` against the full instance: all
    members once per cell, then, after each move, only the remaining
    members who are the mover's friends, since a probe row reads only its
    own user's row and the friends' rows (bit for bit, whatever the batch).
    This greedy max-delta order makes the forced feasibility repair lose as
    little utility as possible per step and is fully deterministic (ties
    keep the lowest user, then the lowest item).

    A member with *no* under-cap alternative (pathologically tight caps)
    offers the least-loaded item outside its row instead, which may leave a
    smaller violation for the next sweep; ``max_sweeps`` bounds the effort
    and any residual excess is reported by the caller's feasibility check.
    ``tests/oracles/sharding_reference.py`` keeps the per-member loop this
    replaced; the two make the same moves.

    Returns ``(moved user ids, eviction count)``.
    """
    cap = instance.max_subgroup_size
    num_items = instance.num_items
    all_items = np.arange(num_items, dtype=np.int64)
    friends_ptr, _, friends = instance.pair_incidence
    moved: List[int] = []
    evictions = 0
    counts = evaluator.counts

    def probe(users: np.ndarray, slot: int) -> np.ndarray:
        return evaluator.probe_many(np.column_stack([users, np.full(users.size, slot)]), all_items)

    for _sweep in range(max_sweeps):
        overfull = np.argwhere(counts > cap)
        if overfull.size == 0:
            break
        progressed = False
        for item, slot in overfull:
            item, slot = int(item), int(slot)
            members = np.flatnonzero(evaluator.assignment[:, slot] == item)
            deltas = probe(members, slot)
            outside = ~shown_items(evaluator.assignment[members], num_items)
            while counts[item, slot] > cap:
                usable = outside & (counts[:, slot] < cap)
                for row in np.flatnonzero(~usable.any(axis=1)):
                    # Every item outside the row is at cap: offer the first
                    # least-loaded one.
                    free = np.flatnonzero(outside[row])
                    if free.size:
                        usable[row, free[np.argmin(counts[free, slot])]] = True
                offers = np.where(usable, deltas, -np.inf)
                choice = np.argmax(offers, axis=1)
                best = offers[np.arange(members.size), choice]
                mover = int(np.argmax(best))
                if best[mover] == -np.inf:
                    break  # nobody can move; give up on this cell
                user, target = int(members[mover]), int(choice[mover])
                evaluator.set_cell(user, slot, target)
                moved.append(user)
                evictions += 1
                progressed = True
                # Only the mover's row changed: re-probe its friends among the rest.
                stay = np.arange(members.size) != mover
                members, deltas, outside = members[stay], deltas[stay], outside[stay]
                stale = np.flatnonzero(
                    np.isin(members, friends[friends_ptr[user] : friends_ptr[user + 1]])
                )
                if stale.size and counts[item, slot] > cap:
                    deltas[stale] = probe(members[stale], slot)
        if not progressed:
            break
    return moved, evictions


def _breakdown(instance: SVGICInstance, config: SAVGConfiguration) -> UtilityBreakdown:
    if isinstance(instance, SVGICSTInstance):
        return evaluate_st(instance, config)
    return evaluate(instance, config)


# --------------------------------------------------------------------------- #
# Public entry point
# --------------------------------------------------------------------------- #
@dataclass
class ShardedSolveResult:
    """Full outcome of a sharded solve: configuration, utility and diagnostics.

    ``union_total`` is the utility of the raw stitched shard union *before*
    any repair; ``post_eviction_total`` follows the feasibility evictions
    (equal to ``union_total`` when the union was already feasible); the final
    ``breakdown.total`` includes the boundary local-search polish.  Whenever
    ``evictions == 0`` the invariant ``breakdown.total >= union_total`` holds.
    """

    configuration: SAVGConfiguration
    breakdown: UtilityBreakdown
    algorithm: str
    shards: List[ShardSolve]
    union_total: float
    post_eviction_total: float
    evictions: int
    repair_moves: int
    feasible: bool
    seconds: float
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.breakdown.total

    @property
    def num_shards(self) -> int:
        return len(self.shards)


def solve_sharded(
    instance: SVGICInstance,
    *,
    algorithm: str = "AVG-D",
    max_shard_users: int = 512,
    workers: int = 1,
    store: Any = None,
    seed: Optional[int] = None,
    social_aware: bool = True,
    repair: bool = True,
    repair_max_passes: int = 3,
    repair_max_items: Optional[int] = None,
    sparse_pairs: Optional[bool] = None,
    algorithm_overrides: Optional[Mapping[str, Any]] = None,
) -> ShardedSolveResult:
    """Solve a large instance by community shards, then stitch and repair.

    Parameters
    ----------
    algorithm:
        Registry name run independently on every shard (e.g. ``"AVG-D"``,
        ``"AVG-D+LS"``, ``"IP"``); ``algorithm_overrides`` forwards extra
        keyword arguments to it (``lp_formulation="sparse"`` keeps per-shard
        LP memory proportional to nnz).
    max_shard_users:
        Upper bound on shard size; the partition balances sizes within one.
    workers:
        Process-pool width for shard fan-out.  ``1`` (default) solves shards
        serially in-process; larger values are clamped to the CPUs the
        process may use by
        :func:`repro.experiments.executor.resolve_worker_count`.
    store:
        Optional :class:`repro.store.ArtifactStore` shared by every shard's
        :class:`SolveContext` — warm stores make repeated sweeps reuse
        per-shard LP solutions across process and invocation boundaries.
    repair:
        Run the stitch repair (ST cap evictions + boundary local search).
        With ``repair=False`` the raw union is returned, which on SVGIC-ST
        may violate the subgroup-size cap (``feasible`` reports this).
    repair_max_passes / repair_max_items:
        Forwarded to the boundary :class:`LocalSearchImprover` (sweep budget
        and optional candidate-item cap for very large ``m``).
    sparse_pairs:
        Ignored.  Accepted so existing callers keep working; the repair
        always reads the instance's dense pair weights.
    """
    start = time.perf_counter()
    overrides = dict(algorithm_overrides or {})
    # Validate/clamp the pool width up front: workers=0 is a caller error
    # even for a single-shard instance, and oversubscription warns before
    # any partitioning work happens.
    from repro.experiments.executor import resolve_worker_count

    requested_workers = resolve_worker_count(workers)

    shards = community_shards(
        instance, max_shard_users, social_aware=social_aware, rng=seed
    )
    labels = _shard_labels(instance, shards)
    cut = cut_pair_ids(instance, labels)
    boundary = (
        np.unique(instance.pairs[cut].ravel()) if cut.size else np.zeros(0, dtype=np.int64)
    )
    partition_seconds = time.perf_counter() - start

    # --- independent shard solves ------------------------------------- #
    solve_start = time.perf_counter()
    payloads = []
    for shard_id, members in enumerate(shards):
        sub_instance, _user_ids = instance.subgroup_instance(members)
        payloads.append(
            (shard_id, sub_instance, algorithm, overrides, _shard_seed(seed, shard_id), store)
        )
    # Shards run in shard order (``pool.map`` keeps it), so the stitch
    # below pairs each outcome with its members.
    pool_size = min(requested_workers, len(payloads))
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            outcomes = list(pool.map(_solve_shard_task, payloads))
    else:
        outcomes = [_solve_shard_task(payload) for payload in payloads]
    solve_seconds = time.perf_counter() - solve_start

    # --- stitch -------------------------------------------------------- #
    merged = SAVGConfiguration.for_instance(instance)
    shard_stats: List[ShardSolve] = []
    for (shard_id, assignment, stats), members in zip(outcomes, shards):
        merged.assignment[members, :] = assignment
        shard_stats.append(stats)
    merged.validate(instance)

    union_breakdown = _breakdown(instance, merged)
    union_total = union_breakdown.total

    is_st = isinstance(instance, SVGICSTInstance)
    evictions = 0
    moved: List[int] = []
    repair_start = time.perf_counter()
    post_eviction_total = union_total
    if repair and is_st:
        counts = cell_counts(merged.assignment, instance.num_items)
        if int((counts > instance.max_subgroup_size).sum()) > 0:
            evaluator = DeltaEvaluator(instance, merged)
            moved, evictions = _evict_overfull(instance, evaluator)
            merged = SAVGConfiguration(
                assignment=evaluator.assignment, num_items=instance.num_items
            )
            merged.validate(instance)
            post_eviction_total = evaluator.total

    repair_moves = 0
    final = merged
    if repair:
        repair_users = np.union1d(boundary, np.asarray(moved, dtype=np.int64))
        if repair_users.size:
            improver = LocalSearchImprover(
                max_passes=repair_max_passes,
                users=repair_users,
                max_items=repair_max_items,
            )
            outcome = improver.apply(instance, merged)
            final = outcome.configuration
            repair_moves = int(outcome.info.get("moves", 0))
    repair_seconds = time.perf_counter() - repair_start

    final_breakdown = _breakdown(instance, final)
    if is_st:
        residual = cell_counts(final.assignment, instance.num_items)
        feasible = bool((residual <= instance.max_subgroup_size).all())
    else:
        feasible = True
    total_seconds = time.perf_counter() - start

    return ShardedSolveResult(
        configuration=final,
        breakdown=final_breakdown,
        algorithm=f"{algorithm}@shards[{len(shards)}]",
        shards=shard_stats,
        union_total=union_total,
        post_eviction_total=post_eviction_total,
        evictions=evictions,
        repair_moves=repair_moves,
        feasible=feasible,
        seconds=total_seconds,
        info={
            "num_shards": len(shards),
            "shard_sizes": [int(s.size) for s in shards],
            "max_shard_users": int(max_shard_users),
            "cut_pairs": int(cut.size),
            "total_pairs": int(instance.pairs.shape[0]),
            "boundary_users": int(boundary.size),
            "partition_seconds": partition_seconds,
            "solve_seconds": solve_seconds,
            "repair_seconds": repair_seconds,
            "workers": pool_size,
            "algorithm_overrides": overrides,
        },
    )
