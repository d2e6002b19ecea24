"""Shared per-instance solve state and the composable post-processing stage API.

This module is the backbone of the unified solver pipeline:

* :class:`SolveContext` wraps one problem instance and lazily computes —
  and caches — the state that several algorithms would otherwise each
  recompute: the candidate-item sets and, most importantly, the LP
  relaxation solutions keyed by their parameters.  Running the whole paper
  line-up (AVG, AVG-D, independent rounding, the approximation-guarantee
  checks) through one context performs exactly one simplified-LP solve per
  instance; the ``lp_requests`` / ``lp_solves`` counters make that property
  assertable.  A context built with ``store=`` (anything exposing
  ``load_lp``/``save_lp``) consults it on cache misses and writes fresh
  solves through, so contexts that share an instance — sweep repetitions,
  served requests, churn re-solves, other processes — reuse one LP solve
  (``lp_store_hits`` counts those reuses).
* The :class:`Stage` protocol describes composable post-processing passes
  over a configuration.  :class:`GreedyCompletionStage` and
  :class:`DuplicateRepairStage` package the existing feasibility repairs;
  :class:`LocalSearchImprover` is a 2-opt improver over display units —
  single-cell swaps plus pairwise exchanges — that rides on
  :class:`~repro.core.objective.DeltaEvaluator` for ``O(degree)`` move
  evaluation and runs best-improvement passes until a sweep yields no gain.

The algorithm registry (:mod:`repro.core.registry`) dispatches through
this module: a registered spec may carry a tuple of stages that are applied
to the base algorithm's configuration, and every stage records provenance
(what it did, how many moves it made) into the result.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.greedy import greedy_complete
from repro.core.lp import FractionalSolution, candidate_items, solve_lp_relaxation
from repro.core.objective import DeltaEvaluator, total_utility
from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.utils.rng import SeedLike


def instance_size_limit(instance: SVGICInstance) -> Optional[int]:
    """The subgroup-size cap ``M`` for SVGIC-ST instances, ``None`` otherwise."""
    if isinstance(instance, SVGICSTInstance):
        return int(instance.max_subgroup_size)
    return None


def lp_cache_key(
    *,
    formulation: str = "simplified",
    prune_items: bool = True,
    max_candidate_items: Optional[int] = None,
    enforce_size_constraint: bool = True,
) -> Tuple[Any, ...]:
    """The canonical LP-parameter cache key used by :meth:`SolveContext.fractional`.

    One definition shared by the context cache, the persistent store
    (:mod:`repro.store` serializes exactly this tuple) and the serving layer
    (:mod:`repro.serving` solves batches under it and installs the solutions
    back) — so a solution computed anywhere is a hit everywhere.
    """
    return (
        str(formulation),
        bool(prune_items),
        None if max_candidate_items is None else int(max_candidate_items),
        bool(enforce_size_constraint),
    )


# --------------------------------------------------------------------------- #
# Shared per-instance solve state
# --------------------------------------------------------------------------- #
def instance_fingerprint(instance: SVGICInstance) -> str:
    """Stable content hash of an instance's defining data.

    Two instances with equal users/items/slots, weights and utility tables
    share a fingerprint regardless of identity, so LP stores can match
    e.g. the same instance rebuilt by a factory in another process.
    """
    digest = hashlib.sha256()
    digest.update(type(instance).__name__.encode("utf-8"))
    scalars: Tuple[Any, ...] = (
        instance.num_users,
        instance.num_items,
        instance.num_slots,
        float(instance.social_weight),
        float(getattr(instance, "teleport_discount", -1.0)),
        int(getattr(instance, "max_subgroup_size", -1)),
    )
    digest.update(repr(scalars).encode("utf-8"))
    for array in (instance.preference, instance.edges, instance.social):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class SolveContext:
    """Lazily computed, cached state shared by every algorithm run on one instance.

    The context is cheap to construct; everything is computed on first
    request.  LP relaxation solutions are cached by their full parameter key
    (formulation, pruning, candidate cap, size-constraint handling), so AVG,
    AVG-D, independent rounding and the LP upper bound used by the
    approximation-guarantee checks all consume a single solve.

    Parameters
    ----------
    instance:
        The problem instance every cached value belongs to.
    store:
        Optional LP store exposing ``load_lp(fingerprint, key)`` and
        ``save_lp(fingerprint, key, solution)`` (duck-typed so the core
        layer stays import-free of :mod:`repro.store`).  Misses of the
        in-memory cache fall through to the store before they fall through
        to the LP solver, and fresh solves are written through immediately,
        so every context sharing the store pays each LP exactly once.

    Attributes
    ----------
    lp_requests / lp_solves:
        Counters over :meth:`fractional` calls: total requests and requests
        that actually hit the LP solver.  ``lp_hits`` is the difference —
        the number of redundant solves the cache eliminated.
    lp_store_hits:
        Requests served by the ``store`` (a persistent
        :class:`repro.store.ArtifactStore`, an executor's in-memory LP
        store, or anything exposing ``load_lp``/``save_lp``): the load
        itself plus every later in-memory cache hit on a store-loaded entry.
        With a persistent store these survive process *and invocation*
        boundaries — a warm store makes ``lp_solves`` zero.
    lp_seconds:
        Wall-clock seconds this context spent inside the LP solver (cache
        and store hits cost nothing) — the training signal the sweep
        scheduler's cost model separates from total job time.
    """

    def __init__(self, instance: SVGICInstance, *, store: Optional[Any] = None) -> None:
        self.instance = instance
        self.lp_requests = 0
        self.lp_solves = 0
        self.lp_store_hits = 0
        self.lp_seconds = 0.0
        self.last_fractional_was_hit = False
        self._lp_cache: Dict[Tuple[Any, ...], FractionalSolution] = {}
        self._store = store
        self._store_keys: set = set()
        self._candidate_cache: Dict[Optional[int], np.ndarray] = {}
        self._fingerprint: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Content hash of the wrapped instance (computed once)."""
        if self._fingerprint is None:
            self._fingerprint = instance_fingerprint(self.instance)
        return self._fingerprint

    # -- candidate items ------------------------------------------------ #
    def candidate_item_ids(self, max_items: Optional[int] = None) -> np.ndarray:
        """Cached candidate item set (see :func:`repro.core.lp.candidate_items`)."""
        key = None if max_items is None else int(max_items)
        if key not in self._candidate_cache:
            self._candidate_cache[key] = candidate_items(self.instance, max_items)
        return self._candidate_cache[key]

    # -- LP relaxations -------------------------------------------------- #
    def fractional(
        self,
        *,
        formulation: str = "simplified",
        prune_items: bool = True,
        max_candidate_items: Optional[int] = None,
        enforce_size_constraint: bool = True,
    ) -> FractionalSolution:
        """The LP relaxation solution for the given parameters, solved at most once."""
        key = lp_cache_key(
            formulation=formulation,
            prune_items=prune_items,
            max_candidate_items=max_candidate_items,
            enforce_size_constraint=enforce_size_constraint,
        )
        self.lp_requests += 1
        cached = self._lp_cache.get(key)
        if cached is not None:
            self.last_fractional_was_hit = True
            if key in self._store_keys:
                self.lp_store_hits += 1
            return cached
        if self._store is not None:
            stored = self._store.load_lp(self.fingerprint, key)
            if stored is not None:
                self.last_fractional_was_hit = True
                self.lp_store_hits += 1
                self._lp_cache[key] = stored
                self._store_keys.add(key)
                return stored
        self.last_fractional_was_hit = False
        self.lp_solves += 1
        solve_started = time.perf_counter()
        solution = solve_lp_relaxation(
            self.instance,
            formulation=formulation,
            prune_items=prune_items,
            max_candidate_items=max_candidate_items,
            enforce_size_constraint=enforce_size_constraint,
        )
        self.lp_seconds += time.perf_counter() - solve_started
        self._lp_cache[key] = solution
        if self._store is not None:
            self._store.save_lp(self.fingerprint, key, solution)
        return solution

    def install_lp_solution(
        self,
        key: Tuple[Any, ...],
        solution: "FractionalSolution",
        *,
        source: str = "external",
    ) -> None:
        """Seed the LP cache with an externally computed ``solution`` under ``key``.

        The serving layer's micro-batcher solves one block-diagonal LP for
        several instances and installs each instance's share into that
        request's fresh context, so the algorithm dispatch finds the
        relaxation in cache and never touches a solver (``lp_solves`` stays
        zero).  ``source`` controls which hit counter later requests
        increment: ``"external"`` (plain in-memory hit) or ``"store"``
        (counts into ``lp_store_hits`` — use it when the solution came off a
        persistent store so warm-path accounting stays truthful).  Build
        ``key`` with :func:`lp_cache_key` so it matches what the algorithms
        request.
        """
        if source not in {"external", "store"}:
            raise ValueError(f"source must be 'external' or 'store', got {source!r}")
        key = tuple(key)
        self._lp_cache[key] = solution
        if source == "store":
            self._store_keys.add(key)

    @property
    def lp_hits(self) -> int:
        """Requests served without touching the LP solver (cache or store)."""
        return self.lp_requests - self.lp_solves

    def lp_upper_bound(self) -> float:
        """LP optimum of the default simplified relaxation — an upper bound on OPT."""
        return self.fractional().objective

    def peek_lp_bound(
        self,
        *,
        formulation: str = "simplified",
        prune_items: bool = True,
        max_candidate_items: Optional[int] = None,
        enforce_size_constraint: bool = True,
    ) -> Optional[float]:
        """The cached LP bound for the given parameters, or ``None`` — never solves.

        Checks the in-memory cache, then the store; a store hit is promoted
        into the cache.  The churn engine's re-solve policy uses
        this to track incumbent degradation against the bound without ever
        paying an LP solve on the event hot path.
        """
        key = lp_cache_key(
            formulation=formulation,
            prune_items=prune_items,
            max_candidate_items=max_candidate_items,
            enforce_size_constraint=enforce_size_constraint,
        )
        cached = self._lp_cache.get(key)
        if cached is not None:
            return float(cached.objective)
        if self._store is not None:
            stored = self._store.load_lp(self.fingerprint, key)
            if stored is not None:
                self._lp_cache[key] = stored
                self._store_keys.add(key)
                return float(stored.objective)
        return None

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for provenance reporting.

        ``lp_hits`` counts every request served without a solve and
        ``lp_store_hits`` the subset served by the store (the remainder are
        plain in-process hits).  ``lp_seconds`` is the wall time spent
        inside the LP solver.
        """
        return {
            "lp_requests": self.lp_requests,
            "lp_solves": self.lp_solves,
            "lp_hits": self.lp_hits,
            "lp_store_hits": self.lp_store_hits,
            "lp_seconds": self.lp_seconds,
        }


# --------------------------------------------------------------------------- #
# Stage protocol and basic stages
# --------------------------------------------------------------------------- #
@dataclass
class StageOutcome:
    """Result of applying one stage: the (new) configuration plus bookkeeping."""

    configuration: SAVGConfiguration
    info: Dict[str, Any] = field(default_factory=dict)


@runtime_checkable
class Stage(Protocol):
    """A composable post-processing pass over an SAVG configuration.

    Stages must never *decrease* the feasibility of a configuration: a valid
    input must map to a valid output, and a partial input may only become
    more complete.
    """

    name: str

    def apply(
        self,
        instance: SVGICInstance,
        configuration: SAVGConfiguration,
        *,
        context: Optional[SolveContext] = None,
        rng: SeedLike = None,
    ) -> StageOutcome:
        """Apply the stage and return the outcome."""
        ...


class GreedyCompletionStage:
    """Fill unassigned display units with each user's best unused item.

    A thin stage wrapper around :func:`repro.core.greedy.greedy_complete`;
    size-cap aware on SVGIC-ST instances.  A no-op on complete configurations.
    """

    name = "greedy_completion"

    def apply(
        self,
        instance: SVGICInstance,
        configuration: SAVGConfiguration,
        *,
        context: Optional[SolveContext] = None,
        rng: SeedLike = None,
    ) -> StageOutcome:
        missing = int(np.count_nonzero(configuration.assignment == UNASSIGNED))
        if missing == 0:
            return StageOutcome(configuration, {"filled_units": 0})
        completed = configuration.copy()
        greedy_complete(instance, completed, size_limit=instance_size_limit(instance))
        return StageOutcome(completed, {"filled_units": missing})


class DuplicateRepairStage:
    """Replace duplicate items within a user's row by the best unused item.

    Keeps the first occurrence (lowest slot) of each duplicated item and
    reassigns later occurrences by decreasing preference, honouring the
    SVGIC-ST size cap where possible.  A no-op on duplication-free
    configurations, so it is safe to chain unconditionally.
    """

    name = "duplicate_repair"

    def apply(
        self,
        instance: SVGICInstance,
        configuration: SAVGConfiguration,
        *,
        context: Optional[SolveContext] = None,
        rng: SeedLike = None,
    ) -> StageOutcome:
        if configuration.satisfies_no_duplication():
            return StageOutcome(configuration, {"repaired_units": 0})
        repaired = configuration.copy()
        size_limit = instance_size_limit(instance)
        cell_counts: Dict[Tuple[int, int], int] = {}
        if size_limit is not None:
            for slot in range(repaired.num_slots):
                for item, members in repaired.subgroups_at_slot(slot).items():
                    cell_counts[(item, slot)] = len(members)
        repairs = 0
        for user in range(repaired.num_users):
            row = repaired.assignment[user]
            seen: set = set()
            order: Optional[np.ndarray] = None
            for slot in range(repaired.num_slots):
                item = int(row[slot])
                if item == UNASSIGNED:
                    continue
                if item not in seen:
                    seen.add(item)
                    continue
                if order is None:  # one ranking serves every duplicate in this row
                    order = np.argsort(-instance.preference[user], kind="stable")
                replacement = None
                for candidate in order:
                    candidate = int(candidate)
                    if candidate in seen:
                        continue
                    if (
                        size_limit is not None
                        and cell_counts.get((candidate, slot), 0) >= size_limit
                    ):
                        continue
                    replacement = candidate
                    break
                if replacement is None:  # size cap saturated everywhere: relax it
                    replacement = next(
                        int(c) for c in order if int(c) not in seen
                    )
                if size_limit is not None:
                    cell_counts[(item, slot)] = cell_counts.get((item, slot), 1) - 1
                    cell_counts[(replacement, slot)] = (
                        cell_counts.get((replacement, slot), 0) + 1
                    )
                row[slot] = replacement
                seen.add(replacement)
                repairs += 1
        return StageOutcome(repaired, {"repaired_units": repairs})


# --------------------------------------------------------------------------- #
# Local search improver
# --------------------------------------------------------------------------- #
class _Exchanges(NamedTuple):
    """One pairwise phase's candidates, in visiting order.

    Candidate ``i`` swaps the items of display units
    ``(first_users[i], first_slots[i])`` and
    ``(second_users[i], second_slots[i])``.  ``pair_ids`` names the friend
    pair of a same-slot exchange; ``None`` marks a phase of slot swaps.
    """

    first_users: np.ndarray
    first_slots: np.ndarray
    second_users: np.ndarray
    second_slots: np.ndarray
    pair_ids: Optional[np.ndarray]


class LocalSearchImprover:
    """2-opt local search over display units with delta-based move evaluation.

    Two move families are explored:

    * **single-cell swaps** — replace the item at one display unit
      ``(user, slot)`` by any item not yet displayed to that user
      (best-improvement: all candidate items are delta-evaluated in one
      :meth:`DeltaEvaluator.probe_many` NumPy pass and the arg-max gain is
      executed);
    * **pairwise exchanges** — swap the items of two display units, either
      the two slots of one user (changing the co-display pattern) or the
      same slot of a friend pair (size-cap neutral by construction).
      Candidates are visited in a fixed order (users, then slot pairs;
      friend pairs, then slots) and the first one gaining more than
      ``tolerance`` is executed.  Every remaining candidate is scored at
      once, in closed form, by
      :meth:`~repro.core.objective.DeltaEvaluator.slot_swap_gains` /
      :meth:`~repro.core.objective.DeltaEvaluator.pair_exchange_gains`;
      after an accepted move the scan re-scores from the next candidate, so
      the moves are exactly those of a one-probe-at-a-time scan.  Rejected
      candidates never touch the evaluator: only accepted moves write cells
      (two :meth:`~repro.core.objective.DeltaEvaluator.set_cell` calls).
      The closed forms assume rows that repeat no item, so with
      ``pairwise=True`` :meth:`apply` rejects a configuration that has one.

    Passes repeat until a full sweep accepts no move (or ``max_passes`` is
    reached), which makes the utility trace monotonically non-decreasing:
    accepted moves must gain more than ``tolerance``.

    SVGIC-ST instances are handled natively: the objective includes the
    teleportation term and moves that would overfill an ``(item, slot)``
    subgroup beyond ``M`` are never proposed.

    ``users`` restricts the search to a subset of users: only their display
    units are mutated (friend-pair exchanges require *both* endpoints in the
    subset), while gains are still evaluated against the full instance.  The
    sharding engine's boundary-repair pass uses this to polish cut-edge users
    without re-opening shard interiors.
    """

    name = "local_search"

    def __init__(
        self,
        *,
        max_passes: int = 25,
        pairwise: bool = True,
        tolerance: float = 1e-9,
        max_items: Optional[int] = None,
        users: Optional[Sequence[int]] = None,
    ) -> None:
        if max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {max_passes}")
        if tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        self.max_passes = max_passes
        self.pairwise = pairwise
        self.tolerance = tolerance
        self.max_items = max_items
        self.users = None if users is None else np.unique(np.asarray(users, dtype=np.int64))

    # -- candidate items per instance ----------------------------------- #
    def _candidate_items(
        self, instance: SVGICInstance, context: Optional[SolveContext]
    ) -> np.ndarray:
        if self.max_items is None or self.max_items >= instance.num_items:
            return np.arange(instance.num_items, dtype=np.int64)
        if context is not None:
            return context.candidate_item_ids(self.max_items)
        return candidate_items(instance, self.max_items)

    # -- move probes ----------------------------------------------------- #
    @staticmethod
    def _cell_counts(assignment: np.ndarray, num_items: int) -> np.ndarray:
        """``(m, k)`` subgroup sizes: users displayed item ``c`` at slot ``s``."""
        num_slots = assignment.shape[1]
        counts = np.zeros((num_items, num_slots), dtype=np.int64)
        mask = assignment != UNASSIGNED
        slots = np.broadcast_to(np.arange(num_slots), assignment.shape)[mask]
        np.add.at(counts, (assignment[mask], slots), 1)
        return counts

    def _best_cell_move(
        self,
        evaluator: DeltaEvaluator,
        user: int,
        slot: int,
        candidates: np.ndarray,
        counts: Optional[np.ndarray],
        size_limit: Optional[int],
    ) -> Tuple[Optional[int], float]:
        """Best single-cell replacement for ``(user, slot)``; (None, 0) if no gain.

        All feasible candidates are delta-evaluated in one
        :meth:`~repro.core.objective.DeltaEvaluator.probe_many` call and the
        arg-max is returned — the former per-candidate Python probe loop,
        batched.  Ties keep the first (lowest-index) candidate, matching the
        scalar loop's strict-improvement scan.
        """
        row = evaluator.assignment[user]
        shown = np.zeros(evaluator.instance.num_items, dtype=bool)
        shown[row[row != UNASSIGNED]] = True
        valid = candidates[~shown[candidates]]
        if size_limit is not None and counts is not None:
            valid = valid[counts[valid, slot] < size_limit]
        if valid.size == 0:
            return None, 0.0
        gains = evaluator.probe_many((user, slot), valid)
        best = int(np.argmax(gains))
        if gains[best] > self.tolerance:
            return int(valid[best]), float(gains[best])
        return None, 0.0

    def _try_swap(
        self,
        evaluator: DeltaEvaluator,
        exchanges: _Exchanges,
        start: int,
        counts: Optional[np.ndarray],
        size_limit: Optional[int],
    ) -> Optional[int]:
        """Index of the first exchange from ``start`` on gaining more than ``tolerance``.

        Every remaining candidate is filtered by the phase's skip rules — an
        unassigned cell; for slot swaps an ``(item, slot)`` subgroup the swap
        would fill beyond ``size_limit``; for friend-pair exchanges an item
        the other endpoint already shows — and the rest are scored in one
        kernel call.  Read-only; ``None`` when no candidate gains.
        """
        first_users = exchanges.first_users[start:]
        first_slots = exchanges.first_slots[start:]
        second_users = exchanges.second_users[start:]
        second_slots = exchanges.second_slots[start:]
        assignment = evaluator.assignment
        a = assignment[first_users, first_slots]
        b = assignment[second_users, second_slots]
        legal = (a != UNASSIGNED) & (b != UNASSIGNED)
        if exchanges.pair_ids is None:
            if size_limit is not None:
                legal &= (counts[b, first_slots] < size_limit) & (
                    counts[a, second_slots] < size_limit
                )
        else:
            legal &= ~(assignment[first_users] == b[:, None]).any(axis=1)
            legal &= ~(assignment[second_users] == a[:, None]).any(axis=1)
        index = np.flatnonzero(legal)
        if index.size == 0:
            return None
        if exchanges.pair_ids is None:
            gains = evaluator.slot_swap_gains(
                first_users[index], first_slots[index], second_slots[index]
            )
        else:
            gains = evaluator.pair_exchange_gains(
                exchanges.pair_ids[start:][index], first_slots[index]
            )
        hits = np.flatnonzero(gains > self.tolerance)
        return start + int(index[hits[0]]) if hits.size else None

    def _exchange_phase(
        self,
        evaluator: DeltaEvaluator,
        exchanges: _Exchanges,
        counts: Optional[np.ndarray],
        size_limit: Optional[int],
        trace: List[float],
    ) -> int:
        """Scan ``exchanges`` in order, executing each gaining one; returns the moves."""
        moves = 0
        hit = self._try_swap(evaluator, exchanges, 0, counts, size_limit)
        while hit is not None:
            u1, s1 = int(exchanges.first_users[hit]), int(exchanges.first_slots[hit])
            u2, s2 = int(exchanges.second_users[hit]), int(exchanges.second_slots[hit])
            a, b = int(evaluator.assignment[u1, s1]), int(evaluator.assignment[u2, s2])
            evaluator.set_cell(u1, s1, b)
            evaluator.set_cell(u2, s2, a)
            if counts is not None:  # nets to zero for same-slot exchanges
                counts[a, s1] -= 1
                counts[b, s2] -= 1
                counts[b, s1] += 1
                counts[a, s2] += 1
            moves += 1
            trace.append(evaluator.total)
            hit = self._try_swap(evaluator, exchanges, hit + 1, counts, size_limit)
        return moves

    # -- main loop -------------------------------------------------------- #
    def apply(
        self,
        instance: SVGICInstance,
        configuration: Optional[SAVGConfiguration],
        *,
        context: Optional[SolveContext] = None,
        rng: SeedLike = None,
        evaluator: Optional[DeltaEvaluator] = None,
        counts: Optional[np.ndarray] = None,
    ) -> StageOutcome:
        """Run the local search; see the class docstring.

        The default mode builds a private :class:`DeltaEvaluator` over
        ``configuration``.  **In-place mode** — pass ``evaluator=`` (and,
        for size-capped instances, the caller's live ``counts=`` grid) — runs
        the search directly on a caller-owned evaluator instead: moves mutate
        its assignment and running total, ``configuration`` is ignored (may
        be ``None``), and the from-scratch ``delta_drift`` verification is
        skipped so the event hot path stays strictly incremental.  The churn
        engine repairs dynamic sessions this way, restricted via ``users=``
        to the neighbourhood an event touched.

        With ``pairwise=True`` a ``ValueError`` naming the user is raised,
        before any move, if a row the search may change shows an item twice.
        """
        in_place = evaluator is not None
        if in_place:
            if evaluator.instance is not instance:
                raise ValueError("in-place evaluator must wrap the same instance")
        else:
            evaluator = DeltaEvaluator(instance, configuration)
        size_limit = instance_size_limit(instance)
        if size_limit is not None and counts is None:
            counts = self._cell_counts(evaluator.assignment, instance.num_items)
        candidates = self._candidate_items(instance, context)
        n, k = instance.num_users, instance.num_slots
        pairs = instance.pairs

        if self.users is None:
            user_iter: Sequence[int] = range(n)
            pair_iter: Sequence[int] = range(pairs.shape[0])
        else:
            if self.users.size and (self.users.min() < 0 or self.users.max() >= n):
                raise ValueError("users outside [0, num_users)")
            user_iter = [int(u) for u in self.users]
            member = np.zeros(n, dtype=bool)
            member[self.users] = True
            pair_iter = (
                np.nonzero(member[pairs[:, 0]] & member[pairs[:, 1]])[0].tolist()
                if pairs.shape[0]
                else []
            )

        if self.pairwise:
            searched = np.asarray(user_iter, dtype=np.int64)
            # The exchange kernels' closed forms need rows that show each
            # item once; no move creates a repeat, so one check suffices.
            rows = np.sort(evaluator.assignment[searched], axis=1)
            repeats = ((rows[:, 1:] == rows[:, :-1]) & (rows[:, 1:] != UNASSIGNED)).any(axis=1)
            if repeats.any():
                raise ValueError(
                    f"user {searched[np.argmax(repeats)]} is shown an item more than "
                    "once; pairwise exchanges need duplicate-free rows"
                )
            # Candidates in the scan order: users, then slot pairs (s1 < s2);
            # friend pairs, then slots.
            slot_a, slot_b = np.triu_indices(k, 1)
            swap_users = np.repeat(searched, slot_a.size)
            slot_swaps = _Exchanges(
                swap_users,
                np.tile(slot_a, searched.size),
                swap_users,
                np.tile(slot_b, searched.size),
                None,
            )
            pair_ids = np.repeat(np.asarray(pair_iter, dtype=np.int64), k)
            pair_slots = np.tile(np.arange(k), len(pair_iter))
            pair_swaps = _Exchanges(
                pairs[pair_ids, 0], pair_slots, pairs[pair_ids, 1], pair_slots, pair_ids
            )

        trace: List[float] = [evaluator.total]
        moves = 0
        passes = 0
        while passes < self.max_passes:
            passes += 1
            improved = False

            # Single-cell swaps, best-improvement per display unit.
            for user in user_iter:
                for slot in range(k):
                    item, _gain = self._best_cell_move(
                        evaluator, user, slot, candidates, counts, size_limit
                    )
                    if item is None:
                        continue
                    old = int(evaluator.assignment[user, slot])
                    evaluator.set_cell(user, slot, item)
                    if counts is not None:
                        if old != UNASSIGNED:
                            counts[old, slot] -= 1
                        counts[item, slot] += 1
                    moves += 1
                    improved = True
                    trace.append(evaluator.total)

            if self.pairwise:
                # Intra-user slot swaps, then friend-pair exchanges at one slot.
                for exchanges in (slot_swaps, pair_swaps):
                    accepted = self._exchange_phase(
                        evaluator, exchanges, counts, size_limit, trace
                    )
                    moves += accepted
                    improved = improved or accepted > 0

            if not improved:
                break

        final = evaluator.configuration()
        delta_total = evaluator.total
        info: Dict[str, Any] = {
            "moves": moves,
            "passes": passes,
            "initial_utility": trace[0],
            "final_utility": delta_total,
            "utility_trace": trace,
            "in_place": in_place,
        }
        if not in_place:
            # A caller-owned evaluator may hold partial rows (inactive users)
            # or drifted preferences; the from-scratch cross-check is only
            # meaningful — and only paid — in the private-evaluator mode.
            info["delta_drift"] = abs(delta_total - total_utility(instance, final))
        return StageOutcome(final, info)


# --------------------------------------------------------------------------- #
# Stage composition
# --------------------------------------------------------------------------- #
def apply_stages(
    instance: SVGICInstance,
    configuration: SAVGConfiguration,
    stages: Sequence[Stage],
    *,
    context: Optional[SolveContext] = None,
    rng: SeedLike = None,
) -> Tuple[SAVGConfiguration, Tuple[str, ...], Dict[str, Any]]:
    """Apply ``stages`` in order; returns (config, stage names, per-stage info)."""
    info: Dict[str, Any] = {}
    applied: List[str] = []
    for stage in stages:
        outcome = stage.apply(instance, configuration, context=context, rng=rng)
        configuration = outcome.configuration
        applied.append(stage.name)
        info[stage.name] = outcome.info
    return configuration, tuple(applied), info


__all__ = [
    "SolveContext",
    "instance_fingerprint",
    "lp_cache_key",
    "Stage",
    "StageOutcome",
    "GreedyCompletionStage",
    "DuplicateRepairStage",
    "LocalSearchImprover",
    "apply_stages",
    "instance_size_limit",
]
