"""Shared per-instance solve state and the local-search post-pass.

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
* :class:`LocalSearchImprover` is a 2-opt improver over display units —
  single-cell swaps plus pairwise exchanges — that rides on
  :class:`~repro.core.objective.DeltaEvaluator` for ``O(degree)`` move
  evaluation and runs best-improvement passes until a sweep yields no gain.
  :func:`with_local_search` runs it on an algorithm's result and records
  what it did (moves, passes, seconds) there; the ``+LS`` registry variants
  call it after their base rounding.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import UNASSIGNED, SAVGConfiguration, repeated_rows, shown_items
from repro.core.lp import FractionalSolution, candidate_items, solve_lp_relaxation
from repro.core.objective import DeltaEvaluator, total_utility
from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.core.result import AlgorithmResult


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
        and store hits cost nothing), reported by :meth:`stats` into sweep
        job provenance and by each sharded solve's shard results.
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

        The serving layer's micro-batcher solves (or loads) each batched
        instance's LP relaxation and installs it into that request's fresh
        context, so the algorithm dispatch finds the relaxation in cache
        and never touches a solver (``lp_solves`` stays zero).  ``source``
        controls which hit counter later requests increment:
        ``"external"`` (plain in-memory hit) or ``"store"`` (counts into
        ``lp_store_hits`` — use it when the solution came off a persistent
        store so warm-path accounting stays truthful).  Build ``key`` with
        :func:`lp_cache_key` so it matches what the algorithms request.
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


def rounding_lp(
    instance: SVGICInstance,
    fractional: Optional[FractionalSolution],
    context: Optional[SolveContext],
    **lp_options: Any,
) -> Tuple[FractionalSolution, Dict[str, Any]]:
    """The LP solution an LP-rounding algorithm rounds, and its ``info`` entries.

    That is ``fractional`` when given, else the caller's ``context``'s
    (``info`` then records ``lp_cache_hit``), else a throwaway context's.
    ``lp_options`` are :meth:`SolveContext.fractional`'s keywords.
    """
    if fractional is not None:
        return fractional, {}
    if context is None:
        return SolveContext(instance).fractional(**lp_options), {}
    fractional = context.fractional(**lp_options)
    return fractional, {"lp_cache_hit": context.last_fractional_was_hit}


# --------------------------------------------------------------------------- #
# Local search improver
# --------------------------------------------------------------------------- #
@dataclass
class StageOutcome:
    """Result of one :meth:`LocalSearchImprover.apply`: the configuration plus bookkeeping."""

    configuration: SAVGConfiguration
    info: Dict[str, Any] = field(default_factory=dict)


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


#: Display units one worklist scoring call hands to
#: :meth:`~repro.core.objective.DeltaEvaluator.probe_many`.  A unit that a
#: move dirties after it was scored is scored again, so smaller chunks waste
#: less work on busy passes and larger ones make fewer calls on quiet ones.
_SCORE_CHUNK = 64


class _CellWorklist:
    """The single-cell phase's don't-look worklist: one cached best move per unit.

    Units are the searched users' display units in scan order (users, then
    slots).  A clean unit's cached item and gain are what probing it now
    would give: the best candidate its row does not show and, under a size
    cap, whose ``(item, slot)`` subgroup has room (ties keep the lowest
    candidate index; ``-inf`` when no candidate is feasible).  Subgroup
    sizes are read from the evaluator's ``counts``.  :meth:`wrote` and
    :meth:`shift` mark dirty every unit a write can change, and
    :meth:`next_move` re-scores dirty units lazily, a chunk at a time from
    the scan cursor.
    """

    def __init__(
        self,
        evaluator: DeltaEvaluator,
        users: np.ndarray,
        candidates: np.ndarray,
        size_limit: Optional[int],
        tolerance: float,
    ) -> None:
        instance = evaluator.instance
        k = instance.num_slots
        self.evaluator = evaluator
        self.candidates = candidates
        self.size_limit = size_limit
        self.tolerance = tolerance
        self.units = np.stack([np.repeat(users, k), np.tile(np.arange(k), users.size)], axis=1)
        self.best = np.zeros(users.size * k, dtype=np.int64)
        self.gain = np.full(users.size * k, -np.inf)
        self.dirty = np.ones(users.size * k, dtype=bool)
        self._k = k
        self._position = np.full(instance.num_users, -1, dtype=np.int64)
        self._position[users] = np.arange(users.size)
        self._ptr, _, self._friends = instance.pair_incidence
        # The teleportation term reads the friends' whole rows.
        self._every_slot = isinstance(instance, SVGICSTInstance)

    def next_move(self, start: int) -> Optional[int]:
        """First unit at or after ``start`` whose best move gains more than the tolerance."""
        while start < self.dirty.size:
            open_units = self.dirty[start:] | (self.gain[start:] > self.tolerance)
            unit = start + int(np.argmax(open_units))
            if not open_units[unit - start]:
                return None
            if not self.dirty[unit]:
                return unit
            self._score(unit + np.flatnonzero(self.dirty[unit:])[:_SCORE_CHUNK])
            start = unit
        return None

    def _score(self, units: np.ndarray) -> None:
        """Cache the best feasible move of ``units`` from one probe pass."""
        evaluator, candidates = self.evaluator, self.candidates
        gains = evaluator.probe_many(self.units[units], candidates)
        users, slots = self.units[units, 0], self.units[units, 1]
        usable = ~shown_items(evaluator.assignment[users], evaluator.instance.num_items)[
            :, candidates
        ]
        if self.size_limit is not None:
            usable &= evaluator.counts[candidates[None, :], slots[:, None]] < self.size_limit
        gains = np.where(usable, gains, -np.inf)
        best = np.argmax(gains, axis=1)
        self.best[units] = candidates[best]
        self.gain[units] = gains[np.arange(units.size), best]
        self.dirty[units] = False

    def wrote(self, user: int, slot: int) -> None:
        """Mark dirty the units a write of cell ``(user, slot)`` can change.

        Those are the user's own units, whose row changed, and the searched
        friends' units at ``slot`` (at every slot on SVGIC-ST).
        """
        k = self._k
        position = self._position[user]
        if position >= 0:
            self.dirty[position * k : (position + 1) * k] = True
        friends = self._position[self._friends[self._ptr[user] : self._ptr[user + 1]]]
        first_units = friends[friends >= 0] * k
        if self._every_slot:
            self.dirty[(first_units[:, None] + np.arange(k)).ravel()] = True
        else:
            self.dirty[first_units + slot] = True

    def shift(self, old: int, new: int, slot: int) -> None:
        """Wake the units a write moving one ``slot`` member from ``old`` to ``new`` changes.

        Reads the counts after the write: a count that fell to the cap minus
        one frees ``old`` for every unit at ``slot``; a count that reached
        the cap takes ``new`` from the units whose cached best item it is.
        """
        cap, k = self.size_limit, self._k
        if cap is None:
            return
        counts = self.evaluator.counts
        if old != UNASSIGNED and counts[old, slot] == cap - 1:
            self.dirty[slot::k] = True
        if counts[new, slot] >= cap:
            at_slot = np.arange(slot, self.dirty.size, k)
            self.dirty[at_slot[self.best[at_slot] == new]] = True


class LocalSearchImprover:
    """2-opt local search over display units with delta-based move evaluation.

    Two move families are explored:

    * **single-cell swaps** — replace the item at one display unit
      ``(user, slot)`` by any item not yet displayed to that user
      (best-improvement: the units are visited in order, users then slots,
      and each executes its arg-max gain).  A don't-look worklist caches
      every unit's best feasible item and gain.  Only units a write marked
      dirty are re-scored: lazily, a chunk at a time from the scan cursor,
      all candidates of many units in one
      :meth:`~repro.core.objective.DeltaEvaluator.probe_many` NumPy pass.
      The next move is the first unit at or after the cursor whose cached
      gain beats ``tolerance``, so the moves are exactly those of a
      one-unit-at-a-time scan.  Every cell write, by any move family, marks
      dirty the writer's units, its friends' units at the written slot (at
      every slot on SVGIC-ST, where the teleportation term couples slots),
      and on capped instances every unit at that slot when an
      ``(item, slot)`` count drops from ``M`` to ``M - 1``, plus the units
      whose cached best item just reached ``M``;
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
    def _try_swap(
        self,
        evaluator: DeltaEvaluator,
        exchanges: _Exchanges,
        start: int,
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
                counts = evaluator.counts
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
        worklist: _CellWorklist,
        trace: List[float],
    ) -> int:
        """Scan ``exchanges`` in order, executing each gaining one; returns the moves."""
        size_limit = worklist.size_limit
        moves = 0
        hit = self._try_swap(evaluator, exchanges, 0, size_limit)
        while hit is not None:
            u1, s1 = int(exchanges.first_users[hit]), int(exchanges.first_slots[hit])
            u2, s2 = int(exchanges.second_users[hit]), int(exchanges.second_slots[hit])
            a, b = int(evaluator.assignment[u1, s1]), int(evaluator.assignment[u2, s2])
            evaluator.set_cell(u1, s1, b)
            evaluator.set_cell(u2, s2, a)
            worklist.wrote(u1, s1)
            worklist.wrote(u2, s2)
            if exchanges.pair_ids is None:  # same-slot exchanges leave the counts alone
                worklist.shift(a, b, s1)
                worklist.shift(b, a, s2)
            moves += 1
            trace.append(evaluator.total)
            hit = self._try_swap(evaluator, exchanges, hit + 1, size_limit)
        return moves

    # -- main loop -------------------------------------------------------- #
    def apply(
        self,
        instance: SVGICInstance,
        configuration: Optional[SAVGConfiguration],
        *,
        context: Optional[SolveContext] = None,
        evaluator: Optional[DeltaEvaluator] = None,
    ) -> StageOutcome:
        """Run the local search; see the class docstring.

        The default mode builds a private :class:`DeltaEvaluator` over
        ``configuration``.  **In-place mode** — pass ``evaluator=`` — runs
        the search directly on a caller-owned evaluator instead: moves mutate
        its assignment, subgroup counts and running total, ``configuration``
        is ignored (may be ``None``), and the from-scratch ``delta_drift``
        verification is skipped so the event hot path stays strictly
        incremental.  The churn engine repairs dynamic sessions this way,
        restricted via ``users=`` to the neighbourhood an event touched.

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
        candidates = self._candidate_items(instance, context)
        n, k = instance.num_users, instance.num_slots
        pairs = instance.pairs

        if self.users is None:
            searched = np.arange(n, dtype=np.int64)
            pair_iter = np.arange(pairs.shape[0], dtype=np.int64)
        else:
            if self.users.size and (self.users.min() < 0 or self.users.max() >= n):
                raise ValueError("users outside [0, num_users)")
            searched = self.users
            member = np.zeros(n, dtype=bool)
            member[self.users] = True
            pair_iter = np.flatnonzero(member[pairs[:, 0]] & member[pairs[:, 1]])
        worklist = _CellWorklist(evaluator, searched, candidates, size_limit, self.tolerance)

        if self.pairwise:
            # The exchange kernels' closed forms need rows that show each
            # item once; no move creates a repeat, so one check suffices.
            repeats = repeated_rows(evaluator.assignment[searched])
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
            pair_ids = np.repeat(pair_iter, k)
            pair_slots = np.tile(np.arange(k), pair_iter.size)
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
            unit = worklist.next_move(0)
            while unit is not None:
                user, slot = (int(value) for value in worklist.units[unit])
                item = int(worklist.best[unit])
                old = int(evaluator.assignment[user, slot])
                evaluator.set_cell(user, slot, item)
                worklist.wrote(user, slot)
                worklist.shift(old, item, slot)
                moves += 1
                improved = True
                trace.append(evaluator.total)
                unit = worklist.next_move(unit + 1)

            if self.pairwise:
                # Intra-user slot swaps, then friend-pair exchanges at one slot.
                for exchanges in (slot_swaps, pair_swaps):
                    accepted = self._exchange_phase(evaluator, exchanges, worklist, trace)
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


def with_local_search(
    instance: SVGICInstance,
    result: AlgorithmResult,
    *,
    context: Optional[SolveContext] = None,
) -> AlgorithmResult:
    """``result`` improved by a default :class:`LocalSearchImprover`.

    The search's wall time is added to ``seconds`` and recorded as
    ``info["stage_seconds"]``, its own info goes under
    ``info["stages"]["local_search"]``, and ``stages_applied`` gains
    ``"local_search"``; ``optimal`` and the provenance carry over.
    """
    improver = LocalSearchImprover()
    started = time.perf_counter()
    outcome = improver.apply(instance, result.configuration, context=context)
    seconds = time.perf_counter() - started
    return AlgorithmResult.from_configuration(
        result.algorithm,
        instance,
        outcome.configuration,
        result.seconds + seconds,
        optimal=result.optimal,
        info={**result.info, "stages": {improver.name: outcome.info}, "stage_seconds": seconds},
        stages_applied=result.stages_applied + (improver.name,),
        provenance=dict(result.provenance),
    )


__all__ = [
    "SolveContext",
    "instance_fingerprint",
    "lp_cache_key",
    "StageOutcome",
    "LocalSearchImprover",
    "with_local_search",
    "instance_size_limit",
    "rounding_lp",
]
