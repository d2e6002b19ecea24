"""AVG's per-user CSF rounding, kept as a test oracle.

This is AVG's randomized Co-display Subgroup Formation as it was before it
moved onto the dense rounding state of :class:`repro.core.avg.CSFState`:
per-user ``set`` s of shown items, ``(item, slot)`` dicts of ranked users,
counts and head pointers, and a locked-cell ``set``.  Every iteration walks
each cell's head pointer forward in Python.  ``tests/test_avg_equivalence.py``
pins the production rounding to this one: the same configuration, the same
statistics and the same final generator state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.greedy import greedy_complete
from repro.core.lp import FractionalSolution
from repro.core.problem import SVGICInstance
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class ReferenceCSFStatistics:
    """Bookkeeping of one CSF rounding pass."""

    iterations: int = 0
    idle_iterations: int = 0
    subgroups_formed: int = 0
    fallback_assignments: int = 0
    locked_cells: int = 0


class _RoundingState:
    """Mutable state shared by the CSF iterations of a single rounding pass."""

    def __init__(self, instance: SVGICInstance, size_limit: Optional[int]) -> None:
        self.instance = instance
        self.config = SAVGConfiguration.for_instance(instance)
        self.items_used: List[set] = [set() for _ in range(instance.num_users)]
        self.unfilled_per_user = np.full(instance.num_users, instance.num_slots, dtype=np.int64)
        self.size_limit = size_limit
        self.cell_counts: Dict[Tuple[int, int], int] = {}
        self.locked_cells: set = set()

    def slot_open(self, user: int, slot: int) -> bool:
        return self.config.assignment[user, slot] == UNASSIGNED

    def eligible(self, user: int, item: int, slot: int) -> bool:
        """User is eligible for (item, slot): slot open and item not yet shown to user."""
        return self.slot_open(user, slot) and item not in self.items_used[user]

    def assign(self, user: int, item: int, slot: int) -> None:
        self.config.assignment[user, slot] = item
        self.items_used[user].add(item)
        self.unfilled_per_user[user] -= 1
        if self.size_limit is not None:
            key = (item, slot)
            self.cell_counts[key] = self.cell_counts.get(key, 0) + 1
            if self.cell_counts[key] >= self.size_limit:
                self.locked_cells.add(key)

    def complete(self) -> bool:
        return bool(np.all(self.unfilled_per_user == 0))


def _ranked_users(values: np.ndarray) -> List[Tuple[float, int]]:
    """Users with positive LP mass as ``(value, user)`` pairs, decreasing.

    Ties are ordered by decreasing user id.
    """
    users = np.nonzero(values > 1e-12)[0]
    if users.size == 0:
        return []
    order = np.lexsort((-users, -values[users]))
    selected = users[order]
    return list(zip(values[selected].tolist(), selected.tolist()))


def _sorted_user_lists(
    instance: SVGICInstance, fractional: FractionalSolution
) -> Dict[Tuple[int, int], List[Tuple[float, int]]]:
    """For each (item, slot) with positive LP mass, users sorted by decreasing x*."""
    lists: Dict[Tuple[int, int], List[Tuple[float, int]]] = {}
    compact = fractional.compact_factors
    k = instance.num_slots
    positive_items = np.nonzero(compact.sum(axis=0) > 1e-12)[0]
    slot_independent = fractional.formulation in {"simplified", "sparse"}
    for item in positive_items:
        item = int(item)
        if slot_independent:
            ranked = _ranked_users(compact[:, item] / k)
            for slot in range(k):
                lists[(item, slot)] = ranked
        else:
            for slot in range(k):
                ranked = _ranked_users(fractional.slot_factors[:, item, slot])
                if ranked:
                    lists[(item, slot)] = ranked
    return lists


def reference_csf_rounding(
    instance: SVGICInstance,
    fractional: FractionalSolution,
    *,
    rng: SeedLike = None,
    advanced_sampling: bool = True,
    size_limit: Optional[int] = None,
    max_iterations: Optional[int] = None,
) -> Tuple[SAVGConfiguration, ReferenceCSFStatistics]:
    """One randomized CSF rounding pass over the fractional solution ``X*``.

    ``advanced_sampling=False`` runs the plain Algorithm-2 scheme for at most
    ``max_iterations`` iterations (default ``200 * n * k``) and then finishes
    with the advanced scheme; ``size_limit`` is the SVGIC-ST cap ``M``.
    """
    generator = ensure_rng(rng)
    stats = ReferenceCSFStatistics()
    state = _RoundingState(instance, size_limit)
    user_lists = _sorted_user_lists(instance, fractional)
    if max_iterations is None:
        max_iterations = 200 * instance.num_users * instance.num_slots

    if advanced_sampling:
        _advanced_sampling_loop(state, user_lists, generator, stats)
    else:
        _uniform_sampling_loop(state, user_lists, generator, stats, max_iterations)
        if not state.complete():
            _advanced_sampling_loop(state, user_lists, generator, stats)

    if not state.complete():
        before = int(np.count_nonzero(state.config.assignment == UNASSIGNED))
        greedy_complete(instance, state.config, size_limit=size_limit)
        stats.fallback_assignments += before
    stats.locked_cells = len(state.locked_cells)
    return state.config, stats


def _current_head(
    state: _RoundingState,
    key: Tuple[int, int],
    ranked: List[Tuple[float, int]],
    pointers: Dict[Tuple[int, int], int],
) -> Optional[float]:
    """Largest utility factor among users still eligible for ``key``; None if none."""
    item, slot = key
    ptr = pointers.get(key, 0)
    while ptr < len(ranked) and not state.eligible(ranked[ptr][1], item, slot):
        ptr += 1
    pointers[key] = ptr
    if ptr >= len(ranked):
        return None
    return ranked[ptr][0]


def _apply_csf(
    state: _RoundingState,
    key: Tuple[int, int],
    ranked: List[Tuple[float, int]],
    alpha: float,
    stats: ReferenceCSFStatistics,
) -> int:
    """Co-display the focal item to every eligible user with x* >= alpha; return #assigned."""
    item, slot = key
    assigned = 0
    for value, user in ranked:
        if value < alpha:
            break
        if key in state.locked_cells:
            break
        if not state.eligible(user, item, slot):
            continue
        state.assign(user, item, slot)
        assigned += 1
    if assigned:
        stats.subgroups_formed += 1
    return assigned


def _advanced_sampling_loop(
    state: _RoundingState,
    user_lists: Dict[Tuple[int, int], List[Tuple[float, int]]],
    generator: np.random.Generator,
    stats: ReferenceCSFStatistics,
) -> None:
    pointers: Dict[Tuple[int, int], int] = {}
    active_keys = [key for key in user_lists if key not in state.locked_cells]

    while not state.complete():
        keys: List[Tuple[int, int]] = []
        weights: List[float] = []
        still_active: List[Tuple[int, int]] = []
        for key in active_keys:
            if key in state.locked_cells:
                continue
            head = _current_head(state, key, user_lists[key], pointers)
            if head is None:
                continue
            still_active.append(key)
            keys.append(key)
            weights.append(head)
        active_keys = still_active
        if not keys:
            return
        weight_arr = np.asarray(weights, dtype=float)
        probabilities = weight_arr / weight_arr.sum()
        choice = int(generator.choice(len(keys), p=probabilities))
        key = keys[choice]
        alpha = float(generator.uniform(0.0, weight_arr[choice]))
        alpha = max(alpha, 1e-15)
        stats.iterations += 1
        assigned = _apply_csf(state, key, user_lists[key], alpha, stats)
        if assigned == 0:
            stats.idle_iterations += 1


def _uniform_sampling_loop(
    state: _RoundingState,
    user_lists: Dict[Tuple[int, int], List[Tuple[float, int]]],
    generator: np.random.Generator,
    stats: ReferenceCSFStatistics,
    max_iterations: int,
) -> None:
    instance = state.instance
    keys = list(user_lists.keys())
    if not keys:
        return
    while not state.complete() and stats.iterations < max_iterations:
        stats.iterations += 1
        item = int(generator.integers(0, instance.num_items))
        slot = int(generator.integers(0, instance.num_slots))
        alpha = float(generator.uniform(0.0, 1.0))
        alpha = max(alpha, 1e-15)
        key = (item, slot)
        ranked = user_lists.get(key)
        if ranked is None or key in state.locked_cells:
            stats.idle_iterations += 1
            continue
        assigned = _apply_csf(state, key, ranked, alpha, stats)
        if assigned == 0:
            stats.idle_iterations += 1


__all__ = ["ReferenceCSFStatistics", "reference_csf_rounding"]
