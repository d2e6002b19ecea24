"""Scalar reference implementation of the dynamic churn session (test oracle).

This module preserves the original per-edge, per-item Python loops of the
Section-5F dynamic session, demoted — like :mod:`oracles.objective_reference`
and :mod:`oracles.assembly_reference` — to an equivalence-testing oracle
for the vectorized :class:`repro.extensions.dynamic.DynamicSession`.  Every
event utility here is recomputed **from scratch** over a rebuilt active
subgroup instance, and every marginal gain walks the full directed edge list;
the incremental session must match it to 1e-9 across join/leave/drift traces
(``tests/test_dynamic_incremental.py``) while paying ``O(deg)`` per event.

Semantics shared with the incremental session (and pinned by the tests):

* ``add_user`` greedily fills slots by direct marginal gain (preference plus
  the pair social mass of same-slot co-displays; the teleportation term is
  *not* part of the greedy score, matching the paper's local policy), subject
  to no-duplication and the ST subgroup-size cap.  When **no** feasible item
  exists for a slot (every unused item cap-saturated), the slot is skipped
  explicitly — left ``UNASSIGNED`` and recorded on the event — instead of the
  historical behaviour of silently writing ``-1`` and polluting the used-item
  set with it.
* ``remove_user`` deactivates the user; her configuration row is kept (stale)
  but excluded from every utility and gain computation.
* ``update_preference`` drifts one user's preference row; the session owns a
  copy-on-write preference table so the frozen instance is never mutated.
* ``local_search`` re-assigns a user's slots to the best feasible item when
  it beats the current item's marginal gain by more than 1e-12; an
  ``UNASSIGNED`` slot counts as gain ``-inf`` so feasible items always fill it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.objective import total_utility
from repro.core.problem import SVGICInstance, SVGICSTInstance


class ReferenceDynamicSession:
    """Scalar incremental maintenance of an SAVG configuration under churn."""

    def __init__(
        self,
        instance: SVGICInstance,
        configuration: SAVGConfiguration,
        *,
        active: Optional[np.ndarray] = None,
    ) -> None:
        from repro.extensions.dynamic import DynamicEvent, check_session_inputs

        self._event_cls = DynamicEvent
        active = check_session_inputs(instance, configuration, active)
        self.instance = instance
        self.configuration = configuration.copy()
        self.active = active
        self.events: List = []
        self._preference = instance.preference
        self._drifted = False

    # ------------------------------------------------------------------ #
    @property
    def size_limit(self) -> Optional[int]:
        if isinstance(self.instance, SVGICSTInstance):
            return self.instance.max_subgroup_size
        return None

    def _cell_count(self, item: int, slot: int) -> int:
        column = self.configuration.assignment[self.active, slot]
        return int(np.count_nonzero(column == item))

    def _base_instance(self) -> SVGICInstance:
        if not self._drifted:
            return self.instance
        return replace(self.instance, preference=self._preference)

    def current_utility(self) -> float:
        """Total SAVG utility restricted to the currently active users.

        Recomputed from scratch over a rebuilt subgroup instance — the
        expensive oracle path the incremental session's running total is
        pinned against.
        """
        active_ids = [int(u) for u in np.nonzero(self.active)[0]]
        sub_instance, mapping = self._base_instance().subgroup_instance(active_ids)
        sub_config = SAVGConfiguration(
            assignment=self.configuration.assignment[mapping], num_items=self.instance.num_items
        )
        return total_utility(sub_instance, sub_config)

    # ------------------------------------------------------------------ #
    def _marginal_gain(self, user: int, item: int, slot: int) -> float:
        """Marginal SAVG utility of showing ``item`` to ``user`` at ``slot`` right now."""
        lam = self.instance.social_weight
        gain = (1.0 - lam) * float(self._preference[user, item])
        for e in range(self.instance.num_edges):
            u, v = int(self.instance.edges[e, 0]), int(self.instance.edges[e, 1])
            if not (self.active[u] and self.active[v]):
                continue
            if u == user and self.configuration.assignment[v, slot] == item:
                gain += lam * float(self.instance.social[e, item])
            elif v == user and self.configuration.assignment[u, slot] == item:
                # The friend also gains utility from the new co-display.
                gain += lam * float(self.instance.social[e, item])
        return gain

    def add_user(self, user: int) -> None:
        """(Re-)activate ``user`` and assign her k items greedily."""
        if self.active[user] and not np.any(self.configuration.assignment[user] == UNASSIGNED):
            raise ValueError(f"user {user} is already active and fully assigned")
        self.active[user] = True
        self.configuration.assignment[user, :] = UNASSIGNED
        used: set = set()
        skipped: List[int] = []
        for slot in range(self.instance.num_slots):
            best_item, best_gain = -1, -np.inf
            for item in range(self.instance.num_items):
                if item in used:
                    continue
                if self.size_limit is not None and self._cell_count(item, slot) >= self.size_limit:
                    continue
                gain = self._marginal_gain(user, item, slot)
                if gain > best_gain:
                    best_gain, best_item = gain, item
            if best_item < 0:
                # No feasible item (all unused items cap-saturated): skip the
                # slot explicitly rather than recording -1 as an item.
                skipped.append(slot)
                continue
            self.configuration.assignment[user, slot] = best_item
            used.add(best_item)
        self.events.append(
            self._event_cls("join", user, self.current_utility(), tuple(skipped))
        )

    def remove_user(self, user: int) -> None:
        """Deactivate ``user`` (she leaves the store)."""
        if not self.active[user]:
            raise ValueError(f"user {user} is not active")
        self.active[user] = False
        self.events.append(self._event_cls("leave", user, self.current_utility()))

    def update_preference(self, user: int, values: Sequence[float]) -> None:
        """Drift ``user``'s preference row to ``values`` (preference-update event)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.instance.num_items,):
            raise ValueError(
                f"values must have shape ({self.instance.num_items},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("preference values must be finite and non-negative")
        if not self._drifted:
            self._preference = self.instance.preference.copy()
            self._drifted = True
        self._preference[user] = values
        self.events.append(self._event_cls("drift", user, self.current_utility()))

    # ------------------------------------------------------------------ #
    def local_search(self, user: int, *, max_rounds: int = 2) -> bool:
        """Improve ``user``'s assignment by single-slot exchanges; returns True if improved."""
        if not self.active[user]:
            raise ValueError(f"user {user} is not active")
        improved_any = False
        for _ in range(max_rounds):
            improved = False
            for slot in range(self.instance.num_slots):
                current_item = int(self.configuration.assignment[user, slot])
                current_gain = (
                    self._marginal_gain(user, current_item, slot)
                    if current_item != UNASSIGNED
                    else -np.inf
                )
                used = set(int(c) for c in self.configuration.assignment[user]) - {current_item}
                for item in range(self.instance.num_items):
                    if item == current_item or item in used:
                        continue
                    if (
                        self.size_limit is not None
                        and self._cell_count(item, slot) >= self.size_limit
                    ):
                        continue
                    gain = self._marginal_gain(user, item, slot)
                    if gain > current_gain + 1e-12:
                        self.configuration.assignment[user, slot] = item
                        current_item, current_gain = item, gain
                        improved = True
                        improved_any = True
            if not improved:
                break
        return improved_any

    def teleport_suggestions(self, user: int) -> List[Tuple[int, int, int]]:
        """Friends this user could teleport to: (friend, item, friend's slot) for indirect co-displays."""
        suggestions: List[Tuple[int, int, int]] = []
        if not self.active[user]:
            return suggestions
        my_items = {int(c): s for s, c in enumerate(self.configuration.assignment[user])}
        for friend in self.instance.neighbors[user]:
            if not self.active[friend]:
                continue
            for slot in range(self.instance.num_slots):
                item = int(self.configuration.assignment[friend, slot])
                if item in my_items and my_items[item] != slot:
                    suggestions.append((int(friend), item, slot))
        return suggestions


__all__ = ["ReferenceDynamicSession"]
