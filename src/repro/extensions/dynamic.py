"""Dynamic scenario (Section 5F): users join and leave the VR store over time.

Re-running the full AVG pipeline on every arrival is wasteful; the paper's
suggestion is to keep the existing configuration, update the utility factors
only locally, and assign the new user greedily to existing target subgroups
(with an optional local-search exchange step).  :class:`DynamicSession`
implements that incremental policy on top of the vectorized numeric core:

* the session owns a :class:`~repro.core.objective.DeltaEvaluator` whose
  assignment holds the **active** users only (inactive rows are cleared), so
  the running utility — including the SVGIC-ST teleportation term — is
  maintained by event deltas and is **never recomputed from scratch** on the
  hot path (``current_utility()`` is ``O(1)``);
* ``add_user`` ranks all items per slot with one
  :meth:`~repro.core.objective.DeltaEvaluator.direct_gains` batched probe
  (``O(deg(user) + m)`` instead of the scalar ``O(m * |E|)`` loop), subject
  to no-duplication and the subgroup-size cap tracked in an incrementally
  maintained ``(m, k)`` count grid;
* ``remove_user`` clears the user's display units from the evaluator in
  ``O(deg(user) * k^2)``; her configuration row is kept (stale) so a later
  rejoin starts from the same state the scalar semantics prescribe;
* ``update_preference`` drifts one user's preference row through
  :meth:`~repro.core.objective.DeltaEvaluator.update_preference_row`
  (``O(k)`` on the running total, copy-on-write on the table);
* ``local_search`` is the single-user exchange pass, with each slot's
  candidate scan batched into one gain vector.

The original scalar implementation survives as
:class:`repro.extensions.dynamic_reference.ReferenceDynamicSession`, demoted
to a test oracle; ``tests/test_dynamic_incremental.py`` pins the two to 1e-9
across join/leave/drift traces on SVGIC and SVGIC-ST instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.objective import DeltaEvaluator, total_utility
from repro.core.pipeline import SolveContext
from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.core.registry import register_algorithm
from repro.core.result import AlgorithmResult


@dataclass
class DynamicEvent:
    """One join/leave/drift event recorded by the session.

    ``skipped_slots`` lists display slots a join could not fill because every
    unused item was cap-saturated (the slot stays ``UNASSIGNED``).
    """

    kind: str  # "join", "leave" or "drift"
    user: int
    utility_after: float
    skipped_slots: Tuple[int, ...] = ()


def check_session_inputs(
    instance: SVGICInstance,
    configuration: SAVGConfiguration,
    active: Optional[np.ndarray],
) -> np.ndarray:
    """Validate a session's initial configuration; returns the active mask.

    With ``active=None`` (all users active) the configuration must be fully
    valid.  With a mask, only active rows must be complete and duplicate-free
    — inactive rows are ignored (the incremental session clears them from its
    evaluator).
    """
    if configuration.assignment.shape != (instance.num_users, instance.num_slots):
        raise ValueError(
            f"configuration shape {configuration.assignment.shape} does not match "
            f"instance ({instance.num_users}, {instance.num_slots})"
        )
    if active is None:
        configuration.validate(instance)
        return np.ones(instance.num_users, dtype=bool)
    active = np.asarray(active, dtype=bool).copy()
    if active.shape != (instance.num_users,):
        raise ValueError(
            f"active mask must have shape ({instance.num_users},), got {active.shape}"
        )
    rows = configuration.assignment[active]
    if np.any(rows == UNASSIGNED):
        raise ValueError("active users must start with fully assigned rows")
    for row in rows:
        if np.unique(row).size != row.size:
            raise ValueError("active users violate the no-duplication constraint")
    return active


def _active_cell_counts(assignment: np.ndarray, num_items: int) -> np.ndarray:
    """``(m, k)`` subgroup sizes of an (active-masked) assignment array."""
    num_slots = assignment.shape[1]
    counts = np.zeros((num_items, num_slots), dtype=np.int64)
    mask = assignment != UNASSIGNED
    slots = np.broadcast_to(np.arange(num_slots), assignment.shape)[mask]
    np.add.at(counts, (assignment[mask], slots), 1)
    return counts


class DynamicSession:
    """Incremental maintenance of an SAVG configuration under user churn.

    Parameters
    ----------
    instance:
        The full-universe instance (joined and not-yet-joined users alike).
    configuration:
        Initial assignment; rows of inactive users are ignored.
    active:
        Optional boolean mask of initially active users (default: all).
    """

    def __init__(
        self,
        instance: SVGICInstance,
        configuration: SAVGConfiguration,
        *,
        active: Optional[np.ndarray] = None,
    ) -> None:
        active = check_session_inputs(instance, configuration, active)
        self.instance = instance
        self.configuration = configuration.copy()
        self.active = active
        self.events: List[DynamicEvent] = []
        self.full_recomputes = 0

        masked = self.configuration.assignment.copy()
        masked[~active] = UNASSIGNED
        self.evaluator = DeltaEvaluator(
            instance, SAVGConfiguration(assignment=masked, num_items=instance.num_items)
        )
        self._counts = _active_cell_counts(self.evaluator.assignment, instance.num_items)

    # ------------------------------------------------------------------ #
    @property
    def size_limit(self) -> Optional[int]:
        if isinstance(self.instance, SVGICSTInstance):
            return self.instance.max_subgroup_size
        return None

    @property
    def counts(self) -> np.ndarray:
        """Incrementally maintained ``(m, k)`` active subgroup sizes."""
        return self._counts

    def current_utility(self) -> float:
        """Total SAVG utility of the active users — ``O(1)``, never re-evaluated."""
        return float(self.evaluator.total)

    def recompute_utility(self) -> float:
        """From-scratch recompute of the active-subgroup utility (verification only).

        Builds the active subgroup instance and evaluates it — the oracle
        computation :meth:`current_utility` is pinned against in the tests.
        Counts into ``full_recomputes`` so callers can assert the hot path
        stayed incremental.
        """
        from dataclasses import replace

        self.full_recomputes += 1
        active_ids = np.nonzero(self.active)[0]
        base = self.instance
        if self.evaluator.preference_drifted:
            base = replace(self.instance, preference=self.evaluator.preference_table)
        sub_instance, mapping = base.subgroup_instance([int(u) for u in active_ids])
        sub_config = SAVGConfiguration(
            assignment=self.configuration.assignment[mapping],
            num_items=self.instance.num_items,
        )
        return total_utility(sub_instance, sub_config)

    # ------------------------------------------------------------------ #
    def _apply_cell(self, user: int, slot: int, item: int) -> None:
        """Write one cell through the evaluator, the counts and the configuration."""
        old = int(self.evaluator.assignment[user, slot])
        if old == item:
            return
        self.evaluator.set_cell(user, slot, item)
        if old != UNASSIGNED:
            self._counts[old, slot] -= 1
        if item != UNASSIGNED:
            self._counts[item, slot] += 1
        self.configuration.assignment[user, slot] = item

    def _clear_active_row(self, user: int) -> None:
        """Remove the user's display units from the evaluator and the counts."""
        row = self.evaluator.assignment[user]
        for slot in range(self.instance.num_slots):
            item = int(row[slot])
            if item != UNASSIGNED:
                self._counts[item, slot] -= 1
        self.evaluator.clear_row(user)

    # ------------------------------------------------------------------ #
    def add_user(self, user: int) -> None:
        """(Re-)activate ``user`` and assign her k items greedily.

        Each slot takes the feasible item with the largest direct marginal
        gain (one batched :meth:`~repro.core.objective.DeltaEvaluator.direct_gains`
        probe per slot).  Slots with no feasible item — every unused item
        cap-saturated — are skipped explicitly (left ``UNASSIGNED`` and
        recorded on the event) rather than silently assigned ``-1``.
        """
        user = int(user)
        if self.active[user] and not np.any(self.configuration.assignment[user] == UNASSIGNED):
            raise ValueError(f"user {user} is already active and fully assigned")
        if self.active[user]:
            self._clear_active_row(user)
        self.active[user] = True
        self.configuration.assignment[user, :] = UNASSIGNED
        limit = self.size_limit
        used: List[int] = []
        skipped: List[int] = []
        for slot in range(self.instance.num_slots):
            feasible = np.ones(self.instance.num_items, dtype=bool)
            if used:
                feasible[used] = False
            if limit is not None:
                feasible &= self._counts[:, slot] < limit
            if not feasible.any():
                skipped.append(slot)
                continue
            gains = self.evaluator.direct_gains(user, slot)
            item = int(np.argmax(np.where(feasible, gains, -np.inf)))
            self._apply_cell(user, slot, item)
            used.append(item)
        self.events.append(
            DynamicEvent("join", user, self.current_utility(), tuple(skipped))
        )

    def remove_user(self, user: int) -> None:
        """Deactivate ``user`` (she leaves the store).

        Her configuration row is kept — stale — for inspection and rejoin
        parity with the scalar reference; the evaluator and the subgroup
        counts drop her display units, so the running utility reflects the
        active users only.
        """
        user = int(user)
        if not self.active[user]:
            raise ValueError(f"user {user} is not active")
        self._clear_active_row(user)
        self.active[user] = False
        self.events.append(DynamicEvent("leave", user, self.current_utility()))

    def update_preference(self, user: int, values: Sequence[float]) -> None:
        """Drift ``user``'s preference row to ``values`` (preference-update event).

        ``O(k)`` on the running total; works for inactive users too (their
        drift takes effect when they rejoin).
        """
        user = int(user)
        self.evaluator.update_preference_row(user, np.asarray(values, dtype=float))
        self.events.append(DynamicEvent("drift", user, self.current_utility()))

    # ------------------------------------------------------------------ #
    def local_search(self, user: int, *, max_rounds: int = 2) -> bool:
        """Improve ``user``'s assignment by single-slot exchanges; returns True if improved.

        Matches the scalar reference's semantics — a slot switches to the
        feasible item whose direct marginal gain beats the current item's by
        more than 1e-12 (an ``UNASSIGNED`` slot always accepts the best
        feasible item) — with each slot's candidate scan batched into one
        gain vector.  Gains depend only on *other* users' cells, so the
        vectors are computed once per slot and reused across rounds.
        """
        user = int(user)
        if not self.active[user]:
            raise ValueError(f"user {user} is not active")
        limit = self.size_limit
        k = self.instance.num_slots
        gains_by_slot = [self.evaluator.direct_gains(user, s) for s in range(k)]
        improved_any = False
        for _ in range(max_rounds):
            improved = False
            for slot in range(k):
                gains = gains_by_slot[slot]
                row = self.evaluator.assignment[user]
                current = int(row[slot])
                current_gain = gains[current] if current != UNASSIGNED else -np.inf
                feasible = np.ones(self.instance.num_items, dtype=bool)
                feasible[row[row != UNASSIGNED]] = False
                if limit is not None:
                    feasible &= self._counts[:, slot] < limit
                if not feasible.any():
                    continue
                masked = np.where(feasible, gains, -np.inf)
                best = int(np.argmax(masked))
                if masked[best] > current_gain + 1e-12:
                    self._apply_cell(user, slot, best)
                    improved = True
                    improved_any = True
            if not improved:
                break
        return improved_any

    def apply_improver(self, improver) -> Dict[str, object]:
        """Run a :class:`~repro.core.pipeline.LocalSearchImprover` **in place**.

        The improver shares this session's evaluator and subgroup counts, so
        its moves keep the running utility and the size-cap bookkeeping
        consistent without any from-scratch evaluation; affected
        configuration rows are synced afterwards.  Restrict the improver with
        ``users=`` to repair only the neighbourhood an event touched.
        """
        if improver.users is None:
            # An unrestricted improver would fill inactive users' cleared rows;
            # callers wanting a full pass should restrict to the active set.
            raise ValueError(
                "apply_improver requires an improver restricted with users= "
                "(e.g. np.nonzero(session.active)[0])"
            )
        outcome = improver.apply(
            self.instance,
            None,
            evaluator=self.evaluator,
            counts=self._counts if self.size_limit is not None else None,
        )
        sync = np.asarray(improver.users, dtype=np.int64)
        self.configuration.assignment[sync] = self.evaluator.assignment[sync]
        return outcome.info

    def teleport_suggestions(self, user: int) -> List[Tuple[int, int, int]]:
        """Friends this user could teleport to: (friend, item, friend's slot) for indirect co-displays."""
        suggestions: List[Tuple[int, int, int]] = []
        if not self.active[user]:
            return suggestions
        my_items = {
            int(c): s
            for s, c in enumerate(self.configuration.assignment[user])
            if int(c) != UNASSIGNED
        }
        for friend in self.instance.neighbors[user]:
            if not self.active[friend]:
                continue
            for slot in range(self.instance.num_slots):
                item = int(self.configuration.assignment[friend, slot])
                if item != UNASSIGNED and item in my_items and my_items[item] != slot:
                    suggestions.append((int(friend), item, slot))
        return suggestions


@register_algorithm(
    "AVG-D+dynamic",
    tags=("extension",),
    description="AVG-D refined by the dynamic-session single-user exchange pass (5F)",
)
def _run_dynamic_variant(
    instance: SVGICInstance,
    *,
    context: Optional[SolveContext] = None,
    rng: object = None,
    max_rounds: int = 1,
    **options: object,
) -> AlgorithmResult:
    """Registry adapter: AVG-D plus one incremental local-search round per user."""
    from repro.core.avg_d import run_avg_d

    start = time.perf_counter()
    base = run_avg_d(instance, context=context, **options)
    session = DynamicSession(instance, base.configuration)
    improved_users = 0
    for user in range(instance.num_users):
        if session.local_search(user, max_rounds=max_rounds):
            improved_users += 1
    return AlgorithmResult.from_configuration(
        "AVG-D+dynamic",
        instance,
        session.configuration,
        time.perf_counter() - start,
        info={**base.info, "improved_users": improved_users},
    )


__all__ = ["DynamicSession", "DynamicEvent", "check_session_inputs"]
