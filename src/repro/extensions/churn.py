"""Warm-start incremental re-optimization under churn (the churn engine).

:class:`ChurnEngine` layers a *re-solve policy* on top of the incremental
:class:`~repro.extensions.dynamic.DynamicSession`:

* every join/leave/preference-drift event is absorbed incrementally by the
  session and then *repaired* by a
  :class:`~repro.core.pipeline.LocalSearchImprover` restricted to the users
  the event actually touched (the event user plus her active neighbours),
  running **in place** on the session's evaluator — no from-scratch
  evaluation anywhere on the event path;
* the engine tracks how far the incumbent utility has degraded relative to
  the LP upper bound cached in the re-solve's
  :class:`~repro.core.pipeline.SolveContext`.  Because the active set (and
  hence the true bound) moves with every event, the cached bound is scaled
  by the ratio of per-user optimistic bounds
  (:func:`repro.core.objective.optimistic_user_upper_bound`) between *now*
  and *re-solve time* — an ``O(1)``-per-event estimate (``O(m log m)`` on
  drift, to re-rank one user's row).  When the estimated optimality gap has
  widened past ``ResolvePolicy.degradation_threshold`` (and at least
  ``min_events_between_resolves`` events have passed), the engine performs a
  full re-solve of the active subgroup, warm-started through the attached
  :class:`~repro.store.ArtifactStore` so repeated solves of recurring active
  sets pay the LP once.

Preference drift survives re-solves: the rebuilt subgroup instance reads the
session evaluator's copy-on-write preference table, so a re-solve optimizes
against the drifted tastes without ever mutating the frozen base instance.

:func:`solve_active` is the shared "solve the active subgroup and scatter
back" primitive; the full-re-solve-per-event baseline in
``benchmarks/bench_dynamic_churn.py`` is exactly one :func:`solve_active`
per event, making the engine-vs-baseline comparison apples-to-apples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.objective import optimistic_user_upper_bound
from repro.core.pipeline import LocalSearchImprover, SolveContext
from repro.core.problem import SVGICInstance
from repro.core.registry import run_registered
from repro.data.churn import DRIFT, JOIN, LEAVE, ChurnEvent, ChurnTrace
from repro.extensions.dynamic import DynamicSession


@dataclass(frozen=True)
class ResolvePolicy:
    """Knobs of the warm-start re-solve trigger and the per-event repair.

    Attributes
    ----------
    degradation_threshold:
        Trigger a full re-solve when the estimated optimality gap has widened
        by more than this fraction of the bound since the last re-solve
        (``0.05`` = five percentage points of bound).  ``inf`` disables
        re-solves entirely (pure incremental maintenance).
    min_events_between_resolves:
        Never re-solve more often than this many events — the guard that
        keeps a noisy gap estimate from degenerating into re-solve-per-event.
    repair_max_passes:
        ``max_passes`` of the per-event neighbourhood repair; ``0`` disables
        repair (pure greedy session maintenance).
    repair_pairwise:
        Whether the repair explores pairwise exchanges too (slower, stronger).
    repair_max_items:
        Candidate-item cap forwarded to the repair improver (``None`` = all).
    """

    degradation_threshold: float = 0.05
    min_events_between_resolves: int = 10
    repair_max_passes: int = 1
    repair_pairwise: bool = False
    repair_max_items: Optional[int] = None

    def __post_init__(self) -> None:
        if self.degradation_threshold < 0:
            raise ValueError("degradation_threshold must be non-negative")
        if self.min_events_between_resolves < 1:
            raise ValueError("min_events_between_resolves must be >= 1")
        if self.repair_max_passes < 0:
            raise ValueError("repair_max_passes must be non-negative")


@dataclass
class ChurnTick:
    """Per-event engine telemetry: what happened and what it cost."""

    index: int
    kind: str
    user: int
    action: str  # "incremental" or "resolve"
    utility: float
    bound_estimate: float
    gap_estimate: float
    seconds: float
    repair_moves: int = 0


def solve_active(
    instance: SVGICInstance,
    active: np.ndarray,
    *,
    algorithm: str = "AVG-D",
    preference: Optional[np.ndarray] = None,
    store: Optional[Any] = None,
    previous_assignment: Optional[np.ndarray] = None,
    **algorithm_options: Any,
) -> Tuple[SAVGConfiguration, float, Optional[SolveContext]]:
    """Solve the active subgroup from scratch and scatter into a full-universe config.

    Returns ``(configuration, active_utility, context)`` where
    ``configuration`` has the solved rows for active users and either the
    ``previous_assignment`` rows (stale, session-style) or ``UNASSIGNED``
    elsewhere.  ``preference`` optionally overrides the instance's table
    (drift support); ``store`` is given to the solve's
    :class:`SolveContext` so the LP is warm-started across recurring active
    sets.  ``context`` is ``None`` when no user is active.
    """
    active = np.asarray(active, dtype=bool)
    n, k = instance.num_users, instance.num_slots
    if previous_assignment is not None:
        assignment = previous_assignment.copy()
    else:
        assignment = np.full((n, k), UNASSIGNED, dtype=np.int64)
    base = instance if preference is None else replace(instance, preference=preference)
    if not active.any():
        return SAVGConfiguration(assignment=assignment, num_items=instance.num_items), 0.0, None
    active_ids = np.nonzero(active)[0]
    sub_instance, mapping = base.subgroup_instance([int(u) for u in active_ids])
    context = SolveContext(sub_instance, store=store)
    result = run_registered(algorithm, sub_instance, context=context, **algorithm_options)
    assignment[mapping] = result.configuration.assignment
    config = SAVGConfiguration(assignment=assignment, num_items=instance.num_items)
    return config, float(result.objective), context


class ChurnEngine:
    """Incremental churn maintenance with a warm-start re-solve safety net.

    Parameters
    ----------
    instance:
        The full user universe (active and potential users alike).
    initial_active:
        Boolean mask of the initially present users.
    algorithm:
        Registry name solved at (re-)solve time (default ``"AVG-D"``).
    policy:
        The :class:`ResolvePolicy`; default knobs suit interactive stores.
    store:
        Optional :class:`~repro.store.ArtifactStore` (anything with
        ``load_lp``/``save_lp``) warm-starting every re-solve's LP.
    algorithm_options:
        Extra keyword arguments for ``algorithm`` at every (re-)solve.
    """

    def __init__(
        self,
        instance: SVGICInstance,
        initial_active: np.ndarray,
        *,
        algorithm: str = "AVG-D",
        policy: Optional[ResolvePolicy] = None,
        store: Optional[Any] = None,
        **algorithm_options: Any,
    ) -> None:
        self.instance = instance
        self.algorithm = algorithm
        self.policy = policy or ResolvePolicy()
        self.store = store
        self._algorithm_options = dict(algorithm_options)
        # Per-user optimistic bounds over the *undrifted* instance; drift
        # events re-rank only the affected user's row.
        self._user_bounds = optimistic_user_upper_bound(instance)
        self._social_bound_part: Optional[np.ndarray] = None
        self.ticks: List[ChurnTick] = []
        self.resolves = 0
        self.repair_moves = 0
        self.lp_bound: Optional[float] = None
        self._events_since_resolve = 0
        self.session: DynamicSession = self._resolve(
            np.asarray(initial_active, dtype=bool), preference=None, previous=None
        )

    # ------------------------------------------------------------------ #
    def _resolve(
        self,
        active: np.ndarray,
        *,
        preference: Optional[np.ndarray],
        previous: Optional[np.ndarray],
    ) -> DynamicSession:
        """Full warm-started re-solve of the active subgroup → fresh session."""
        config, utility, context = solve_active(
            self.instance,
            active,
            algorithm=self.algorithm,
            preference=preference,
            store=self.store,
            previous_assignment=previous,
            **self._algorithm_options,
        )
        self.resolves += 1
        self._events_since_resolve = 0
        base = (
            self.instance
            if preference is None
            else replace(self.instance, preference=preference)
        )
        session = DynamicSession(base, config, active=active.copy())
        # Reference state for the degradation trigger: the LP bound cached by
        # the solve (peeked, never re-solved) and the per-user bound mass it
        # corresponds to.
        self.lp_bound = None if context is None else context.peek_lp_bound()
        self._bound_mass_at_resolve = self._active_bound_mass(active)
        self._utility_at_resolve = utility
        self._gap_at_resolve = self._gap(utility, self._bound_estimate(active))
        return session

    def _active_bound_mass(self, active: np.ndarray) -> float:
        return float(self._user_bounds[active].sum())

    def _bound_estimate(self, active: np.ndarray) -> float:
        """The cached LP bound scaled to the current active set (heuristic)."""
        mass = self._active_bound_mass(active)
        if self.lp_bound is None:
            return mass
        if self._bound_mass_at_resolve <= 0:
            return float(self.lp_bound)
        return float(self.lp_bound) * (mass / self._bound_mass_at_resolve)

    @staticmethod
    def _gap(utility: float, bound: float) -> float:
        if bound <= 0:
            return 0.0
        return max(0.0, (bound - utility) / bound)

    def _refresh_user_bound(self, user: int) -> None:
        """Re-rank one user's optimistic bound after a preference drift."""
        instance = self.instance
        lam = instance.social_weight
        if self._social_bound_part is None:
            part = np.zeros((instance.num_users, instance.num_items), dtype=float)
            if instance.num_edges:
                np.add.at(part, instance.edges[:, 0], instance.social)
            self._social_bound_part = part
        w_bar = (
            (1.0 - lam) * self.session.evaluator.preference_table[user]
            + lam * self._social_bound_part[user]
        )
        k = instance.num_slots
        top_k = np.partition(w_bar, instance.num_items - k)[instance.num_items - k:]
        self._user_bounds[user] = float(top_k.sum())

    # ------------------------------------------------------------------ #
    def _repair(self, users: np.ndarray) -> int:
        """In-place neighbourhood repair; returns the number of accepted moves."""
        if self.policy.repair_max_passes == 0 or users.size == 0:
            return 0
        improver = LocalSearchImprover(
            max_passes=self.policy.repair_max_passes,
            pairwise=self.policy.repair_pairwise,
            max_items=self.policy.repair_max_items,
            users=users,
        )
        info = self.session.apply_improver(improver)
        moves = int(info.get("moves", 0))
        self.repair_moves += moves
        return moves

    def _affected_users(self, user: int, *, include_self: bool) -> np.ndarray:
        neighbours = [
            int(v) for v in self.instance.neighbors[user] if self.session.active[v]
        ]
        if include_self and self.session.active[user]:
            neighbours.append(int(user))
        return np.unique(np.asarray(neighbours, dtype=np.int64))

    def apply_event(self, event: ChurnEvent) -> ChurnTick:
        """Absorb one churn event: incremental session update + local repair,
        escalating to a warm-started full re-solve when the policy fires."""
        started = time.perf_counter()
        session = self.session
        if event.kind == JOIN:
            session.add_user(event.user)
        elif event.kind == LEAVE:
            session.remove_user(event.user)
        elif event.kind == DRIFT:
            session.update_preference(event.user, event.preference)
            self._refresh_user_bound(event.user)
        else:  # pragma: no cover - ChurnEvent validates kinds
            raise ValueError(f"unknown churn event kind {event.kind!r}")

        moves = self._repair(
            self._affected_users(event.user, include_self=event.kind != LEAVE)
        )
        self._events_since_resolve += 1

        utility = session.current_utility()
        bound = self._bound_estimate(session.active)
        gap = self._gap(utility, bound)
        action = "incremental"
        if (
            np.isfinite(self.policy.degradation_threshold)
            and self._events_since_resolve >= self.policy.min_events_between_resolves
            and gap - self._gap_at_resolve > self.policy.degradation_threshold
        ):
            action = "resolve"
            evaluator = session.evaluator
            self.session = self._resolve(
                session.active,
                preference=(
                    evaluator.preference_table if evaluator.preference_drifted else None
                ),
                previous=session.configuration.assignment,
            )
            utility = self.session.current_utility()
            bound = self._bound_estimate(self.session.active)
            gap = self._gap(utility, bound)

        tick = ChurnTick(
            index=len(self.ticks),
            kind=event.kind,
            user=int(event.user),
            action=action,
            utility=utility,
            bound_estimate=bound,
            gap_estimate=gap,
            seconds=time.perf_counter() - started,
            repair_moves=moves,
        )
        self.ticks.append(tick)
        return tick

    def replay(self, trace: ChurnTrace) -> List[ChurnTick]:
        """Apply every event of ``trace`` in order; returns the per-event ticks."""
        trace.validate_for(self.instance)
        return [self.apply_event(event) for event in trace.events]

    # ------------------------------------------------------------------ #
    def current_utility(self) -> float:
        return self.session.current_utility()

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot: events, re-solves, repair moves, gap telemetry."""
        return {
            "events": len(self.ticks),
            "resolves": self.resolves,
            "repair_moves": self.repair_moves,
            "full_recomputes": self.session.full_recomputes,
            "lp_bound": self.lp_bound,
            "last_gap_estimate": self.ticks[-1].gap_estimate if self.ticks else 0.0,
        }


def replay_incremental(
    session: DynamicSession, trace: ChurnTrace
) -> List[float]:
    """Replay a trace through a bare session (no repair, no re-solves).

    The utility-after series this returns is what the scalar/incremental
    session-equivalence benchmarks compare; works for
    :class:`~repro.extensions.dynamic_reference.ReferenceDynamicSession` too
    (duck-typed).
    """
    utilities: List[float] = []
    for event in trace.events:
        if event.kind == JOIN:
            session.add_user(event.user)
        elif event.kind == LEAVE:
            session.remove_user(event.user)
        else:
            session.update_preference(event.user, event.preference)
        utilities.append(session.current_utility())
    return utilities


__all__ = [
    "ChurnEngine",
    "ChurnTick",
    "ResolvePolicy",
    "solve_active",
    "replay_incremental",
]
