"""Seeded churn traces: join/leave/preference-drift event streams.

The dynamic-scenario benchmarks replay a common, reproducible stream of
events against several maintenance policies (incremental session, churn
engine, full re-solve per event, the serving layer).  A
:class:`ChurnTrace` is that stream: an initial active-user mask plus an
ordered tuple of :class:`ChurnEvent`, generated by :func:`make_churn_trace`
from an instance and a seed — same arguments, same trace, across processes.

Events are *feasibility-aware by construction*: a join always names a
currently inactive user, a leave an active one (never shrinking the store
below ``min_active``), and a drift event carries the user's full new
preference row (finite, non-negative, as the evaluators require).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.problem import SVGICInstance
from repro.utils.rng import SeedLike, derive_seed, ensure_rng

JOIN = "join"
LEAVE = "leave"
DRIFT = "drift"


@dataclass(frozen=True)
class ChurnEvent:
    """One churn event: a user joins, leaves, or drifts her preferences.

    ``preference`` is the user's full new ``(m,)`` preference row for
    ``drift`` events and ``None`` otherwise.
    """

    kind: str
    user: int
    preference: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in (JOIN, LEAVE, DRIFT):
            raise ValueError(f"unknown churn event kind {self.kind!r}")
        if (self.preference is not None) != (self.kind == DRIFT):
            raise ValueError("preference rows accompany drift events exactly")


@dataclass(frozen=True)
class ChurnTrace:
    """A reproducible event stream over one instance's user universe."""

    num_users: int
    num_items: int
    initial_active: np.ndarray
    events: Tuple[ChurnEvent, ...]
    seed: Optional[int] = None

    def __len__(self) -> int:
        return len(self.events)

    @property
    def kind_counts(self) -> dict:
        counts = {JOIN: 0, LEAVE: 0, DRIFT: 0}
        for event in self.events:
            counts[event.kind] += 1
        return counts

    def validate_for(self, instance: SVGICInstance) -> None:
        """Raise unless this trace was generated for an equally-sized universe."""
        if (self.num_users, self.num_items) != (instance.num_users, instance.num_items):
            raise ValueError(
                f"trace sized for ({self.num_users} users, {self.num_items} items) "
                f"does not fit instance ({instance.num_users}, {instance.num_items})"
            )


def make_churn_trace(
    instance: SVGICInstance,
    *,
    num_events: int,
    seed: SeedLike = None,
    join_weight: float = 0.45,
    leave_weight: float = 0.35,
    drift_weight: float = 0.2,
    initial_active_fraction: float = 0.6,
    min_active: int = 2,
    drift_scale: float = 1.0,
) -> ChurnTrace:
    """Generate a seeded, feasibility-aware churn trace for ``instance``.

    The event mix follows the three weights, renormalized per step over the
    *feasible* kinds: joins need an inactive user, leaves must keep at least
    ``min_active`` users in the store (drift is always feasible).  Drift rows
    are fresh ``Uniform(0, drift_scale)`` draws — an abrupt taste change, the
    hardest case for an incremental maintainer.  Everything is derived from
    ``seed`` via :func:`repro.utils.rng.derive_seed`, so traces are stable
    across processes and sessions.

    Each event draws what ``Generator.choice`` would: its kind is one
    ``rng.random()`` looked up in the cdf ``choice`` builds from the feasible
    kinds' weights (cached per feasible set), and a join's or leave's user
    one ``rng.integers`` index into the sorted inactive or active users,
    which the loop keeps sorted by insertion instead of rescanning a mask.
    """
    if num_events < 0:
        raise ValueError(f"num_events must be non-negative, got {num_events}")
    if min(join_weight, leave_weight, drift_weight) < 0 or (
        join_weight + leave_weight + drift_weight
    ) <= 0:
        raise ValueError("event weights must be non-negative and not all zero")
    if not 0.0 < initial_active_fraction <= 1.0:
        raise ValueError(
            f"initial_active_fraction must be in (0, 1], got {initial_active_fraction}"
        )
    n = instance.num_users
    min_active = max(1, int(min_active))
    if n < min_active:
        raise ValueError(f"instance has {n} users, fewer than min_active={min_active}")

    derived = derive_seed(seed, "churn-trace")
    rng = ensure_rng(derived)
    num_initial = max(min_active, int(round(initial_active_fraction * n)))
    initial_active = np.zeros(n, dtype=bool)
    initial_active[rng.choice(n, size=min(num_initial, n), replace=False)] = True

    weights = {JOIN: float(join_weight), LEAVE: float(leave_weight), DRIFT: float(drift_weight)}
    inactive_users: List[int] = np.flatnonzero(~initial_active).tolist()
    active_users: List[int] = np.flatnonzero(initial_active).tolist()
    cdfs: Dict[Tuple[str, ...], List[float]] = {}
    events = []
    for _ in range(num_events):
        feasible: Tuple[str, ...] = (DRIFT,) if weights[DRIFT] > 0 else ()
        if inactive_users and weights[JOIN] > 0:
            feasible += (JOIN,)
        if len(active_users) > min_active and weights[LEAVE] > 0:
            feasible += (LEAVE,)
        if not feasible:
            break
        cdf = cdfs.get(feasible)
        if cdf is None:
            probs = np.array([weights[kind] for kind in feasible], dtype=float)
            cumulative = (probs / probs.sum()).cumsum()
            cdf = cdfs[feasible] = (cumulative / cumulative[-1]).tolist()
        kind = feasible[bisect_right(cdf, rng.random())]
        if kind == DRIFT:
            user = int(rng.integers(n))
            row = rng.uniform(0.0, float(drift_scale), size=instance.num_items)
            events.append(ChurnEvent(DRIFT, user, row))
            continue
        if kind == JOIN:
            source, target = inactive_users, active_users
        else:
            source, target = active_users, inactive_users
        user = source.pop(int(rng.integers(0, len(source), dtype=np.int64)))
        insort(target, user)
        events.append(ChurnEvent(kind, user))

    return ChurnTrace(
        num_users=n,
        num_items=instance.num_items,
        initial_active=initial_active,
        events=tuple(events),
        seed=int(derived),
    )


__all__ = ["ChurnEvent", "ChurnTrace", "make_churn_trace", "JOIN", "LEAVE", "DRIFT"]
