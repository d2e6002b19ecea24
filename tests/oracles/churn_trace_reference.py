"""The per-event churn trace loop, kept as a test oracle.

:func:`repro.data.churn.make_churn_trace` draws each event's kind with one
``rng.random()`` looked up in a cached cdf, and a join's or leave's user with
one ``rng.integers`` into sorted inactive/active lists it keeps by insertion.
Before that, every event called ``Generator.choice`` with fresh
probabilities and scanned the active mask with ``np.nonzero`` and ``sum``.
:func:`reference_churn_trace` keeps that loop; ``tests/test_churn_engine.py``
pins the two to identical traces (kinds, users, drift rows, initial mask and
seed).
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import SVGICInstance
from repro.data.churn import DRIFT, JOIN, LEAVE, ChurnEvent, ChurnTrace
from repro.utils.rng import SeedLike, derive_seed, ensure_rng


def reference_churn_trace(
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
    """``make_churn_trace`` as one ``choice``/``nonzero`` loop per event (valid arguments only)."""
    n = instance.num_users
    min_active = max(1, int(min_active))
    derived = derive_seed(seed, "churn-trace")
    rng = ensure_rng(derived)
    num_initial = max(min_active, int(round(initial_active_fraction * n)))
    active = np.zeros(n, dtype=bool)
    active[rng.choice(n, size=min(num_initial, n), replace=False)] = True
    initial_active = active.copy()

    weights = {JOIN: float(join_weight), LEAVE: float(leave_weight), DRIFT: float(drift_weight)}
    events = []
    for _ in range(num_events):
        feasible = [DRIFT] if weights[DRIFT] > 0 else []
        if not active.all() and weights[JOIN] > 0:
            feasible.append(JOIN)
        if int(active.sum()) > min_active and weights[LEAVE] > 0:
            feasible.append(LEAVE)
        if not feasible:
            break
        probs = np.array([weights[kind] for kind in feasible], dtype=float)
        kind = feasible[int(rng.choice(len(feasible), p=probs / probs.sum()))]
        if kind == JOIN:
            user = int(rng.choice(np.nonzero(~active)[0]))
            active[user] = True
            events.append(ChurnEvent(JOIN, user))
        elif kind == LEAVE:
            user = int(rng.choice(np.nonzero(active)[0]))
            active[user] = False
            events.append(ChurnEvent(LEAVE, user))
        else:
            user = int(rng.integers(n))
            row = rng.uniform(0.0, float(drift_scale), size=instance.num_items)
            events.append(ChurnEvent(DRIFT, user, row))

    return ChurnTrace(
        num_users=n,
        num_items=instance.num_items,
        initial_active=initial_active,
        events=tuple(events),
        seed=int(derived),
    )
