"""The per-member SVGIC-ST cap eviction, kept as a test oracle.

This is :func:`repro.core.sharding._evict_overfull` as it was before it
scored every member of an overfull cell in one batched
:meth:`~repro.core.objective.DeltaEvaluator.probe_many` call: each member
is probed on its own candidate list.  ``tests/test_sharding.py`` pins the
batched eviction to it: the same moved users, eviction count and final
assignment.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.configuration import cell_counts
from repro.core.objective import DeltaEvaluator
from repro.core.problem import SVGICSTInstance


def evict_overfull_reference(
    instance: SVGICSTInstance,
    evaluator: DeltaEvaluator,
    *,
    max_sweeps: int = 8,
) -> Tuple[List[int], int]:
    """Restore the subgroup-size cap by moving members of overfull cells.

    For every overfull ``(item, slot)`` cell, members are relocated one at a
    time: each remaining member's best *under-cap* alternative item is
    delta-evaluated (:meth:`DeltaEvaluator.probe_many` against the full
    instance) and the member/alternative pair with the largest utility delta
    moves.  This greedy max-delta order makes the forced feasibility
    repair lose as little utility as possible per step and is fully
    deterministic (ties keep the lowest candidate index).

    When a member has *no* under-cap alternative (pathologically tight caps)
    it falls back to the least-loaded non-row item, which may leave a smaller
    violation for the next sweep; ``max_sweeps`` bounds the effort and any
    residual excess is reported by the caller's feasibility check.

    Returns ``(moved user ids, eviction count)``.
    """
    cap = instance.max_subgroup_size
    moved: List[int] = []
    evictions = 0
    all_items = np.arange(instance.num_items, dtype=np.int64)
    for _sweep in range(max_sweeps):
        counts = cell_counts(evaluator.assignment, instance.num_items)
        overfull = np.argwhere(counts > cap)
        if overfull.size == 0:
            break
        progressed = False
        for item, slot in overfull:
            item, slot = int(item), int(slot)
            while counts[item, slot] > cap:
                members = np.nonzero(evaluator.assignment[:, slot] == item)[0]
                best_user = -1
                best_item = -1
                best_delta = -np.inf
                for user in members:
                    user = int(user)
                    row = evaluator.assignment[user]
                    candidates = np.nonzero(counts[:, slot] < cap)[0]
                    candidates = candidates[~np.isin(candidates, row)]
                    if candidates.size == 0:
                        # Pathological: every non-row item at this slot is at
                        # cap.  Move to the least-loaded one anyway; later
                        # sweeps (or the feasibility report) pick it up.
                        fallback = all_items[~np.isin(all_items, row)]
                        if fallback.size == 0:
                            continue
                        candidates = fallback[
                            counts[fallback, slot] == counts[fallback, slot].min()
                        ][:1]
                    deltas = evaluator.probe_many((user, slot), candidates)
                    j = int(np.argmax(deltas))
                    if deltas[j] > best_delta:
                        best_user, best_item, best_delta = user, int(candidates[j]), deltas[j]
                if best_user < 0:
                    break  # nobody can move; give up on this cell
                evaluator.set_cell(best_user, slot, best_item)
                counts[item, slot] -= 1
                counts[best_item, slot] += 1
                moved.append(best_user)
                evictions += 1
                progressed = True
        if not progressed:
            break
    return moved, evictions
