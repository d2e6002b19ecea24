"""Small greedy building blocks shared by algorithms and baselines.

* :func:`top_k_preference_configuration` — each user independently receives
  her top-k preferred items, ranked best-first across slots.  This is both
  the λ=0 special case of SVGIC (where it is exactly optimal, Section 4.4)
  and the PER baseline of Section 6.1.
* :func:`greedy_complete` — fill any unassigned display units of a partial
  configuration with the best not-yet-displayed item per user.  Used as a
  safety net by the rounding algorithms.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.configuration import UNASSIGNED, SAVGConfiguration, cell_counts
from repro.core.problem import SVGICInstance


def top_k_preference_configuration(instance: SVGICInstance) -> SAVGConfiguration:
    """Assign each user her ``k`` most preferred items, best item at slot 1.

    Ties are broken by item index (deterministic).
    """
    config = SAVGConfiguration.for_instance(instance)
    # Stable sort on -preference keeps ties in item-index order; one argsort
    # over the whole (n, m) matrix replaces the former per-user loop.
    order = np.argsort(-instance.preference, axis=1, kind="stable")
    config.assignment[:, :] = order[:, : instance.num_slots]
    return config


def greedy_complete(
    instance: SVGICInstance,
    config: SAVGConfiguration,
    *,
    size_limit: int | None = None,
) -> SAVGConfiguration:
    """Fill every unassigned display unit with the user's best unused item (in place).

    With ``size_limit`` set (SVGIC-ST), an item is skipped at a slot whose
    subgroup for that item is already full.  When every unused item of a
    user is full at a slot, other users at that slot shift along full
    subgroups to one with room (:func:`make_room`); if no such shift exists,
    a :class:`RuntimeError` names the display unit.  Returns the same
    configuration object for chaining.
    """
    incomplete = np.nonzero(np.any(config.assignment == UNASSIGNED, axis=1))[0]
    if incomplete.size == 0:
        return config
    counts = cell_counts(config.assignment, instance.num_items)
    # One stable argsort over the incomplete users' preference rows replaces
    # the former per-user lexsort calls.
    orders = np.argsort(-instance.preference[incomplete], axis=1, kind="stable")
    for row_index, user in enumerate(incomplete):
        user = int(user)
        row = config.assignment[user]
        used = set(int(c) for c in row if c != UNASSIGNED)
        order = orders[row_index]
        for slot in range(instance.num_slots):
            if row[slot] != UNASSIGNED:
                continue
            chosen = None
            for candidate in order:
                candidate = int(candidate)
                if candidate in used:
                    continue
                if size_limit is not None and counts[candidate, slot] >= size_limit:
                    continue
                chosen = candidate
                break
            if chosen is None:
                chosen = make_room(instance, config.assignment, counts, user, slot, size_limit)
            config.assignment[user, slot] = chosen
            used.add(chosen)
            counts[chosen, slot] += 1
    return config


def make_room(
    instance: SVGICInstance,
    assignment: np.ndarray,
    counts: np.ndarray,
    user: int,
    slot: int,
    size_limit: int,
) -> int:
    """Free a place for ``user`` at ``slot`` when every item it could take there is full.

    Breadth-first search over the full subgroups at ``slot``, starting from
    the items ``user`` could take, in its preference order: a member of a
    reached subgroup may move to any item not already in its row, so reaching
    a subgroup with room gives a path along which each member moves one
    step.  The moves are applied to ``assignment`` and ``counts``, and the
    item freed for ``user`` is returned.  Raises :class:`RuntimeError` when
    no such path exists.
    """
    column = assignment[:, slot]
    room = counts[:, slot] < size_limit
    order = np.argsort(-instance.preference[user], kind="stable")
    starts = [int(c) for c in order if c not in assignment[user]]
    # parent[item] = (item the mover left, mover); None for a start item.
    parent: dict = {c: None for c in starts}
    queue = deque(starts)
    end = None
    while queue and end is None:
        item = queue.popleft()
        for mover in np.nonzero(column == item)[0]:
            mover = int(mover)
            row = assignment[mover]
            targets = np.ones(instance.num_items, dtype=bool)
            targets[row[row != UNASSIGNED]] = False
            targets[list(parent)] = False
            free = np.nonzero(targets & room)[0]
            if free.size:
                end = int(free[np.argmax(instance.preference[mover, free])])
                parent[end] = (item, mover)
                break
            for target in np.nonzero(targets)[0]:
                parent[int(target)] = (item, mover)
                queue.append(int(target))
    if end is None:
        raise RuntimeError(
            f"cannot complete display unit (user {user}, slot {slot}): every item "
            f"it could take is full at this slot and no member can move to make room"
        )
    counts[end, slot] += 1
    while parent[end] is not None:
        left, mover = parent[end]
        assignment[mover, slot] = end
        end = left
    counts[end, slot] -= 1
    return end


__all__ = ["top_k_preference_configuration", "greedy_complete", "make_room"]
