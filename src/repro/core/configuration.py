"""SAVG k-Configurations (Definition 1) and their structural queries.

A configuration maps every ``(user, slot)`` pair to an item.  We store it as
an ``(n, k)`` integer array of item indices; ``UNASSIGNED`` (-1) marks display
units not yet filled, which the rounding algorithms use while a configuration
is under construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import SVGICInstance

#: Sentinel marking an unfilled display unit.
UNASSIGNED: int = -1


@dataclass
class SAVGConfiguration:
    """An (possibly partial) SAVG k-Configuration ``A : V x [k] -> C``.

    Attributes
    ----------
    assignment:
        ``(num_users, num_slots)`` integer array; ``assignment[u, s]`` is the
        item displayed to user ``u`` at slot ``s`` or :data:`UNASSIGNED`.
    num_items:
        Size of the universal item set (used for validation only).
    """

    assignment: np.ndarray
    num_items: int

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.int64)
        if assignment.ndim != 2:
            raise ValueError(f"assignment must be 2-D (users x slots), got shape {assignment.shape}")
        if assignment.size and assignment.max() >= self.num_items:
            raise ValueError("assignment references an item index >= num_items")
        if assignment.size and assignment.min() < UNASSIGNED:
            raise ValueError("assignment contains invalid negative item indices")
        self.assignment = assignment

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def empty(num_users: int, num_slots: int, num_items: int) -> "SAVGConfiguration":
        """A configuration with every display unit unassigned."""
        return SAVGConfiguration(
            assignment=np.full((num_users, num_slots), UNASSIGNED, dtype=np.int64),
            num_items=num_items,
        )

    @staticmethod
    def for_instance(instance: SVGICInstance) -> "SAVGConfiguration":
        """An empty configuration shaped for ``instance``."""
        return SAVGConfiguration.empty(instance.num_users, instance.num_slots, instance.num_items)

    @staticmethod
    def from_mapping(
        mapping: Mapping[Tuple[int, int], int],
        num_users: int,
        num_slots: int,
        num_items: int,
    ) -> "SAVGConfiguration":
        """Build a configuration from a ``{(user, slot): item}`` mapping."""
        config = SAVGConfiguration.empty(num_users, num_slots, num_items)
        for (user, slot), item in mapping.items():
            config.assign(int(user), int(slot), int(item))
        return config

    def copy(self) -> "SAVGConfiguration":
        """Deep copy of the configuration."""
        return SAVGConfiguration(assignment=self.assignment.copy(), num_items=self.num_items)

    # ------------------------------------------------------------------ #
    # Shape accessors
    # ------------------------------------------------------------------ #
    @property
    def num_users(self) -> int:
        """Number of users (rows)."""
        return int(self.assignment.shape[0])

    @property
    def num_slots(self) -> int:
        """Number of display slots per user (columns)."""
        return int(self.assignment.shape[1])

    # ------------------------------------------------------------------ #
    # Mutation while under construction
    # ------------------------------------------------------------------ #
    def assign(self, user: int, slot: int, item: int) -> None:
        """Display ``item`` to ``user`` at ``slot``.

        Raises if the display unit is already filled or the assignment would
        violate the no-duplication constraint.
        """
        if not 0 <= item < self.num_items:
            raise ValueError(f"item index {item} outside [0, {self.num_items})")
        if self.assignment[user, slot] != UNASSIGNED:
            raise ValueError(f"display unit (user={user}, slot={slot}) already assigned")
        if item in self.assignment[user]:
            raise ValueError(
                f"item {item} already displayed to user {user}: no-duplication constraint"
            )
        self.assignment[user, slot] = item

    def is_assigned(self, user: int, slot: int) -> bool:
        """Whether the display unit ``(user, slot)`` has been filled."""
        return self.assignment[user, slot] != UNASSIGNED

    def user_has_item(self, user: int, item: int) -> bool:
        """Whether ``item`` is displayed to ``user`` at any slot."""
        return bool(np.any(self.assignment[user] == item))

    def unassigned_units(self) -> List[Tuple[int, int]]:
        """All unfilled display units as ``(user, slot)`` tuples."""
        users, slots = np.nonzero(self.assignment == UNASSIGNED)
        return [(int(u), int(s)) for u, s in zip(users, slots)]

    # ------------------------------------------------------------------ #
    # Validity
    # ------------------------------------------------------------------ #
    def is_complete(self) -> bool:
        """Whether every display unit has been assigned an item."""
        return bool(np.all(self.assignment != UNASSIGNED))

    def satisfies_no_duplication(self) -> bool:
        """Whether no user sees the same item at two different slots."""
        return not repeated_rows(self.assignment).any()

    def is_valid(self, instance: Optional[SVGICInstance] = None) -> bool:
        """Complete, duplication-free, and shape-compatible with ``instance``."""
        if instance is not None:
            if (
                self.num_users != instance.num_users
                or self.num_slots != instance.num_slots
                or self.num_items != instance.num_items
            ):
                return False
        return self.is_complete() and self.satisfies_no_duplication()

    def validate(self, instance: Optional[SVGICInstance] = None) -> None:
        """Raise ``ValueError`` with a specific message if the configuration is invalid."""
        if instance is not None:
            if self.num_users != instance.num_users:
                raise ValueError(
                    f"configuration has {self.num_users} users, instance has {instance.num_users}"
                )
            if self.num_slots != instance.num_slots:
                raise ValueError(
                    f"configuration has {self.num_slots} slots, instance has {instance.num_slots}"
                )
            if self.num_items != instance.num_items:
                raise ValueError(
                    f"configuration allows {self.num_items} items, instance has {instance.num_items}"
                )
        if not self.is_complete():
            missing = self.unassigned_units()
            raise ValueError(f"configuration incomplete: {len(missing)} unassigned display units")
        if not self.satisfies_no_duplication():
            raise ValueError("configuration violates the no-duplication constraint")

    # ------------------------------------------------------------------ #
    # Structural queries used by the objective and the subgroup metrics
    # ------------------------------------------------------------------ #
    def items_for_user(self, user: int) -> Tuple[int, ...]:
        """The k items displayed to ``user`` (``A(u, :)``), skipping unassigned."""
        items = self.assignment[user]
        return tuple(int(c) for c in items if c != UNASSIGNED)

    def subgroups_at_slot(self, slot: int) -> Dict[int, List[int]]:
        """Partition of users at ``slot`` keyed by displayed item.

        This is the collection ``V^s`` of Definition 2's implicit partition:
        users mapped to the same item at ``slot`` form one subgroup.
        Unassigned users are omitted.
        """
        groups: Dict[int, List[int]] = {}
        column = self.assignment[:, slot]
        for user, item in enumerate(column):
            if item == UNASSIGNED:
                continue
            groups.setdefault(int(item), []).append(int(user))
        return groups

    def iter_subgroups(self) -> Iterator[Tuple[int, int, List[int]]]:
        """Yield ``(slot, item, members)`` for every subgroup at every slot."""
        for slot in range(self.num_slots):
            for item, members in self.subgroups_at_slot(slot).items():
                yield slot, item, members

    def co_displayed(self, u: int, v: int, item: int) -> bool:
        """Direct co-display ``u <->_c v``: same item at the same slot."""
        match = (self.assignment[u] == item) & (self.assignment[v] == item)
        return bool(np.any(match & (self.assignment[u] != UNASSIGNED)))

    def indirectly_co_displayed(self, u: int, v: int, item: int) -> bool:
        """Indirect co-display (Definition 4): both see ``item`` but at different slots."""
        u_has = bool(np.any(self.assignment[u] == item))
        v_has = bool(np.any(self.assignment[v] == item))
        return u_has and v_has and not self.co_displayed(u, v, item)

    def subgroup_sizes(self) -> List[int]:
        """Sizes of all subgroups across all slots, slot by slot (item order within a slot)."""
        counts = cell_counts(self.assignment, self.num_items).T
        return counts[counts > 0].tolist()

    def max_subgroup_size(self) -> int:
        """Largest subgroup over all slots (0 for an empty configuration)."""
        return int(cell_counts(self.assignment, self.num_items).max(initial=0))

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def to_table(self, instance: Optional[SVGICInstance] = None) -> str:
        """Human-readable table like Table 7/8 of the paper."""
        user_names = (
            list(instance.user_labels)
            if instance is not None and instance.user_labels is not None
            else [f"u{u}" for u in range(self.num_users)]
        )
        item_names = (
            list(instance.item_labels)
            if instance is not None and instance.item_labels is not None
            else [f"c{c}" for c in range(self.num_items)]
        )
        header = ["user"] + [f"slot {s + 1}" for s in range(self.num_slots)]
        rows = [header]
        for user in range(self.num_users):
            cells = [user_names[user]]
            for slot in range(self.num_slots):
                item = self.assignment[user, slot]
                cells.append("-" if item == UNASSIGNED else item_names[int(item)])
            rows.append(cells)
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = []
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SAVGConfiguration):
            return NotImplemented
        return self.num_items == other.num_items and np.array_equal(self.assignment, other.assignment)


def cell_counts(assignment: np.ndarray, num_items: int) -> np.ndarray:
    """``(m, k)`` subgroup sizes: users displayed item ``c`` at slot ``s``.

    Unassigned display units are skipped, so partial and active-masked
    assignments count only their filled cells.
    """
    num_slots = assignment.shape[1]
    flat = (assignment * num_slots + np.arange(num_slots))[assignment != UNASSIGNED]
    counts = np.bincount(flat, minlength=num_items * num_slots)
    return counts.reshape(num_items, num_slots)


def repeated_rows(rows: np.ndarray) -> np.ndarray:
    """Boolean ``(r,)`` mask: row ``r`` shows some item at two slots.

    ``rows`` is any ``(r, k)`` slice of an assignment; unassigned cells are
    skipped, so two ``UNASSIGNED`` cells are no repeat.
    """
    ordered = np.sort(rows, axis=1)
    return ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] != UNASSIGNED)).any(axis=1)


def shown_items(rows: np.ndarray, num_items: int) -> np.ndarray:
    """Boolean ``(len(rows), m)`` mask: row ``r`` shows item ``c`` at some slot.

    ``rows`` is any ``(r, k)`` slice of an assignment; unassigned cells are
    skipped.
    """
    num_rows, num_slots = rows.shape
    flat = (np.arange(num_rows)[:, None] * num_items + rows)[rows != UNASSIGNED]
    mask = np.zeros(num_rows * num_items, dtype=bool)
    mask[flat] = True
    return mask.reshape(num_rows, num_items)


__all__ = ["SAVGConfiguration", "UNASSIGNED", "cell_counts", "repeated_rows", "shown_items"]
