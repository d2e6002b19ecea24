"""Problem instances for SVGIC and SVGIC-ST.

The paper's inputs (Section 3.1) are a directed social network ``G=(V,E)``, a
universal item set ``C``, per-user item preference utilities ``p(u,c)``,
per-directed-edge social utilities ``tau(u,v,c)``, the preference/social
trade-off weight ``lambda`` and the number of display slots ``k``.

We store the social network as an explicit directed edge list with a dense
``(|E|, m)`` social-utility matrix.  This is the representation every solver
in :mod:`repro.core` consumes; dataset generators in :mod:`repro.data`
produce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive_int,
    check_probability_matrix,
)


@dataclass(frozen=True)
class SVGICInstance:
    """An instance of the Social-aware VR Group-Item Configuration problem.

    Attributes
    ----------
    num_users:
        ``n`` — number of shoppers in the group (vertices of ``G``).
    num_items:
        ``m`` — size of the universal item set ``C``.
    num_slots:
        ``k`` — number of display slots per user.
    social_weight:
        ``lambda`` in Definition 3 — relative weight of the social utility.
    preference:
        ``(n, m)`` array; ``preference[u, c] = p(u, c) >= 0``.
    edges:
        ``(E, 2)`` integer array of *directed* social edges ``(u, v)``.
    social:
        ``(E, m)`` array; ``social[e, c] = tau(u_e, v_e, c) >= 0``.
    user_labels / item_labels:
        Optional human-readable names used by examples and case studies.
    name:
        Optional identifier (e.g. ``"timik-like"``) used in reports.
    """

    num_users: int
    num_items: int
    num_slots: int
    social_weight: float
    preference: np.ndarray
    edges: np.ndarray
    social: np.ndarray
    user_labels: Optional[Tuple[str, ...]] = None
    item_labels: Optional[Tuple[str, ...]] = None
    name: str = "svgic"

    # ------------------------------------------------------------------ #
    # Construction and validation
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        object.__setattr__(self, "num_users", check_positive_int(self.num_users, "num_users"))
        object.__setattr__(self, "num_items", check_positive_int(self.num_items, "num_items"))
        object.__setattr__(self, "num_slots", check_positive_int(self.num_slots, "num_slots"))
        check_fraction(self.social_weight, "social_weight")
        if self.num_slots > self.num_items:
            raise ValueError(
                "num_slots must not exceed num_items (the no-duplication constraint "
                f"would be infeasible): k={self.num_slots} > m={self.num_items}"
            )

        preference = check_probability_matrix(self.preference, "preference")
        if preference.shape != (self.num_users, self.num_items):
            raise ValueError(
                f"preference must have shape (num_users, num_items)="
                f"({self.num_users}, {self.num_items}), got {preference.shape}"
            )
        object.__setattr__(self, "preference", preference)

        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (E, 2), got {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= self.num_users):
            raise ValueError("edges reference users outside [0, num_users)")
        if edges.size and np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self-loops are not allowed in the social network")
        object.__setattr__(self, "edges", edges)

        social = np.asarray(self.social, dtype=float)
        if social.size == 0:
            social = social.reshape(0, self.num_items)
        social = check_probability_matrix(social, "social")
        if social.shape != (edges.shape[0], self.num_items):
            raise ValueError(
                f"social must have shape (num_edges, num_items)="
                f"({edges.shape[0]}, {self.num_items}), got {social.shape}"
            )
        object.__setattr__(self, "social", social)

        if self.user_labels is not None and len(self.user_labels) != self.num_users:
            raise ValueError("user_labels length must equal num_users")
        if self.item_labels is not None and len(self.item_labels) != self.num_items:
            raise ValueError("item_labels length must equal num_items")

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of directed social edges ``|E|``."""
        return int(self.edges.shape[0])

    @cached_property
    def graph(self) -> nx.DiGraph:
        """The social network as a :class:`networkx.DiGraph`."""
        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.num_users))
        graph.add_edges_from((int(u), int(v)) for u, v in self.edges)
        return graph

    @cached_property
    def undirected_graph(self) -> nx.Graph:
        """Undirected view of the social network (friendship pairs)."""
        return nx.Graph(self.graph)

    @cached_property
    def pairs(self) -> np.ndarray:
        """``(P, 2)`` array of undirected friend pairs with ``u < v``."""
        if self.num_edges == 0:
            return np.empty((0, 2), dtype=np.int64)
        lo = np.minimum(self.edges[:, 0], self.edges[:, 1])
        hi = np.maximum(self.edges[:, 0], self.edges[:, 1])
        stacked = np.stack([lo, hi], axis=1)
        return np.unique(stacked, axis=0)

    @cached_property
    def pair_index(self) -> Dict[Tuple[int, int], int]:
        """Mapping from an ordered pair ``(min(u,v), max(u,v))`` to its row in ``pairs``."""
        return {(int(u), int(v)): i for i, (u, v) in enumerate(self.pairs)}

    @cached_property
    def edge_pair_ids(self) -> np.ndarray:
        """``(E,)`` row of ``pairs`` each directed edge belongs to.

        ``pairs`` is lexicographically sorted (:func:`numpy.unique` output),
        so an ordered pair maps to its row via a scalar key search.
        """
        if self.num_edges == 0:
            return np.empty(0, dtype=np.int64)
        lo = np.minimum(self.edges[:, 0], self.edges[:, 1])
        hi = np.maximum(self.edges[:, 0], self.edges[:, 1])
        pair_keys = self.pairs[:, 0] * np.int64(self.num_users) + self.pairs[:, 1]
        return np.searchsorted(pair_keys, lo * np.int64(self.num_users) + hi)

    @cached_property
    def pair_social(self) -> np.ndarray:
        """``(P, m)`` combined pair weights ``w^c_e = tau(u,v,c) + tau(v,u,c)``.

        This is the quantity the AVG analysis calls ``w^c_e`` (Table 5): the
        total social utility realised on pair ``e`` when the pair is
        co-displayed item ``c``.
        """
        weights = np.zeros((self.pairs.shape[0], self.num_items), dtype=float)
        if self.num_edges:
            np.add.at(weights, self.edge_pair_ids, self.social)
        return weights

    @cached_property
    def neighbors(self) -> Tuple[Tuple[int, ...], ...]:
        """Undirected neighbour lists (tuple per user) for fast iteration."""
        adjacency: List[List[int]] = [[] for _ in range(self.num_users)]
        for u, v in self.pairs:
            adjacency[int(u)].append(int(v))
            adjacency[int(v)].append(int(u))
        return tuple(tuple(sorted(adj)) for adj in adjacency)

    @cached_property
    def pair_ids_by_user(self) -> Tuple[Tuple[int, ...], ...]:
        """For each user, indices into ``pairs`` of the pairs containing that user."""
        owned: List[List[int]] = [[] for _ in range(self.num_users)]
        for pid, (u, v) in enumerate(self.pairs):
            owned[int(u)].append(pid)
            owned[int(v)].append(pid)
        return tuple(tuple(ids) for ids in owned)

    # ------------------------------------------------------------------ #
    # Scaling (Section 4.4, "Supporting Other Values of lambda")
    # ------------------------------------------------------------------ #
    @cached_property
    def scaled_preference(self) -> np.ndarray:
        """``p'(u,c) = (1-lambda)/lambda * p(u,c)`` — the lambda=1/2 reduction.

        The AVG/AVG-D machinery works on the scaled objective
        ``sum p'(u,c) + sum tau`` (a direct sum of preference and social
        terms); multiplying that scaled objective by ``lambda`` recovers the
        Definition-3 objective.  ``social_weight == 0`` has no scaled form
        (the problem degenerates to top-k per user); callers must special
        case it, and this property raises to make that explicit.
        """
        if self.social_weight == 0:
            raise ValueError(
                "scaled_preference is undefined for social_weight=0; the lambda=0 "
                "special case reduces to per-user top-k and is handled separately"
            )
        factor = (1.0 - self.social_weight) / self.social_weight
        return factor * self.preference

    def scaled_to_true_objective(self, scaled_value: float) -> float:
        """Convert a scaled-objective value back to the Definition-3 scale."""
        if self.social_weight == 0:
            raise ValueError("no scaled objective exists for social_weight=0")
        return self.social_weight * float(scaled_value)

    def true_to_scaled_objective(self, value: float) -> float:
        """Convert a Definition-3 objective value to the scaled (lambda=1/2 x2) scale."""
        if self.social_weight == 0:
            raise ValueError("no scaled objective exists for social_weight=0")
        return float(value) / self.social_weight

    # ------------------------------------------------------------------ #
    # Derived instances
    # ------------------------------------------------------------------ #
    def with_social_weight(self, social_weight: float) -> "SVGICInstance":
        """Return a copy of the instance with a different ``lambda``."""
        return replace(self, social_weight=check_fraction(social_weight, "social_weight"))

    def with_num_slots(self, num_slots: int) -> "SVGICInstance":
        """Return a copy with a different number of display slots ``k``."""
        return replace(self, num_slots=check_positive_int(num_slots, "num_slots"))

    def restrict_items(self, item_ids: Sequence[int]) -> Tuple["SVGICInstance", np.ndarray]:
        """Return a copy restricted to ``item_ids`` plus the id mapping.

        Used for candidate-item pruning: the returned array maps new item
        indices back to the original ones.
        """
        item_ids = np.asarray(sorted(set(int(i) for i in item_ids)), dtype=np.int64)
        if item_ids.size < self.num_slots:
            raise ValueError(
                f"cannot restrict to {item_ids.size} items with k={self.num_slots} slots"
            )
        if item_ids.size and (item_ids.min() < 0 or item_ids.max() >= self.num_items):
            raise ValueError("item_ids outside [0, num_items)")
        labels = None
        if self.item_labels is not None:
            labels = tuple(self.item_labels[i] for i in item_ids)
        restricted = replace(
            self,
            num_items=int(item_ids.size),
            preference=self.preference[:, item_ids],
            social=self.social[:, item_ids],
            item_labels=labels,
        )
        return restricted, item_ids

    def subgroup_instance(self, user_ids: Sequence[int]) -> Tuple["SVGICInstance", np.ndarray]:
        """Return the induced sub-instance on ``user_ids`` plus the id mapping.

        Edges with either endpoint outside ``user_ids`` are dropped.  Used by
        the pre-partitioning wrappers for SVGIC-ST (Section 6.8) and by the
        ego-network case study.
        """
        user_ids = np.asarray(sorted(set(int(u) for u in user_ids)), dtype=np.int64)
        if user_ids.size == 0:
            raise ValueError("user_ids must be non-empty")
        if user_ids.min() < 0 or user_ids.max() >= self.num_users:
            raise ValueError("user_ids outside [0, num_users)")
        member = np.zeros(self.num_users, dtype=bool)
        member[user_ids] = True
        keep = member[self.edges[:, 0]] & member[self.edges[:, 1]] if self.num_edges else np.empty(0, dtype=bool)
        if keep.any():
            new_edges = np.searchsorted(user_ids, self.edges[keep])
            new_social = self.social[keep]
        else:
            new_edges = np.empty((0, 2), dtype=np.int64)
            new_social = np.empty((0, self.num_items), dtype=float)
        labels = None
        if self.user_labels is not None:
            labels = tuple(self.user_labels[i] for i in user_ids)
        restricted = replace(
            self,
            num_users=int(user_ids.size),
            preference=self.preference[user_ids],
            edges=new_edges,
            social=new_social,
            user_labels=labels,
        )
        return restricted, user_ids

    # ------------------------------------------------------------------ #
    # Factory helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_dicts(
        num_slots: int,
        social_weight: float,
        preference: Mapping[Tuple[object, object], float],
        social: Mapping[Tuple[object, object, object], float],
        *,
        users: Optional[Sequence[object]] = None,
        items: Optional[Sequence[object]] = None,
        name: str = "svgic",
    ) -> "SVGICInstance":
        """Build an instance from sparse dictionaries keyed by labels.

        ``preference`` maps ``(user, item) -> p`` and ``social`` maps
        ``(user, user, item) -> tau``.  Labels may be any hashable objects;
        the resulting instance indexes users and items in the order given by
        ``users`` / ``items`` (or sorted order of the labels appearing in the
        dictionaries when omitted).
        """
        if users is None:
            seen = {key[0] for key in preference} | {k[0] for k in social} | {k[1] for k in social}
            users = sorted(seen, key=str)
        if items is None:
            seen_items = {key[1] for key in preference} | {k[2] for k in social}
            items = sorted(seen_items, key=str)
        user_index = {label: i for i, label in enumerate(users)}
        item_index = {label: i for i, label in enumerate(items)}

        pref = np.zeros((len(users), len(items)), dtype=float)
        for (user, item), value in preference.items():
            pref[user_index[user], item_index[item]] = check_non_negative(value, "preference value")

        edge_index: Dict[Tuple[int, int], int] = {}
        edge_rows: List[Tuple[int, int]] = []
        for (u_label, v_label, _item) in social:
            key = (user_index[u_label], user_index[v_label])
            if key not in edge_index:
                edge_index[key] = len(edge_rows)
                edge_rows.append(key)
        edges = np.array(edge_rows, dtype=np.int64) if edge_rows else np.empty((0, 2), dtype=np.int64)
        tau = np.zeros((edges.shape[0], len(items)), dtype=float)
        for (u_label, v_label, item), value in social.items():
            row = edge_index[(user_index[u_label], user_index[v_label])]
            tau[row, item_index[item]] = check_non_negative(value, "social value")

        return SVGICInstance(
            num_users=len(users),
            num_items=len(items),
            num_slots=num_slots,
            social_weight=social_weight,
            preference=pref,
            edges=edges,
            social=tau,
            user_labels=tuple(str(u) for u in users),
            item_labels=tuple(str(c) for c in items),
            name=name,
        )


@dataclass(frozen=True)
class SVGICSTInstance(SVGICInstance):
    """SVGIC with Teleportation and Size constraint (Section 3.2).

    Attributes
    ----------
    teleport_discount:
        ``d_tel`` in ``[0, 1)`` — discount applied to the social utility of a
        pair of friends indirectly co-displayed an item (same item, different
        slots in their respective VEs).
    max_subgroup_size:
        ``M`` — upper bound on the number of users directly co-displayed the
        same item at the same slot.
    """

    teleport_discount: float = 0.5
    max_subgroup_size: int = 16

    def __post_init__(self) -> None:
        super().__post_init__()
        check_fraction(self.teleport_discount, "teleport_discount")
        if self.teleport_discount >= 1.0:
            raise ValueError(
                f"teleport_discount must be < 1 (Definition 4), got {self.teleport_discount}"
            )
        check_positive_int(self.max_subgroup_size, "max_subgroup_size")
        if self.max_subgroup_size * self.num_items < self.num_users:
            raise ValueError(
                "infeasible size constraint: max_subgroup_size * num_items < num_users "
                f"({self.max_subgroup_size} * {self.num_items} < {self.num_users})"
            )

    @property
    def base_instance(self) -> SVGICInstance:
        """The underlying SVGIC instance (teleportation and size cap dropped)."""
        return SVGICInstance(
            num_users=self.num_users,
            num_items=self.num_items,
            num_slots=self.num_slots,
            social_weight=self.social_weight,
            preference=self.preference,
            edges=self.edges,
            social=self.social,
            user_labels=self.user_labels,
            item_labels=self.item_labels,
            name=self.name,
        )

    @staticmethod
    def from_instance(
        instance: SVGICInstance,
        *,
        teleport_discount: float = 0.5,
        max_subgroup_size: int = 16,
    ) -> "SVGICSTInstance":
        """Attach ST parameters to an existing SVGIC instance."""
        return SVGICSTInstance(
            num_users=instance.num_users,
            num_items=instance.num_items,
            num_slots=instance.num_slots,
            social_weight=instance.social_weight,
            preference=instance.preference,
            edges=instance.edges,
            social=instance.social,
            user_labels=instance.user_labels,
            item_labels=instance.item_labels,
            name=instance.name,
            teleport_discount=teleport_discount,
            max_subgroup_size=max_subgroup_size,
        )


__all__ = ["SVGICInstance", "SVGICSTInstance"]
