"""The per-cell AVG-D rounder, kept as a test oracle.

This is AVG-D's derandomized CSF rounding as it was before the batched,
incremental scan of :class:`repro.core.avg_d._DeterministicRounder`: every
iteration re-ranks the eligible users of every ``(item, slot)`` cell and
sweeps that cell's prefixes in its own :meth:`_scan_prefixes` call.
:meth:`_scan_prefixes_reference` is the scalar per-member form of the same
sweep.  ``tests/test_scan_prefix_equivalence.py`` pins the two sweeps
together and pins the batched rounder to this one's per-iteration choices.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.greedy import greedy_complete
from repro.core.lp import FractionalSolution
from repro.core.problem import SVGICInstance, SVGICSTInstance


class ReferenceDeterministicRounder:
    """State and per-cell bookkeeping for one AVG-D run (the reference path)."""

    def __init__(
        self,
        instance: SVGICInstance,
        fractional: FractionalSolution,
        balancing_ratio: float,
        advanced_sampling: bool,
    ) -> None:
        self.instance = instance
        self.fractional = fractional
        self.r = float(balancing_ratio)
        self.advanced_sampling = advanced_sampling
        n, m, k = instance.num_users, instance.num_items, instance.num_slots
        lam = instance.social_weight

        self.pref_weight = (1.0 - lam) * instance.preference  # (n, m)
        self.pair_weight = lam * instance.pair_social  # (P, m)
        self.pairs = instance.pairs
        owned: List[List[int]] = [[] for _ in range(n)]
        for pid, (u, v) in enumerate(self.pairs):
            owned[int(u)].append(pid)
            owned[int(v)].append(pid)
        self.pair_ids_by_user = tuple(tuple(ids) for ids in owned)

        self.slot_independent = fractional.formulation in {"simplified", "sparse"}
        if self.slot_independent:
            self.x2 = fractional.compact_factors / k  # (n, m)
            self.x3 = None
        else:
            self.x2 = None
            self.x3 = np.asarray(fractional.slot_factors)  # (n, m, k)

        # Per-display-unit preference LP mass and per-(pair, slot) social LP mass.
        if self.slot_independent:
            unit = np.einsum("um,um->u", self.pref_weight, self.x2)
            self.unit_mass = np.repeat(unit[:, None], k, axis=1)  # (n, k)
            if self.pairs.shape[0]:
                mins = np.minimum(self.x2[self.pairs[:, 0]], self.x2[self.pairs[:, 1]])
                pair = np.einsum("pm,pm->p", self.pair_weight, mins)
                self.pair_mass = np.repeat(pair[:, None], k, axis=1)  # (P, k)
            else:
                self.pair_mass = np.zeros((0, k))
        else:
            self.unit_mass = np.einsum("um,ums->us", self.pref_weight, self.x3)
            if self.pairs.shape[0]:
                mins = np.minimum(self.x3[self.pairs[:, 0]], self.x3[self.pairs[:, 1]])
                self.pair_mass = np.einsum("pm,pms->ps", self.pair_weight, mins)
            else:
                self.pair_mass = np.zeros((0, k))

        self.opt_cur = float(self.unit_mass.sum() + self.pair_mass.sum())

        self.config = SAVGConfiguration.for_instance(instance)
        self.items_used = np.zeros((n, m), dtype=bool)
        self.remaining_units = n * k
        self.size_limit = (
            instance.max_subgroup_size if isinstance(instance, SVGICSTInstance) else None
        )
        self.cell_counts: Dict[Tuple[int, int], int] = {}
        self.locked_cells: set = set()
        self.iterations = 0

        if advanced_sampling:
            mass_per_item = (
                self.x2.sum(axis=0) if self.slot_independent else self.x3.sum(axis=(0, 2))
            )
            self.candidate_items = [int(c) for c in np.nonzero(mass_per_item > 1e-12)[0]]
            if not self.candidate_items:
                self.candidate_items = list(range(m))
        else:
            self.candidate_items = list(range(m))

    # ------------------------------------------------------------------ #
    def factor(self, user: int, item: int, slot: int) -> float:
        """Utility factor ``x*[u, c, s]``."""
        if self.slot_independent:
            return float(self.x2[user, item])
        return float(self.x3[user, item, slot])

    def slot_open(self, user: int, slot: int) -> bool:
        return self.config.assignment[user, slot] == UNASSIGNED

    def eligible_users(self, item: int, slot: int) -> np.ndarray:
        """Users with ``slot`` open and ``item`` not yet shown to them (one mask op)."""
        open_slots = self.config.assignment[:, slot] == UNASSIGNED
        return np.nonzero(open_slots & ~self.items_used[:, item])[0]

    def cell_capacity(self, item: int, slot: int) -> int:
        """Members the cell may still take (``num_users`` without a size cap)."""
        if self.size_limit is None:
            return self.instance.num_users
        return self.size_limit - self.cell_counts.get((item, slot), 0)

    def ranked_users(self, item: int, slot: int) -> List[int]:
        """Eligible users by decreasing utility factor, ties in ascending user order."""
        eligible = self.eligible_users(item, slot)
        factors = (
            self.x2[eligible, item] if self.slot_independent else self.x3[eligible, item, slot]
        )
        return eligible[np.argsort(-factors, kind="stable")].tolist()

    # ------------------------------------------------------------------ #
    def best_candidate(self) -> Optional[Tuple[float, int, int, List[int]]]:
        """Evaluate every focal candidate and return (f, item, slot, target members)."""
        best: Optional[Tuple[float, int, int, List[int]]] = None
        for item in self.candidate_items:
            for slot in range(self.instance.num_slots):
                if (item, slot) in self.locked_cells:
                    continue
                capacity = self.cell_capacity(item, slot)
                if capacity <= 0:
                    continue
                ranked = self.ranked_users(item, slot)
                if not ranked:
                    continue
                candidate = self._scan_prefixes(item, slot, ranked, capacity)
                if candidate is not None and (best is None or candidate[0] > best[0]):
                    best = candidate
        return best

    def _scan_prefixes(
        self, item: int, slot: int, ranked: Sequence[int], capacity: int
    ) -> Optional[Tuple[float, int, int, List[int]]]:
        """Sweep thresholds for one (item, slot); return the best (f, item, slot, members).

        Vectorized with cumulative-sum sweeps over the ranked prefix:

        * A pair's ALG contribution ``pair_weight[pid, item]`` lands at the
          prefix position of its *later* endpoint (the co-display exists once
          both members joined).
        * A pair's removed LP mass ``pair_mass[pid, slot]`` lands at the
          position of its *earlier* endpoint; pairs whose other endpoint is
          outside the ranked prefix count only if that endpoint's slot is
          still open (matching the scalar ``slot_open`` check — ranked users
          always have the slot open).
        """
        L = min(len(ranked), capacity)
        if L <= 0:
            return None
        users = np.asarray(ranked[:L], dtype=np.int64)
        n = self.instance.num_users
        position = np.full(n, -1, dtype=np.int64)
        position[users] = np.arange(L)

        alg_events = np.zeros(L)
        removed_events = np.zeros(L)
        pid_lists = [self.pair_ids_by_user[int(u)] for u in users]
        lengths = np.array([len(p) for p in pid_lists], dtype=np.int64)
        if lengths.sum():
            pid_flat = np.concatenate(
                [np.asarray(p, dtype=np.int64) for p in pid_lists if p]
            )
            owner = np.repeat(np.arange(L), lengths)
            endpoints = self.pairs[pid_flat]
            owner_user = users[owner]
            other = np.where(endpoints[:, 0] == owner_user, endpoints[:, 1], endpoints[:, 0])
            other_pos = position[other]

            # ALG: counted once, when the later endpoint joins the prefix.
            alg_mask = (other_pos >= 0) & (other_pos < owner)
            if np.any(alg_mask):
                np.add.at(
                    alg_events,
                    owner[alg_mask],
                    self.pair_weight[pid_flat[alg_mask], item],
                )
            # Removed LP mass: counted once, when the first endpoint joins;
            # for partners outside the prefix, only while their slot is open.
            open_other = self.config.assignment[other, slot] == UNASSIGNED
            removed_mask = ((other_pos >= 0) & (owner < other_pos)) | (
                (other_pos < 0) & open_other
            )
            if np.any(removed_mask):
                np.add.at(
                    removed_events,
                    owner[removed_mask],
                    self.pair_mass[pid_flat[removed_mask], slot],
                )

        alg_prefix = np.cumsum(self.pref_weight[users, item] + alg_events)
        removed_prefix = np.cumsum(self.unit_mass[users, slot] + removed_events)
        f = alg_prefix + self.r * (self.opt_cur - removed_prefix)

        evaluate = np.ones(L, dtype=bool)
        if self.advanced_sampling and L > 1:
            # Only evaluate at the end of a tie block: thresholds inside a
            # block produce the same target subgroup.  The last processed
            # position is always evaluated (capacity or list exhausted).
            factors = (
                self.x2[users, item]
                if self.slot_independent
                else self.x3[users, item, slot]
            )
            evaluate[: L - 1] = factors[1:] < factors[: L - 1] - 1e-12
        candidates = np.nonzero(evaluate)[0]
        best = int(candidates[np.argmax(f[candidates])])
        return float(f[best]), item, slot, [int(u) for u in users[: best + 1]]

    def _scan_prefixes_reference(
        self, item: int, slot: int, ranked: Sequence[int], capacity: int
    ) -> Optional[Tuple[float, int, int, List[int]]]:
        """Scalar per-member prefix sweep — the pinned reference for ``_scan_prefixes``."""
        alg_value = 0.0
        removed_mass = 0.0
        in_prefix: set = set()
        prefix: List[int] = []
        best_f = -np.inf
        best_members: Optional[List[int]] = None

        for idx, user in enumerate(ranked):
            if len(prefix) >= capacity:
                break
            # ALG gain: preference of the new member plus social utility with
            # members already in the target subgroup.
            alg_value += self.pref_weight[user, item]
            for pid in self.pair_ids_by_user[user]:
                u0, v0 = int(self.pairs[pid, 0]), int(self.pairs[pid, 1])
                other = v0 if u0 == user else u0
                if other in in_prefix:
                    alg_value += self.pair_weight[pid, item]
            # LP mass leaving S_cur when this member moves to S_tar.
            removed_mass += self.unit_mass[user, slot]
            for pid in self.pair_ids_by_user[user]:
                u0, v0 = int(self.pairs[pid, 0]), int(self.pairs[pid, 1])
                other = v0 if u0 == user else u0
                if other in in_prefix:
                    continue  # already removed when `other` joined the prefix
                if self.slot_open(other, slot):
                    removed_mass += self.pair_mass[pid, slot]
            in_prefix.add(user)
            prefix.append(user)

            evaluate_here = True
            if self.advanced_sampling and idx + 1 < len(ranked) and len(prefix) < capacity:
                current = self.factor(user, item, slot)
                nxt = self.factor(ranked[idx + 1], item, slot)
                # Only evaluate at the end of a tie block: thresholds inside a
                # block produce the same target subgroup.
                evaluate_here = nxt < current - 1e-12
            if evaluate_here:
                f_value = alg_value + self.r * (self.opt_cur - removed_mass)
                if f_value > best_f:
                    best_f = f_value
                    best_members = list(prefix)
        if best_members is None:
            return None
        return best_f, item, slot, best_members

    # ------------------------------------------------------------------ #
    def execute(self, item: int, slot: int, members: Sequence[int]) -> None:
        """Co-display ``item`` at ``slot`` to ``members`` and update the running LP mass."""
        for user in members:
            self.config.assignment[user, slot] = item
            self.items_used[user, item] = True
            self.remaining_units -= 1
            # The display unit (user, slot) leaves S_cur.
            self.opt_cur -= float(self.unit_mass[user, slot])
            for pid in self.pair_ids_by_user[user]:
                u0, v0 = int(self.pairs[pid, 0]), int(self.pairs[pid, 1])
                other = v0 if u0 == user else u0
                if self.slot_open(other, slot):
                    self.opt_cur -= float(self.pair_mass[pid, slot])
            if self.size_limit is not None:
                key = (item, slot)
                self.cell_counts[key] = self.cell_counts.get(key, 0) + 1
                if self.cell_counts[key] >= self.size_limit:
                    self.locked_cells.add(key)

    def run(self) -> SAVGConfiguration:
        """Main AVG-D loop: pick and execute the best focal candidate until complete."""
        while self.remaining_units > 0:
            candidate = self.best_candidate()
            if candidate is None:
                greedy_complete(self.instance, self.config, size_limit=self.size_limit)
                self.remaining_units = 0
                break
            _, item, slot, members = candidate
            self.execute(item, slot, members)
            self.iterations += 1
        return self.config
