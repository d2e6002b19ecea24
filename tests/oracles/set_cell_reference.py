"""The two-pass :meth:`DeltaEvaluator.set_cell`, kept as a test oracle.

:meth:`repro.core.objective.DeltaEvaluator.set_cell` gathers the mutated
user's friends' rows, and each affected item's pair weights and where the
friends show it, once per write.  Before that it read them twice: once
before writing the cell and once after.  :class:`TwoPassDeltaEvaluator`
keeps that form; ``tests/test_objective.py`` pins the running preference,
social and indirect totals of the two to each other with ``==`` after
seeded random writes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.configuration import UNASSIGNED
from repro.core.objective import DeltaEvaluator


class TwoPassDeltaEvaluator(DeltaEvaluator):
    """A :class:`DeltaEvaluator` whose :meth:`set_cell` reads the social mass before and after."""

    def _social_once(self, user: int, items: Tuple[int, ...]) -> Tuple[float, float]:
        """(direct, indirect) weighted social mass on ``user``'s pairs for ``items``."""
        pids, others = self._incident(user)
        if pids.size == 0 or not items:
            return 0.0, 0.0
        direct = 0.0
        indirect = 0.0
        row_u = self.assignment[user]
        rows_v = self.assignment[others]  # (deg, k)
        for item in items:
            direct_slots = ((row_u == item) & (rows_v == item)).sum(axis=1)  # (deg,)
            weights = self._lam * self._pair_social[pids, item]
            direct += float(direct_slots @ weights)
            if self._is_st and (row_u == item).any():
                shared = (direct_slots == 0) & (rows_v == item).any(axis=1)
                if np.any(shared):
                    indirect += self._d_tel * float(weights[shared].sum())
        return direct, indirect

    def set_cell(self, user: int, slot: int, item: int) -> float:
        user = self.check_user(user)
        old = int(self.assignment[user, slot])
        if old == item:
            return self.total
        affected = tuple(c for c in {old, item} if c != UNASSIGNED)

        if old != UNASSIGNED:
            self._preference -= (1.0 - self._lam) * float(self._pref[user, old])
            self.counts[old, slot] -= 1
        if item != UNASSIGNED:
            self._preference += (1.0 - self._lam) * float(self._pref[user, item])
            self.counts[item, slot] += 1

        before_direct, before_indirect = self._social_once(user, affected)
        self.assignment[user, slot] = item
        after_direct, after_indirect = self._social_once(user, affected)

        self._social += after_direct - before_direct
        self._indirect += after_indirect - before_indirect
        return self.total
