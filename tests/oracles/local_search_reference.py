"""The apply/revert local-search improver, kept as a test oracle.

This is the improver as it was before the closed-form exchange kernels
(:meth:`repro.core.objective.DeltaEvaluator.slot_swap_gains`,
:meth:`~repro.core.objective.DeltaEvaluator.pair_exchange_gains`) and the
single-cell don't-look worklist: every exchange probe applies its cells with
:meth:`DeltaEvaluator.set_cell` and reverts them when the gain is too small,
and every display unit is probed afresh, one
:meth:`~repro.core.objective.DeltaEvaluator.probe_many` call per unit, each
time the scan reaches it.  It visits candidates in the same order and
accepts the same moves as :class:`repro.core.pipeline.LocalSearchImprover`,
so ``tests/test_local_search_equivalence.py`` pins the two to identical
final configurations, move counts and pass counts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.lp import candidate_items
from repro.core.objective import DeltaEvaluator, total_utility
from repro.core.pipeline import SolveContext, StageOutcome, instance_size_limit
from repro.core.problem import SVGICInstance
from repro.utils.rng import SeedLike


class ReferenceLocalSearchImprover:
    """:class:`repro.core.pipeline.LocalSearchImprover` with apply/revert exchange probes.

    Same parameters, passes, candidate order and acceptance rule as the
    production improver; each pairwise exchange is probed by applying both
    cells through :meth:`DeltaEvaluator.set_cell` and reverting them when the
    gain is at most ``tolerance``.  A revert restores the assignment exactly;
    the evaluator's running total may differ from its pre-probe value in the
    last bits.
    """

    name = "local_search"

    def __init__(
        self,
        *,
        max_passes: int = 25,
        pairwise: bool = True,
        tolerance: float = 1e-9,
        max_items: Optional[int] = None,
        users: Optional[Sequence[int]] = None,
    ) -> None:
        if max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {max_passes}")
        if tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {tolerance}")
        self.max_passes = max_passes
        self.pairwise = pairwise
        self.tolerance = tolerance
        self.max_items = max_items
        self.users = None if users is None else np.unique(np.asarray(users, dtype=np.int64))

    # -- candidate items per instance ----------------------------------- #
    def _candidate_items(
        self, instance: SVGICInstance, context: Optional[SolveContext]
    ) -> np.ndarray:
        if self.max_items is None or self.max_items >= instance.num_items:
            return np.arange(instance.num_items, dtype=np.int64)
        if context is not None:
            return context.candidate_item_ids(self.max_items)
        return candidate_items(instance, self.max_items)

    # -- move probes ----------------------------------------------------- #
    @staticmethod
    def _cell_counts(assignment: np.ndarray, num_items: int) -> np.ndarray:
        """``(m, k)`` subgroup sizes: users displayed item ``c`` at slot ``s``."""
        num_slots = assignment.shape[1]
        counts = np.zeros((num_items, num_slots), dtype=np.int64)
        mask = assignment != UNASSIGNED
        slots = np.broadcast_to(np.arange(num_slots), assignment.shape)[mask]
        np.add.at(counts, (assignment[mask], slots), 1)
        return counts

    def _best_cell_move(
        self,
        evaluator: DeltaEvaluator,
        user: int,
        slot: int,
        candidates: np.ndarray,
        counts: Optional[np.ndarray],
        size_limit: Optional[int],
    ) -> Tuple[Optional[int], float]:
        """Best single-cell replacement for ``(user, slot)``; (None, 0) if no gain.

        All feasible candidates are delta-evaluated in one
        :meth:`~repro.core.objective.DeltaEvaluator.probe_many` call and the
        arg-max is returned — the former per-candidate Python probe loop,
        batched.  Ties keep the first (lowest-index) candidate, matching the
        scalar loop's strict-improvement scan.
        """
        old = int(evaluator.assignment[user, slot])
        row = evaluator.assignment[user]
        valid = candidates[~np.isin(candidates, row)]
        if size_limit is not None and counts is not None:
            valid = valid[counts[valid, slot] < size_limit]
        if valid.size == 0:
            return None, 0.0
        gains = evaluator.probe_many((user, slot), valid)
        best = int(np.argmax(gains))
        if gains[best] > self.tolerance:
            return int(valid[best]), float(gains[best])
        return None, 0.0

    def _try_swap(
        self,
        evaluator: DeltaEvaluator,
        units: Sequence[Tuple[int, int]],
        items: Sequence[int],
    ) -> float:
        """Probe assigning ``items`` to ``units``; returns the gain, reverted if <= tol."""
        base = evaluator.total
        old = [int(evaluator.assignment[u, s]) for u, s in units]
        for (u, s), item in zip(units, items):
            evaluator.set_cell(u, s, item)
        gain = evaluator.total - base
        if gain <= self.tolerance:
            for (u, s), item in zip(reversed(units), reversed(old)):
                evaluator.set_cell(u, s, item)
            return 0.0
        return gain

    # -- main loop -------------------------------------------------------- #
    def apply(
        self,
        instance: SVGICInstance,
        configuration: Optional[SAVGConfiguration],
        *,
        context: Optional[SolveContext] = None,
        rng: SeedLike = None,
        evaluator: Optional[DeltaEvaluator] = None,
        counts: Optional[np.ndarray] = None,
    ) -> StageOutcome:
        """Run the local search; see the class docstring.

        The default mode builds a private :class:`DeltaEvaluator` over
        ``configuration``.  **In-place mode** — pass ``evaluator=`` (and,
        for size-capped instances, the caller's live ``counts=`` grid) — runs
        the search directly on a caller-owned evaluator instead: moves mutate
        its assignment and running total, ``configuration`` is ignored (may
        be ``None``), and the from-scratch ``delta_drift`` verification is
        skipped so the event hot path stays strictly incremental.  The churn
        engine repairs dynamic sessions this way, restricted via ``users=``
        to the neighbourhood an event touched.
        """
        in_place = evaluator is not None
        if in_place:
            if evaluator.instance is not instance:
                raise ValueError("in-place evaluator must wrap the same instance")
        else:
            evaluator = DeltaEvaluator(instance, configuration)
        size_limit = instance_size_limit(instance)
        if size_limit is not None and counts is None:
            counts = self._cell_counts(evaluator.assignment, instance.num_items)
        candidates = self._candidate_items(instance, context)
        n, k = instance.num_users, instance.num_slots
        pairs = instance.pairs

        if self.users is None:
            user_iter: Sequence[int] = range(n)
            pair_iter: Sequence[int] = range(pairs.shape[0])
        else:
            if self.users.size and (self.users.min() < 0 or self.users.max() >= n):
                raise ValueError("users outside [0, num_users)")
            user_iter = [int(u) for u in self.users]
            member = np.zeros(n, dtype=bool)
            member[self.users] = True
            pair_iter = (
                np.nonzero(member[pairs[:, 0]] & member[pairs[:, 1]])[0].tolist()
                if pairs.shape[0]
                else []
            )

        trace: List[float] = [evaluator.total]
        moves = 0
        passes = 0
        while passes < self.max_passes:
            passes += 1
            improved = False

            # Single-cell swaps, best-improvement per display unit.
            for user in user_iter:
                for slot in range(k):
                    item, _gain = self._best_cell_move(
                        evaluator, user, slot, candidates, counts, size_limit
                    )
                    if item is None:
                        continue
                    old = int(evaluator.assignment[user, slot])
                    evaluator.set_cell(user, slot, item)
                    if counts is not None:
                        if old != UNASSIGNED:
                            counts[old, slot] -= 1
                        counts[item, slot] += 1
                    moves += 1
                    improved = True
                    trace.append(evaluator.total)

            if self.pairwise:
                # Intra-user pairwise exchange: swap the items of two slots.
                for user in user_iter:
                    for s1 in range(k - 1):
                        for s2 in range(s1 + 1, k):
                            a = int(evaluator.assignment[user, s1])
                            b = int(evaluator.assignment[user, s2])
                            if a == b or a == UNASSIGNED or b == UNASSIGNED:
                                continue
                            if size_limit is not None and counts is not None:
                                if (
                                    counts[b, s1] >= size_limit
                                    or counts[a, s2] >= size_limit
                                ):
                                    continue
                            gain = self._try_swap(
                                evaluator, [(user, s1), (user, s2)], [b, a]
                            )
                            if gain > 0.0:
                                if counts is not None:
                                    counts[a, s1] -= 1
                                    counts[b, s2] -= 1
                                    counts[b, s1] += 1
                                    counts[a, s2] += 1
                                moves += 1
                                improved = True
                                trace.append(evaluator.total)

                # Friend-pair exchange at one slot (size-cap neutral).
                for pid in pair_iter:
                    u, v = int(pairs[pid, 0]), int(pairs[pid, 1])
                    for slot in range(k):
                        a = int(evaluator.assignment[u, slot])
                        b = int(evaluator.assignment[v, slot])
                        if a == b or a == UNASSIGNED or b == UNASSIGNED:
                            continue
                        if b in evaluator.assignment[u] or a in evaluator.assignment[v]:
                            continue  # would violate no-duplication
                        gain = self._try_swap(
                            evaluator, [(u, slot), (v, slot)], [b, a]
                        )
                        if gain > 0.0:
                            moves += 1
                            improved = True
                            trace.append(evaluator.total)

            if not improved:
                break

        final = evaluator.configuration()
        delta_total = evaluator.total
        info: Dict[str, Any] = {
            "moves": moves,
            "passes": passes,
            "initial_utility": trace[0],
            "final_utility": delta_total,
            "utility_trace": trace,
            "in_place": in_place,
        }
        if not in_place:
            # A caller-owned evaluator may hold partial rows (inactive users)
            # or drifted preferences; the from-scratch cross-check is only
            # meaningful — and only paid — in the private-evaluator mode.
            info["delta_drift"] = abs(delta_total - total_utility(instance, final))
        return StageOutcome(final, info)
