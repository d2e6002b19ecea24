"""AVG — Alignment-aware VR Subgroup Formation (Section 4.2 and 4.4).

AVG is the paper's randomized 4-approximation.  It solves the LP relaxation,
interprets the fractional solution as *utility factors*, and repeatedly runs
Co-display Subgroup Formation (CSF): sample focal parameters ``(c, s, α)``
and co-display the focal item ``c`` at the focal slot ``s`` to every eligible
user whose utility factor ``x*[u,c,s]`` reaches the grouping threshold ``α``.

The implementation includes the two efficiency enhancements of Section 4.4:

* the **advanced LP transformation** (the LP is solved in its compact
  ``LP_SIMP`` form by default; see :mod:`repro.core.lp`), and
* the **advanced focal-parameter sampling** scheme, which samples ``(c, s)``
  proportionally to the maximum eligible utility factor ``x̄*_c_s`` and
  ``α ~ U(0, x̄*_c_s]`` so every iteration assigns at least one display unit
  (Observation 3 shows the outcome distribution is unchanged).

It also supports the SVGIC-ST extension: when the instance carries a
subgroup-size constraint ``M``, CSF adds eligible users in decreasing
utility-factor order and closes the (item, slot) cell once ``M`` users share
it (Section 4.4, "Extending AVG for SVGIC-ST").

AVG and AVG-D (:mod:`repro.core.avg_d`) round on one :class:`CSFState`: the
assignment, a dense ``(n, m)`` shown-items mask, the ``(m, k)`` subgroup
counts and each ``(c, s)`` cell's users ranked once by ``x*``.  A cell's
*head* is its first eligible ranked user, and the head's factor is the cell's
sampling weight.  Eligibility only shrinks, so after a move AVG recomputes the
head only for the cells in the chosen item's row and the chosen slot's column
whose head just joined.  A move's members are the eligible users with
``x* >= α`` in rank order, cut at the cell's remaining capacity.  The
configurations, statistics and random draws are those of the per-user
rounding kept as a test oracle in ``tests/oracles/avg_reference.py``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.configuration import UNASSIGNED, SAVGConfiguration, cell_counts
from repro.core.greedy import greedy_complete, top_k_preference_configuration
from repro.core.lp import FractionalSolution
from repro.core.objective import total_utility
from repro.core.pipeline import (
    SolveContext,
    instance_size_limit,
    rounding_lp,
    with_local_search,
)
from repro.core.problem import SVGICInstance
from repro.core.registry import register_algorithm
from repro.core.result import AlgorithmResult
from repro.utils.rng import SeedLike, ensure_rng

#: The plain Algorithm-2 scheme draws at most this many focal parameters per
#: display unit before the pass finishes with the advanced scheme.
_UNIFORM_DRAWS_PER_UNIT = 200


@dataclass
class CSFStatistics:
    """Bookkeeping of one CSF rounding pass."""

    iterations: int = 0
    idle_iterations: int = 0
    subgroups_formed: int = 0
    fallback_assignments: int = 0


class CSFState:
    """The state a CSF rounding pass mutates, shared by AVG and AVG-D.

    Cells are the ``(item, slot)`` pairs of ``items``, item-major.  Cell ``i``
    reads row ``rank_row[i]`` of ``factors``, the users' utility factors for
    it: one row per item when the LP is slot-independent, one per cell
    otherwise.  ``ranking`` maps ``factors`` to each row's users in rank
    order; the two rounders break ties differently, so each passes its own.
    A user is eligible for a cell while its slot is open and its item is
    unshown; a cell takes no members once its count reaches ``size_limit``.
    """

    def __init__(
        self,
        instance: SVGICInstance,
        fractional: FractionalSolution,
        items: np.ndarray,
        ranking: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        n, m, k = instance.num_users, instance.num_items, instance.num_slots
        self.instance = instance
        self.config = SAVGConfiguration.for_instance(instance)
        self.items_used = np.zeros((n, m), dtype=bool)
        self.counts = cell_counts(self.config.assignment, m)
        self.remaining_units = n * k
        self.size_limit = instance_size_limit(instance)

        self.cell_item = np.repeat(items, k)
        self.cell_slot = np.tile(np.arange(k), items.size)
        if fractional.slot_independent:
            self.factors = (fractional.compact_factors / k)[:, items].T
            self.rank_row = np.arange(self.cell_item.size) // k
        else:
            slot_factors = np.asarray(fractional.slot_factors)[:, items, :]
            self.factors = slot_factors.transpose(1, 2, 0).reshape(-1, n)
            self.rank_row = np.arange(self.cell_item.size)
        self.rank = ranking(self.factors)

    def eligible(self, users: np.ndarray, items: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Whether each user may join the cell ``(item, slot)`` (broadcasting)."""
        shown = self.items_used[users, items]
        return (self.config.assignment[users, slots] == UNASSIGNED) & ~shown

    def ranked_eligible(self, cells: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each cell's users in rank order, and which of them are eligible."""
        ranked = self.rank[self.rank_row[cells]]  # (D, n)
        items, slots = self.cell_item[cells], self.cell_slot[cells]
        return ranked, self.eligible(ranked, items[:, None], slots[:, None])

    def co_display(self, item: int, slot: int, members: np.ndarray) -> None:
        """Show ``item`` at ``slot`` to ``members``."""
        self.config.assignment[members, slot] = item
        self.items_used[members, item] = True
        self.remaining_units -= members.size
        self.counts[item, slot] += members.size

    def touched(self, item: int, slot: int) -> np.ndarray:
        """Mask of the cells a co-display of ``item`` at ``slot`` can change.

        Eligibility, partners' open slots and the cap change only in the
        item's row and the slot's column of cells.
        """
        return (self.cell_item == item) | (self.cell_slot == slot)

    def complete_greedily(self) -> int:
        """Fill every open display unit greedily; return how many there were."""
        filled = self.remaining_units
        greedy_complete(self.instance, self.config, size_limit=self.size_limit)
        self.remaining_units = 0
        return filled


def _rank_ties_by_decreasing_id(factors: np.ndarray) -> np.ndarray:
    """Users by decreasing factor, ties by decreasing user id, per row."""
    users = np.broadcast_to(-np.arange(factors.shape[1]), factors.shape)
    return np.lexsort((users, -factors), axis=1)


class _RandomizedRounder(CSFState):
    """AVG's rounding pass: the shared state plus each cell's head.

    Only users with ``x* > 1e-12`` may join a cell: the first ``length`` of
    its rank row.  ``head`` holds each cell's head position, ``n`` for none.
    """

    def __init__(self, instance: SVGICInstance, fractional: FractionalSolution) -> None:
        items = np.nonzero(fractional.compact_factors.sum(axis=0) > 1e-12)[0]
        super().__init__(instance, fractional, items, _rank_ties_by_decreasing_id)
        n, m, k = instance.num_users, instance.num_items, instance.num_slots
        cells = self.cell_item.size
        self.values = np.take_along_axis(self.factors, self.rank, axis=1)
        self.length = np.count_nonzero(self.values > 1e-12, axis=1)
        self.cell_index = np.full((m, k), -1)
        self.cell_index[self.cell_item, self.cell_slot] = np.arange(cells)
        self.head = np.full(cells, n)
        self._find_heads(np.arange(cells))

    def _find_heads(self, cells: np.ndarray) -> None:
        """Set each cell's head: its first eligible position, if below ``length``."""
        _, eligible = self.ranked_eligible(cells)
        first = eligible.argmax(axis=1)
        found = eligible[np.arange(cells.size), first] & (
            first < self.length[self.rank_row[cells]]
        )
        self.head[cells] = np.where(found, first, self.instance.num_users)

    def form_subgroup(self, cell: int, alpha: float, stats: CSFStatistics) -> None:
        """Co-display cell ``cell``'s item to its eligible users with ``x* >= alpha``.

        ``cell`` is ``-1`` for an item without LP mass, which forms nothing.
        """
        members = np.empty(0, dtype=np.int64)
        if cell >= 0:
            item, slot = int(self.cell_item[cell]), int(self.cell_slot[cell])
            row = self.rank_row[cell]
            end = np.count_nonzero(self.values[row, : self.length[row]] >= alpha)
            # Positions before the head are ineligible.
            members = self.rank[row, self.head[cell] : end]
            members = members[self.eligible(members, item, slot)]
            if self.size_limit is not None:
                members = members[: self.size_limit - self.counts[item, slot]]
        if members.size == 0:
            stats.idle_iterations += 1
            return
        stats.subgroups_formed += 1
        self.co_display(item, slot, members)

        # Eligibility only shrinks, and only for the members, so the heads to
        # move are the members' in the touched cells.
        joined = np.zeros(self.instance.num_users, dtype=bool)
        joined[members] = True
        cells = np.nonzero(self.touched(item, slot) & (self.head < self.instance.num_users))[0]
        self._find_heads(cells[joined[self.rank[self.rank_row[cells], self.head[cells]]]])

    def advanced_loop(self, generator: np.random.Generator, stats: CSFStatistics) -> None:
        while self.remaining_units > 0:
            # Sample among cells with an eligible user and room left, each
            # weighted by its head's utility factor.
            open_ = self.head < self.instance.num_users
            if self.size_limit is not None:
                open_ &= self.counts[self.cell_item, self.cell_slot] < self.size_limit
            cells = np.nonzero(open_)[0]
            if cells.size == 0:
                # No cell with positive mass can make progress; the greedy
                # completion in the caller handles the remaining units.
                return
            weights = self.values[self.rank_row[cells], self.head[cells]]
            choice = int(generator.choice(cells.size, p=weights / weights.sum()))
            alpha = float(generator.uniform(0.0, weights[choice]))
            # Guard against alpha == 0 exactly (open interval in the paper).
            alpha = max(alpha, 1e-15)
            stats.iterations += 1
            self.form_subgroup(int(cells[choice]), alpha, stats)

    def uniform_loop(self, generator: np.random.Generator, stats: CSFStatistics) -> None:
        m, k = self.instance.num_items, self.instance.num_slots
        limit = _UNIFORM_DRAWS_PER_UNIT * self.instance.num_users * k
        while self.remaining_units > 0 and stats.iterations < limit:
            stats.iterations += 1
            item = int(generator.integers(0, m))
            slot = int(generator.integers(0, k))
            alpha = max(float(generator.uniform(0.0, 1.0)), 1e-15)
            self.form_subgroup(int(self.cell_index[item, slot]), alpha, stats)


def csf_rounding(
    instance: SVGICInstance,
    fractional: FractionalSolution,
    *,
    rng: SeedLike = None,
    advanced_sampling: bool = True,
) -> Tuple[SAVGConfiguration, CSFStatistics]:
    """One randomized CSF rounding pass over the fractional solution ``X*``.

    On an SVGIC-ST instance every cell is capped at the instance's ``M``.

    Parameters
    ----------
    advanced_sampling:
        ``True`` — the Section-4.4 scheme (sample ``(c, s)`` proportionally to
        the maximum eligible factor, ``α ~ U(0, max]``); every iteration makes
        progress.  ``False`` — the plain Algorithm-2 scheme (uniform ``(c, s)``,
        ``α ~ U(0, 1]``) with idle iterations, used by the Figure-9(b)
        ablation; after ``200 · n · k`` iterations the pass falls back to the
        advanced scheme so that it always terminates.
    """
    generator = ensure_rng(rng)
    stats = CSFStatistics()
    rounder = _RandomizedRounder(instance, fractional)
    if not advanced_sampling:
        rounder.uniform_loop(generator, stats)
    # Also the uniform scheme's safety net (identical outcome distribution,
    # Observation 3), so the ablation never hangs.
    rounder.advanced_loop(generator, stats)
    if rounder.remaining_units > 0:
        stats.fallback_assignments += rounder.complete_greedily()
    return rounder.config, stats


def lambda_zero_result(
    instance: SVGICInstance, algorithm_name: str, start: float
) -> Optional[AlgorithmResult]:
    """The optimum of the trivial ``λ = 0`` case (each user's top-k), else ``None``."""
    if instance.social_weight != 0:
        return None
    config = top_k_preference_configuration(instance)
    return AlgorithmResult.from_configuration(
        algorithm_name, instance, config, time.perf_counter() - start,
        optimal=True, info={"special_case": "lambda=0"},
    )


@register_algorithm(
    "AVG",
    tags=("paper", "st", "approximation"),
    description="Randomized 4-approximation: LP relaxation + CSF rounding",
)
def run_avg(
    instance: SVGICInstance,
    fractional: Optional[FractionalSolution] = None,
    *,
    rng: SeedLike = None,
    context: Optional[SolveContext] = None,
    repetitions: int = 1,
    advanced_sampling: bool = True,
    lp_formulation: str = "simplified",
    prune_items: bool = True,
    max_candidate_items: Optional[int] = None,
    algorithm_name: str = "AVG",
) -> AlgorithmResult:
    """Run the full AVG pipeline (LP relaxation + randomized CSF rounding).

    Parameters
    ----------
    fractional:
        Reuse a pre-computed fractional solution (e.g. shared across the
        repetitions of an experiment); solved on demand otherwise.
    context:
        Optional shared :class:`~repro.core.pipeline.SolveContext`; when
        given (and ``fractional`` is not), the LP relaxation is obtained
        through its cache so one solve serves the whole algorithm line-up.
    repetitions:
        Number of independent rounding passes; the best configuration is
        returned (Corollary 4.1: ``O(log n)`` repetitions give ``4 + ε``
        with high probability).
    advanced_sampling / lp_formulation:
        Toggles for the Section-4.4 enhancements (used by the Figure-9(b)
        ablation: ``AVG–AS`` and ``AVG–ALP``).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    generator = ensure_rng(rng)
    start = time.perf_counter()
    shortcut = lambda_zero_result(instance, algorithm_name, start)
    if shortcut is not None:
        return shortcut
    fractional, lp_info = rounding_lp(
        instance, fractional, context,
        formulation=lp_formulation,
        prune_items=prune_items,
        max_candidate_items=max_candidate_items,
    )

    best_config: Optional[SAVGConfiguration] = None
    best_value = -np.inf
    total_stats = CSFStatistics()
    for _ in range(repetitions):
        config, stats = csf_rounding(
            instance, fractional, rng=generator, advanced_sampling=advanced_sampling
        )
        for stat in fields(CSFStatistics):
            total = getattr(total_stats, stat.name) + getattr(stats, stat.name)
            setattr(total_stats, stat.name, total)
        value = total_utility(instance, config)
        if value > best_value:
            best_value = value
            best_config = config

    assert best_config is not None
    best_config.validate(instance)
    elapsed = time.perf_counter() - start
    info = {
        "lp_objective": fractional.objective,
        "lp_seconds": fractional.lp_seconds,
        "lp_formulation": fractional.formulation,
        "repetitions": repetitions,
        **asdict(total_stats),
        "advanced_sampling": advanced_sampling,
        **lp_info,
    }
    return AlgorithmResult.from_configuration(
        algorithm_name, instance, best_config, elapsed, info=info,
    )


@register_algorithm(
    "AVG+LS",
    tags=("local-search", "st"),
    description="AVG followed by the 2-opt local-search improver",
)
def _run_avg_with_local_search(
    instance: SVGICInstance,
    *,
    rng: SeedLike = None,
    context: Optional[SolveContext] = None,
    **options: object,
) -> AlgorithmResult:
    """AVG followed by the delta-evaluated local search (:func:`with_local_search`)."""
    base = run_avg(instance, rng=rng, context=context, algorithm_name="AVG+LS", **options)
    return with_local_search(instance, base, context=context)


__all__ = ["CSFState", "CSFStatistics", "csf_rounding", "run_avg"]
