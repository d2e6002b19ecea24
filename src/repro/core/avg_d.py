"""AVG-D — Deterministic Alignment-aware VR Subgroup Formation (Section 4.3).

AVG-D derandomizes AVG: instead of sampling focal parameters, every iteration
evaluates all candidate parameters ``(c, s, α = x*[u,c,s])`` and executes the
one maximizing

``f(c, s, α) = ALG(S_tar(c,s,α)) + r · OPT_LP(S_fut(c,s,α))``

where ``ALG`` is the utility gained by co-displaying the focal item to the
target subgroup now, ``OPT_LP`` is the LP-estimated utility still available
from the remaining display units, and ``r`` is the balancing ratio (``r=1/4``
gives the deterministic 4-approximation; Figure 12 studies other values).

The rounder builds on AVG's CSF state (:class:`repro.core.avg.CSFState`:
the assignment, the dense shown-items mask, the ``(m, k)`` subgroup counts
and each ``(c, s)`` cell's users ranked once by ``x*``, ties in ascending
user order); filtering a cell's rank row by eligibility gives its
prefixes.  It caches every cell's ALG and removed-LP-mass prefix sums in
padded ``(cells, W)`` arrays and keeps ``OPT_LP(S_cur)`` as a running value
— the practical counterpart of the paper's "reordering the computation"
remark.  Co-displaying ``c*`` at ``s*`` changes eligibility, partners' open
slots and the size cap only in row ``c*`` and column ``s*``, so each
iteration rescans just those m + k − 1 cells in one NumPy pass and then
re-scores every cached prefix.  The choices are bit-identical to the
per-cell rounder kept as a test oracle in
``tests/oracles/avg_d_reference.py`` and pinned by
``tests/test_scan_prefix_equivalence.py``.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.avg import CSFState, lambda_zero_result
from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.lp import FractionalSolution
from repro.core.pipeline import SolveContext, rounding_lp, with_local_search
from repro.core.problem import SVGICInstance
from repro.core.registry import register_algorithm
from repro.core.result import AlgorithmResult
from repro.utils.rng import SeedLike


#: Incidence entries (plus one position-lookup row of ``num_users`` per cell)
#: a single rescan pass may expand; dirty cells beyond it are scanned in chunks,
#: which keeps a pass's temporary arrays to a few MB.
_ENTRY_BUDGET = 1 << 14


class _DeterministicRounder(CSFState):
    """AVG-D's rounding pass: the shared CSF state plus cached prefix sums.

    Cells are the ``(item, slot)`` pairs of the candidate items, item-major.
    Each keeps padded ``(cells, W)`` rows over its ranked eligible users: the
    ALG prefix sums (``-inf`` at prefix lengths that are not evaluated) and
    the removed-LP-mass prefix sums.
    """

    def __init__(
        self,
        instance: SVGICInstance,
        fractional: FractionalSolution,
        balancing_ratio: float,
        advanced_sampling: bool,
    ) -> None:
        self.r = float(balancing_ratio)
        self.advanced_sampling = advanced_sampling
        n, m, k = instance.num_users, instance.num_items, instance.num_slots
        lam = instance.social_weight

        self.pref_weight = (1.0 - lam) * instance.preference  # (n, m)
        self.pair_weight = lam * instance.pair_social  # (P, m)
        pairs = instance.pairs

        # Per-display-unit preference LP mass and per-(pair, slot) social LP mass.
        if fractional.slot_independent:
            x2 = fractional.compact_factors / k  # (n, m)
            unit = np.einsum("um,um->u", self.pref_weight, x2)
            self.unit_mass = np.repeat(unit[:, None], k, axis=1)  # (n, k)
            if pairs.shape[0]:
                mins = np.minimum(x2[pairs[:, 0]], x2[pairs[:, 1]])
                pair = np.einsum("pm,pm->p", self.pair_weight, mins)
                self.pair_mass = np.repeat(pair[:, None], k, axis=1)  # (P, k)
            else:
                self.pair_mass = np.zeros((0, k))
            mass_per_item = x2.sum(axis=0)
        else:
            x3 = np.asarray(fractional.slot_factors)  # (n, m, k)
            self.unit_mass = np.einsum("um,ums->us", self.pref_weight, x3)
            if pairs.shape[0]:
                mins = np.minimum(x3[pairs[:, 0]], x3[pairs[:, 1]])
                self.pair_mass = np.einsum("pm,pms->ps", self.pair_weight, mins)
            else:
                self.pair_mass = np.zeros((0, k))
            mass_per_item = x3.sum(axis=(0, 2))

        self.opt_cur = float(self.unit_mass.sum() + self.pair_mass.sum())
        self.iterations = 0

        items = np.arange(m)
        if advanced_sampling:
            positive = np.nonzero(mass_per_item > 1e-12)[0]
            if positive.size:
                items = positive
        # Users ranked once by decreasing x* (ties in ascending user order);
        # filtering a rank row by eligibility gives each iteration's order.
        super().__init__(
            instance, fractional, items,
            lambda factors: np.argsort(-factors, axis=1, kind="stable"),
        )

        cells = self.cell_item.size
        self._width = n if self.size_limit is None else min(n, self.size_limit)
        self._alg = np.full((cells, self._width), -np.inf)
        self._removed = np.zeros((cells, self._width))
        self._f = np.empty((cells, self._width))
        self._dirty = np.ones(cells, dtype=bool)
        degrees = np.diff(instance.pair_incidence[0])
        entries = min(2 * pairs.shape[0], self._width * int(degrees.max(initial=0)))
        self._chunk = max(1, _ENTRY_BUDGET // (n + entries))

    # ------------------------------------------------------------------ #
    def _scan(self, cells: np.ndarray) -> None:
        """Recompute the cached rows of ``cells`` in one pass.

        A cell's members are its eligible users in rank order, cut at its
        remaining capacity.  Every member's pair contributes an event:

        * ALG gains ``pair_weight[pid, item]`` at the *later* endpoint's
          position (the co-display exists once both members joined);
        * the removed LP mass gains ``pair_mass[pid, slot]`` at the *earlier*
          endpoint's position; a partner outside the prefix counts only while
          its slot is open.

        Events accumulate in (cell, position, pair id) order, so each row's
        prefix sums equal a per-cell sweep bit for bit.
        """
        n, width = self.instance.num_users, self._width
        items, slots = self.cell_item[cells], self.cell_slot[cells]
        assignment = self.config.assignment
        ranked, eligible = self.ranked_eligible(cells)
        position = np.cumsum(eligible, axis=1) - 1
        if self.size_limit is not None:
            capacity = self.size_limit - self.counts[items, slots]
            eligible &= position < capacity[:, None]
        rows, cols = np.nonzero(eligible)
        pos = position[rows, cols]
        users = ranked[rows, cols]
        sizes = np.bincount(rows, minlength=cells.size)

        owner, pid, other = self.instance.incident_pairs(users)
        row, at = rows[owner], pos[owner]
        lookup = np.full((cells.size, n), -1, dtype=np.int64)
        lookup[rows, users] = pos
        other_at = lookup[row, other]
        inside = other_at >= 0
        alg_mask = inside & (other_at < at)
        removed_mask = np.where(
            inside, at < other_at, assignment[other, slots[row]] == UNASSIGNED
        )
        bins = row * width + at
        alg_events = np.bincount(
            bins[alg_mask],
            self.pair_weight[pid[alg_mask], items[row[alg_mask]]],
            cells.size * width,
        )
        removed_events = np.bincount(
            bins[removed_mask],
            self.pair_mass[pid[removed_mask], slots[row[removed_mask]]],
            cells.size * width,
        )

        pref = np.zeros((cells.size, width))
        pref[rows, pos] = self.pref_weight[users, items[rows]]
        unit = np.zeros((cells.size, width))
        unit[rows, pos] = self.unit_mass[users, slots[rows]]
        ends = pos == sizes[rows] - 1  # the last member is always evaluated
        if self.advanced_sampling:
            # Otherwise only at the end of a tie block: thresholds inside a
            # block produce the same target subgroup.
            factors = self.factors[self.rank_row[cells][rows], users]
            ends[:-1] |= factors[1:] < factors[:-1] - 1e-12
        else:
            ends[:] = True
        alg = np.cumsum(pref + alg_events.reshape(-1, width), axis=1)
        scored = np.zeros((cells.size, width), dtype=bool)
        scored[rows[ends], pos[ends]] = True
        alg[~scored] = -np.inf  # f is then -inf there and never the maximum
        self._alg[cells] = alg
        self._removed[cells] = np.cumsum(unit + removed_events.reshape(-1, width), axis=1)

    def best_candidate(self) -> Optional[Tuple[float, int, int, List[int]]]:
        """Evaluate every focal candidate and return (f, item, slot, target members).

        Only the cells the last move touched are rescanned; ``f`` is then
        recomputed for every cached prefix, and the first maximum in
        ``(item, slot, prefix length)`` order wins.
        """
        dirty = np.nonzero(self._dirty)[0]
        for begin in range(0, dirty.size, self._chunk):
            self._scan(dirty[begin : begin + self._chunk])
        self._dirty[:] = False

        f = np.subtract(self.opt_cur, self._removed, out=self._f)
        f *= self.r
        f += self._alg  # alg + r * (opt_cur - removed), elementwise as before
        best = f.max(axis=1)
        cell = int(best.argmax())
        if best[cell] == -np.inf:
            return None
        ranked, eligible = self.ranked_eligible(np.array([cell]))
        members = ranked[eligible][: int(f[cell].argmax()) + 1].tolist()
        return float(best[cell]), int(self.cell_item[cell]), int(self.cell_slot[cell]), members

    def execute(self, item: int, slot: int, members: Sequence[int]) -> None:
        """Co-display ``item`` at ``slot`` to ``members`` and update the running LP mass."""
        members = np.asarray(members, dtype=np.int64)
        assignment = self.config.assignment
        # The members' display units leave S_cur, each followed by its pairs
        # whose other endpoint's slot is still open when it joins.  The
        # subtractions run in that order, one member after another.
        owner, pid, other = self.instance.incident_pairs(members)
        order = np.full(self.instance.num_users, members.size)
        order[members] = np.arange(members.size)
        leaves = (assignment[other, slot] == UNASSIGNED) & (order[other] > owner)
        owners = np.concatenate([np.arange(members.size), owner[leaves]])
        masses = np.concatenate(
            [self.unit_mass[members, slot], self.pair_mass[pid[leaves], slot]]
        )
        for mass in masses[np.argsort(owners, kind="stable")].tolist():
            self.opt_cur -= mass

        self.co_display(item, slot, members)
        self._dirty |= self.touched(item, slot)

    def run(self) -> SAVGConfiguration:
        """Main AVG-D loop: pick and execute the best focal candidate until complete."""
        while self.remaining_units > 0:
            candidate = self.best_candidate()
            if candidate is None:
                self.complete_greedily()
                break
            _, item, slot, members = candidate
            self.execute(item, slot, members)
            self.iterations += 1
        return self.config


@register_algorithm(
    "AVG-D",
    tags=("paper", "st", "approximation"),
    description="Deterministic 4-approximation: LP relaxation + derandomized CSF",
)
def run_avg_d(
    instance: SVGICInstance,
    fractional: Optional[FractionalSolution] = None,
    *,
    balancing_ratio: float = 0.25,
    advanced_sampling: bool = True,
    lp_formulation: str = "simplified",
    prune_items: bool = True,
    max_candidate_items: Optional[int] = None,
    rng: SeedLike = None,  # accepted for interface uniformity; unused (deterministic)
    context: Optional[SolveContext] = None,
    algorithm_name: str = "AVG-D",
) -> AlgorithmResult:
    """Run the deterministic AVG-D algorithm.

    Parameters
    ----------
    balancing_ratio:
        The knob ``r`` trading off the immediate utility gain against the
        LP-estimated future gain.  ``0.25`` matches the worst-case
        4-approximation proof; the paper observes values around 0.7–1.0 give
        near-optimal empirical results (Figure 12).
    advanced_sampling:
        When ``False``, every item and every (duplicate) threshold is
        evaluated — the ``AVG-D–AS`` ablation of Figure 9(b).
    """
    if balancing_ratio < 0:
        raise ValueError(f"balancing_ratio must be non-negative, got {balancing_ratio}")
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

    rounder = _DeterministicRounder(instance, fractional, balancing_ratio, advanced_sampling)
    config = rounder.run()
    config.validate(instance)
    elapsed = time.perf_counter() - start
    info = {
        "lp_objective": fractional.objective,
        "lp_seconds": fractional.lp_seconds,
        "lp_formulation": fractional.formulation,
        "balancing_ratio": balancing_ratio,
        "iterations": rounder.iterations,
        "advanced_sampling": advanced_sampling,
        **lp_info,
    }
    return AlgorithmResult.from_configuration(
        algorithm_name, instance, config, elapsed, info=info,
    )


@register_algorithm(
    "AVG-D+LS",
    tags=("local-search", "st"),
    description="AVG-D followed by the 2-opt local-search improver",
)
def _run_avg_d_with_local_search(
    instance: SVGICInstance,
    *,
    rng: SeedLike = None,
    context: Optional[SolveContext] = None,
    **options: object,
) -> AlgorithmResult:
    """AVG-D followed by the delta-evaluated local search (:func:`with_local_search`)."""
    base = run_avg_d(instance, rng=rng, context=context, algorithm_name="AVG-D+LS", **options)
    return with_local_search(instance, base, context=context)


__all__ = ["run_avg_d"]
