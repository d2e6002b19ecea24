"""Vectorized evaluation engine for the SVGIC and SVGIC-ST objectives.

Implements the SAVG utility of Definition 3, the teleportation-aware variant
of Definition 5, the scaled (lambda = 1/2) objective used throughout the AVG
analysis (Section 4), and the weighted variants used by the practical
extensions of Section 5 (commodity values and slot significance).

Every quantity is computed with dense NumPy tensor operations over the
``(n, m)`` preference matrix, the ``(|E|, m)`` social matrix and the
``(n, k)`` assignment array — no per-user/per-slot/per-edge Python loops.
The original scalar implementation survives as the test oracle
``tests/oracles/objective_reference.py``; the property tests in
``tests/test_objective_equivalence.py`` pin the two implementations
together to 1e-9.

For algorithms that repeatedly re-evaluate slightly different
configurations, :class:`DeltaEvaluator` maintains the utility breakdown
incrementally: changing a single ``(user, slot)`` cell costs
``O(deg(user) * k)`` instead of a full ``O(nk + |E|k)`` re-evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.configuration import UNASSIGNED, SAVGConfiguration, cell_counts, shown_items
from repro.core.problem import SVGICInstance, SVGICSTInstance


@dataclass(frozen=True)
class UtilityBreakdown:
    """Decomposition of a configuration's total SAVG utility.

    Attributes
    ----------
    preference:
        Weighted preference part ``(1-lambda) * sum p(u, c)``.
    social:
        Weighted direct social part ``lambda * sum tau`` over co-displayed pairs.
    indirect_social:
        Weighted *discounted* indirect part (zero for plain SVGIC).
    """

    preference: float
    social: float
    indirect_social: float = 0.0

    @property
    def total(self) -> float:
        """Total SAVG utility."""
        return self.preference + self.social + self.indirect_social

    @property
    def preference_share(self) -> float:
        """Fraction of the total contributed by preference (``Personal%``)."""
        total = self.total
        return self.preference / total if total > 0 else 0.0

    @property
    def social_share(self) -> float:
        """Fraction of the total contributed by social utility (``Social%``)."""
        total = self.total
        return (self.social + self.indirect_social) / total if total > 0 else 0.0


# --------------------------------------------------------------------------- #
# Vectorized building blocks
# --------------------------------------------------------------------------- #
def _masked_gather(matrix: np.ndarray, assignment: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cell lookup ``matrix[row, assignment[row, s]]`` with UNASSIGNED masked out.

    Returns ``(values, mask)`` of the assignment's shape; ``values`` is zero
    where ``mask`` is False.
    """
    mask = assignment != UNASSIGNED
    items = np.where(mask, assignment, 0)
    values = np.take_along_axis(matrix, items, axis=1)
    return np.where(mask, values, 0.0), mask


def _edge_slot_matches(
    instance: SVGICInstance, assignment: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Direct co-display structure over all edges at once.

    Returns ``(same, items)`` of shape ``(|E|, k)``: ``same[e, s]`` is True
    when both endpoints of edge ``e`` display the same (assigned) item at
    slot ``s``, and ``items`` holds that item index (0 where ``same`` is
    False, safe for gathering).
    """
    head = assignment[instance.edges[:, 0]]
    tail = assignment[instance.edges[:, 1]]
    same = (head == tail) & (head != UNASSIGNED)
    return same, np.where(same, head, 0)


def raw_preference_total(instance: SVGICInstance, config: SAVGConfiguration) -> float:
    """Unweighted ``sum_u sum_{c in A(u,.)} p(u, c)`` over assigned display units."""
    values, _ = _masked_gather(instance.preference, config.assignment)
    return float(values.sum())


def _raw_social_components(
    instance: SVGICInstance, assignment: np.ndarray, *, with_indirect: bool
) -> Tuple[float, float]:
    """(direct, indirect) unweighted social totals, sharing one edge-gather pass."""
    if instance.num_edges == 0:
        return 0.0, 0.0
    same, items = _edge_slot_matches(instance, assignment)
    values = np.take_along_axis(instance.social, items, axis=1)
    direct_total = float(values[same].sum())
    if not with_indirect:
        return direct_total, 0.0
    member = shown_items(assignment, instance.num_items)
    both = member[instance.edges[:, 0]] & member[instance.edges[:, 1]]  # (E, m)
    direct = np.zeros_like(both)
    edge_rows = np.broadcast_to(np.arange(instance.num_edges)[:, None], same.shape)[same]
    direct[edge_rows, items[same]] = True
    return direct_total, float(instance.social[both & ~direct].sum())


def raw_social_total(instance: SVGICInstance, config: SAVGConfiguration) -> float:
    """Unweighted ``sum tau(u, v, c)`` over directed edges with a direct co-display on ``c``."""
    direct, _ = _raw_social_components(instance, config.assignment, with_indirect=False)
    return direct


def raw_indirect_social_total(instance: SVGICInstance, config: SAVGConfiguration) -> float:
    """Unweighted ``sum tau(u, v, c)`` over directed edges with an *indirect* co-display on ``c``.

    Indirect co-display (Definition 4): both endpoints are displayed the same
    item, but at different slots.  The no-duplication constraint makes direct
    and indirect co-display mutually exclusive per (edge, item).
    """
    _, indirect = _raw_social_components(instance, config.assignment, with_indirect=True)
    return indirect


def evaluate(instance: SVGICInstance, config: SAVGConfiguration) -> UtilityBreakdown:
    """SAVG utility (Definition 3) of ``config`` on ``instance``.

    Returns the weighted decomposition; ``.total`` is the objective value of
    the SVGIC problem.
    """
    lam = instance.social_weight
    preference = (1.0 - lam) * raw_preference_total(instance, config)
    social = lam * raw_social_total(instance, config)
    return UtilityBreakdown(preference=preference, social=social)


def evaluate_st(instance: SVGICSTInstance, config: SAVGConfiguration) -> UtilityBreakdown:
    """SAVG utility with indirect co-display (Definition 5) of ``config``.

    The size constraint is *not* enforced here; use
    :func:`repro.metrics.subgroups.size_violations` to check feasibility.
    """
    lam = instance.social_weight
    preference = (1.0 - lam) * raw_preference_total(instance, config)
    direct, indirect = _raw_social_components(instance, config.assignment, with_indirect=True)
    return UtilityBreakdown(
        preference=preference,
        social=lam * direct,
        indirect_social=lam * instance.teleport_discount * indirect,
    )


def total_utility(instance: SVGICInstance, config: SAVGConfiguration) -> float:
    """Shortcut for ``evaluate(instance, config).total`` (ST-aware)."""
    if isinstance(instance, SVGICSTInstance):
        return evaluate_st(instance, config).total
    return evaluate(instance, config).total


def scaled_total_utility(instance: SVGICInstance, config: SAVGConfiguration) -> float:
    """Objective on the scaled (lambda = 1/2, x2) scale used by Section 4.

    Equals ``sum p'(u,c) + sum tau(u,v,c)`` where ``p' = (1-lambda)/lambda p``;
    the paper's running example (Examples 4 and 5, totals 9.75 / 9.85 / ...)
    is reported on this scale.
    """
    if instance.social_weight == 0:
        raise ValueError("scaled objective undefined for social_weight=0")
    return total_utility(instance, config) / instance.social_weight


def per_user_utility(instance: SVGICInstance, config: SAVGConfiguration) -> np.ndarray:
    """Per-user achieved SAVG utility ``sum_{c in A(u,.)} w_A(u, c)``.

    The regret-ratio metric (Section 6.5) is built on this vector.  Social
    utility ``tau(u, v, c)`` is credited to user ``u`` (the viewer), matching
    Definition 3.
    """
    lam = instance.social_weight
    pref_values, _ = _masked_gather(instance.preference, config.assignment)
    values = (1.0 - lam) * pref_values.sum(axis=1)
    if instance.num_edges:
        same, items = _edge_slot_matches(instance, config.assignment)
        social_values = np.take_along_axis(instance.social, items, axis=1)
        per_edge = np.where(same, social_values, 0.0).sum(axis=1)
        np.add.at(values, instance.edges[:, 0], lam * per_edge)
    return values


def optimistic_user_upper_bound(instance: SVGICInstance) -> np.ndarray:
    """Per-user upper bound used by the happiness/regret ratio (Section 6.5).

    For each user ``u``, the bound is ``max_{C_u} sum_{c in C_u} w_bar(u, c)``
    where ``w_bar(u,c) = (1-lambda) p(u,c) + lambda sum_{v: (u,v) in E} tau(u,v,c)``
    — the utility ``u`` would get if every friend viewed every one of her k
    favourite items together with her.
    """
    lam = instance.social_weight
    w_bar = (1.0 - lam) * instance.preference.copy()
    if instance.num_edges:
        np.add.at(w_bar, instance.edges[:, 0], lam * instance.social)
    k = instance.num_slots
    # Sum of the k largest w_bar values per user.
    top_k = np.partition(w_bar, instance.num_items - k, axis=1)[:, instance.num_items - k:]
    return top_k.sum(axis=1)


def weighted_total_utility(
    instance: SVGICInstance,
    config: SAVGConfiguration,
    *,
    commodity_values: Optional[np.ndarray] = None,
    slot_significance: Optional[np.ndarray] = None,
) -> float:
    """Objective with the Section-5 weights (commodity value, slot significance).

    ``commodity_values`` is an ``(m,)`` array of per-item weights ``omega_c``;
    ``slot_significance`` is a ``(k,)`` array of per-slot weights ``gamma_s``.
    Either may be ``None`` (treated as all-ones).  The weighting follows the
    extended objectives of Section 5 A/B: the contribution of user ``u``
    viewing item ``c`` at slot ``s`` (preference plus the social utility of
    co-displays at that slot) is multiplied by ``omega_c * gamma_s``.
    """
    lam = instance.social_weight
    m, k = instance.num_items, instance.num_slots
    omega = np.ones(m) if commodity_values is None else np.asarray(commodity_values, dtype=float)
    gamma = np.ones(k) if slot_significance is None else np.asarray(slot_significance, dtype=float)
    if omega.shape != (m,):
        raise ValueError(f"commodity_values must have shape ({m},), got {omega.shape}")
    if gamma.shape != (k,):
        raise ValueError(f"slot_significance must have shape ({k},), got {gamma.shape}")

    assignment = config.assignment
    pref_values, mask = _masked_gather(instance.preference, assignment)
    # pref_values is already zero at unassigned cells, so the item weights
    # need no extra masking.
    cell_weights = omega[np.where(mask, assignment, 0)] * gamma[None, :]
    total = (1.0 - lam) * float((cell_weights * pref_values).sum())
    if instance.num_edges:
        same, items = _edge_slot_matches(instance, assignment)
        social_values = np.take_along_axis(instance.social, items, axis=1)
        edge_weights = np.where(same, omega[items], 0.0) * gamma[None, :]
        total += lam * float((edge_weights * social_values).sum())
    return total


# --------------------------------------------------------------------------- #
# Incremental evaluation
# --------------------------------------------------------------------------- #
#: Work entries one :meth:`DeltaEvaluator.probe_many` pass may expand: per
#: unit its ``m`` item columns, its candidate columns and its incident pairs
#: (times ``k**2`` on SVGIC-ST).  Larger batches are scored in chunks, which
#: keeps a pass's temporary arrays to a few MB.
_PROBE_ENTRY_BUDGET = 1 << 16


class DeltaEvaluator:
    """Incrementally maintained SAVG utility of a mutable configuration.

    Wraps a (possibly partial) assignment and keeps the weighted utility
    breakdown — preference, direct social and (for SVGIC-ST instances)
    discounted indirect social — up to date as single ``(user, slot)`` cells
    change.  One :meth:`set_cell` call costs ``O(deg(user) * k)``: only the
    friend pairs of the mutated user and the two affected items need to be
    reconciled, versus ``O(nk + |E|k)`` for a from-scratch evaluation.

    The evaluator owns its assignment copy and the ``(m, k)`` subgroup sizes
    :attr:`counts` of it (users shown item ``c`` at slot ``s``; unassigned
    cells are not counted); mutate both only through :meth:`set_cell` /
    :meth:`clear_cell` / :meth:`clear_row`, which keep them in step.  Callers
    that need the sizes (local search, dynamic sessions, the sharded cap
    eviction) read :attr:`counts` instead of keeping a grid of their own.
    Duplicate items within a user's row are tolerated (contributions follow
    the same semantics as the full evaluation on such configurations), so
    intermediate states of local search moves need no special casing.

    Read-only probes score moves without writing cells: :meth:`probe_many`
    every candidate item of a batch of display units, :meth:`slot_swap_gains`
    and :meth:`pair_exchange_gains` batches of pairwise exchanges in closed
    form.
    """

    def __init__(
        self,
        instance: SVGICInstance,
        config: Optional[SAVGConfiguration] = None,
    ) -> None:
        self.instance = instance
        self._is_st = isinstance(instance, SVGICSTInstance)
        self._d_tel = instance.teleport_discount if self._is_st else 0.0
        self._lam = instance.social_weight
        if config is None:
            config = SAVGConfiguration.for_instance(instance)
        if config.assignment.shape != (instance.num_users, instance.num_slots):
            raise ValueError(
                f"configuration shape {config.assignment.shape} does not match instance "
                f"({instance.num_users}, {instance.num_slots})"
            )
        self.assignment = config.assignment.copy()
        self.counts = cell_counts(self.assignment, instance.num_items)
        # Preference rows are read through this indirection so dynamic
        # sessions can drift a user's preferences without rebuilding the
        # evaluator; copy-on-write in :meth:`update_preference_row` keeps the
        # instance itself immutable.
        self._pref = instance.preference

        # Pair structures (undirected, with both directed taus combined),
        # flattened to a CSR incidence so one mutation touches its incident
        # pairs with a handful of vectorized ops, and a batch of exchange
        # probes expands many users' neighbourhoods in one gather.
        self._pair_social = instance.pair_social
        # Row ``u`` of the incidence lists u's pairs in ascending pair id
        # with the other endpoint.
        self._inc_ptr, self._inc_pids, self._inc_others = instance.pair_incidence
        # earlier_slot[t, t']: slot t' comes before slot t.
        self._earlier_slot = np.tri(instance.num_slots, k=-1, dtype=bool)
        # Probe work entries of the largest incidence row (see probe_many).
        self._pair_entries = int(np.diff(self._inc_ptr).max(initial=0)) * (
            instance.num_slots**2 if self._is_st else 1
        )
        # Per-user item counts are derived from the (n, k) assignment on
        # demand (a row holds at most k items) instead of materializing a
        # dense (n, m) count grid — that grid alone is ~100 MB at n=50k,
        # m=250, and it was the evaluator's only dense (n, m) structure.

        initial = self._full_breakdown()
        self._preference = initial.preference
        self._social = initial.social
        self._indirect = initial.indirect_social

    # ------------------------------------------------------------------ #
    def _incident(self, user: int) -> Tuple[np.ndarray, np.ndarray]:
        """``user``'s pair ids and the other endpoints (views into the incidence)."""
        lo, hi = self._inc_ptr[user], self._inc_ptr[user + 1]
        return self._inc_pids[lo:hi], self._inc_others[lo:hi]

    # ------------------------------------------------------------------ #
    def _full_breakdown(self) -> UtilityBreakdown:
        # Reads preference through ``self._pref`` (not the instance) so the
        # breakdown stays truthful after :meth:`update_preference_row`; the
        # arithmetic matches :func:`evaluate` / :func:`evaluate_st` term for
        # term when no drift happened.
        pref_values, _ = _masked_gather(self._pref, self.assignment)
        preference = (1.0 - self._lam) * float(pref_values.sum())
        direct, indirect = _raw_social_components(
            self.instance, self.assignment, with_indirect=self._is_st
        )
        return UtilityBreakdown(
            preference=preference,
            social=self._lam * direct,
            indirect_social=self._lam * self._d_tel * indirect,
        )

    def _social_around(
        self, user: int, items: Tuple[int, ...], old_row: np.ndarray
    ) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """(direct, indirect) social mass on ``user``'s pairs for ``items``, before and after.

        "Before" reads ``user``'s row as ``old_row``, "after" as it is now;
        the friends' rows, each item's pair weights and where the friends
        show it are gathered once for both.  Direct matches contribute
        ``lambda * w^c_e`` per matching slot; with teleportation, a shared
        item without any direct match contributes the discounted
        ``lambda * d_tel * w^c_e`` once.  Each sum adds the items in order,
        as the two-pass form in ``tests/oracles/set_cell_reference.py`` does,
        so the running totals move bit for bit as they do there.
        """
        pids, others = self._incident(user)
        sums = [[0.0, 0.0], [0.0, 0.0]]
        if pids.size == 0 or not items:
            return (0.0, 0.0), (0.0, 0.0)
        rows = (old_row, self.assignment[user])
        rows_v = self.assignment[others]  # (deg, k)
        for item in items:
            v_shows = rows_v == item
            weights = self._lam * self._pair_social[pids, item]
            v_any = v_shows.any(axis=1) if self._is_st else None
            for total, row_u in zip(sums, rows):
                u_shows = row_u == item
                direct_slots = (u_shows & v_shows).sum(axis=1)  # (deg,)
                total[0] += float(direct_slots @ weights)
                if self._is_st and u_shows.any():
                    shared = (direct_slots == 0) & v_any
                    if np.any(shared):
                        total[1] += self._d_tel * float(weights[shared].sum())
        return (sums[0][0], sums[0][1]), (sums[1][0], sums[1][1])

    # ------------------------------------------------------------------ #
    def check_user(self, user: int) -> int:
        """``user`` as an ``int``; ``ValueError`` when it is outside ``[0, n)``.

        Negative ids would otherwise wrap around to the last users.
        """
        user = int(user)
        if not 0 <= user < self.instance.num_users:
            raise ValueError(f"user {user} outside [0, {self.instance.num_users})")
        return user

    def set_cell(self, user: int, slot: int, item: int) -> float:
        """Display ``item`` to ``user`` at ``slot`` (``UNASSIGNED`` clears the cell).

        Returns the new total utility.
        """
        user = self.check_user(user)
        if not 0 <= slot < self.instance.num_slots:
            raise ValueError(f"slot {slot} outside [0, {self.instance.num_slots})")
        if item != UNASSIGNED and not 0 <= item < self.instance.num_items:
            raise ValueError(f"item index {item} outside [0, {self.instance.num_items})")
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

        old_row = self.assignment[user].copy()
        self.assignment[user, slot] = item
        before, after = self._social_around(user, affected, old_row)

        self._social += after[0] - before[0]
        self._indirect += after[1] - before[1]
        return self.total

    def clear_cell(self, user: int, slot: int) -> float:
        """Unassign the display unit ``(user, slot)``; returns the new total utility."""
        return self.set_cell(user, slot, UNASSIGNED)

    def clear_row(self, user: int) -> float:
        """Unassign every display unit of ``user`` (she deactivates/leaves).

        A deactivated user contributes nothing — no preference mass and no
        direct or indirect co-displays — exactly the semantics of evaluating
        the active subgroup only.  Costs ``O(deg(user) * k^2)`` via the
        per-cell delta path; returns the new total utility.
        """
        for slot in range(self.instance.num_slots):
            if self.assignment[user, slot] != UNASSIGNED:
                self.set_cell(user, slot, UNASSIGNED)
        return self.total

    def update_preference_row(self, user: int, values: np.ndarray) -> float:
        """Drift ``user``'s preference row to ``values`` and update the total.

        The running preference mass is adjusted only for the user's assigned
        display units (``O(k)``); the evaluator's preference view is
        copy-on-write, so the wrapped instance is never mutated.  Social
        terms are untouched — preference drift cannot change co-displays.
        Returns the new total utility.
        """
        user = self.check_user(user)
        values = np.asarray(values, dtype=float)
        if values.shape != (self.instance.num_items,):
            raise ValueError(
                f"values must have shape ({self.instance.num_items},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("preference values must be finite and non-negative")
        row = self.assignment[user]
        assigned = row[row != UNASSIGNED]
        if assigned.size:
            self._preference += (1.0 - self._lam) * (
                float(values[assigned].sum()) - float(self._pref[user, assigned].sum())
            )
        if self._pref is self.instance.preference:
            self._pref = self.instance.preference.copy()
        self._pref[user] = values
        return self.total

    def direct_gains(self, user: int, slot: int) -> np.ndarray:
        """Absolute direct marginal gain of showing each item at ``(user, slot)``.

        Entry ``c`` is ``(1-lambda) p(u, c)`` plus ``lambda * w^c_e`` summed
        over the incident pairs whose other endpoint currently displays ``c``
        at ``slot`` — the quantity the dynamic session's greedy join policy
        ranks items by (Section 5F), batched over all ``m`` items in
        ``O(deg(user) + m)``.  Deliberately *excludes* the teleportation
        term, matching the scalar reference's per-edge marginal gain; unlike
        :meth:`probe_many` the values are absolute, not deltas against the
        currently displayed item.
        """
        user = self.check_user(user)
        gains = (1.0 - self._lam) * self._pref[user].copy()
        pids, others = self._incident(user)
        if pids.size:
            shown = self.assignment[others, slot]
            assigned = shown != UNASSIGNED
            if np.any(assigned):
                np.add.at(
                    gains,
                    shown[assigned],
                    self._lam * self._pair_social[pids[assigned], shown[assigned]],
                )
        return gains

    def probe_many(
        self, units: Union[Tuple[int, int], np.ndarray], candidates: np.ndarray
    ) -> np.ndarray:
        """Utility deltas of assigning each of ``candidates`` to display units.

        ``units`` is one ``(user, slot)`` pair, or a ``(U, 2)`` array of
        them.  For a pair the result is a float array of ``candidates``'s
        length whose entry ``i`` equals
        ``set_cell(user, slot, candidates[i]) - total``, computed without
        mutating the evaluator; a ``(U, 2)`` array gives one such row per
        unit, ``(U, len(candidates))``.  Entries for the item a unit
        currently displays are 0.

        Every row is scored against the current assignment, independently of
        the rest of the batch.  One NumPy pass covers the batch: the units'
        incident pairs are expanded with
        :meth:`~repro.core.problem.SVGICInstance.incident_pairs`, and every
        per-item sum accumulates in incidence order.  A unit costs
        ``O(deg(user) + m)`` on SVGIC and ``O(deg(user) * k^2 + m)`` on
        SVGIC-ST, where the teleportation term couples a move to both
        endpoints' whole rows.  Batches beyond ``_PROBE_ENTRY_BUDGET`` work
        entries (counted at the largest incidence) are scored in chunks.
        ``tests/test_pipeline.py`` pins the deltas to the scalar
        ``set_cell``/revert loop (to 1e-9), and the ``(U, 2)`` form to
        stacked single-unit calls (bit for bit).
        """
        batch = np.asarray(units, dtype=np.int64)
        single = batch.ndim == 1
        users, slots = batch.reshape(-1, 2).T
        n, m, k = self.instance.num_users, self.instance.num_items, self.instance.num_slots
        for values, bound, what in ((users, n, "user"), (slots, k, "slot")):
            if values.size and (values.min() < 0 or values.max() >= bound):
                bad = values[(values < 0) | (values >= bound)][0]
                raise ValueError(f"{what} {bad} outside [0, {bound})")
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size and (candidates.min() < 0 or candidates.max() >= m):
            raise ValueError(f"candidate item outside [0, {m})")

        deltas = np.zeros((users.size, candidates.size))
        if candidates.size:
            step = max(1, _PROBE_ENTRY_BUDGET // (m + candidates.size + self._pair_entries))
            for lo in range(0, users.size, step):
                hi = lo + step
                deltas[lo:hi] = self._probe_rows(users[lo:hi], slots[lo:hi], candidates)
        return deltas[0] if single else deltas

    def _probe_rows(
        self, users: np.ndarray, slots: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """:meth:`probe_many`'s deltas for one chunk of validated units."""
        size, m = users.size, self.instance.num_items
        lam = self._lam
        old = self.assignment[users, slots]
        has_old = old != UNASSIGNED
        old_pref = np.where(has_old, self._pref[users, np.where(has_old, old, 0)], 0.0)
        deltas = (1.0 - lam) * (self._pref[users[:, None], candidates] - old_pref[:, None])

        owner, pids, others = self.instance.incident_pairs(users)
        if pids.size:
            shown = self.assignment[others, slots[owner]]  # neighbours' items at the slot
            assigned = shown != UNASSIGNED
            own, pid, item = owner[assigned], pids[assigned], shown[assigned]
            gain = np.bincount(
                own * m + item, weights=lam * self._pair_social[pid, item], minlength=size * m
            )
            lost = item == old[own]
            loss = lam * np.bincount(
                own[lost], weights=self._pair_social[pid[lost], item[lost]], minlength=size
            )
            deltas += gain.reshape(size, m)[:, candidates] - loss[:, None]
            if self._is_st:
                deltas += self._st_indirect_rows(
                    users, old, owner, pids, others, shown, candidates
                )
        deltas[candidates == old[:, None]] = 0.0
        return deltas

    def _st_indirect_rows(
        self,
        users: np.ndarray,
        old: np.ndarray,
        owner: np.ndarray,
        pids: np.ndarray,
        others: np.ndarray,
        shown: np.ndarray,
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Teleportation (indirect co-display) part of :meth:`_probe_rows`'s deltas.

        For a pair ``(u, v)`` and an item ``c``, the discounted indirect term
        ``d_tel * lambda * w^c`` applies exactly when both endpoints display
        ``c`` somewhere but at no common slot.  Only items ``v`` displays can
        hold it, so each incidence entry contributes at most one term per
        distinct item of ``v``'s row.  Placing ``c`` at ``(u, s)`` makes the
        pair indirect on ``c`` unless ``v`` shows ``c`` at ``s`` or some slot
        already matches directly; before the move it was indirect iff ``u``
        already showed ``c``.  Removing the old item ends its indirect term,
        or starts one where the probed slot was the pair's only direct match
        and ``u`` still shows the item elsewhere.  Row ``r`` of the result is
        added to the deltas of ``users[r]``.
        """
        size, m = users.size, self.instance.num_items
        coef = self._lam * self._d_tel
        rows = self.assignment[users]
        own = rows[owner]  # (E, k): the probing user's row, per incident pair
        theirs = self.assignment[others]  # (E, k)
        same_item = theirs[:, :, None] == theirs[:, None, :]  # (E, k, k)
        # Each item of v's row is counted once, at its first slot, with its
        # number of direct matches.
        first = (theirs != UNASSIGNED) & ~(same_item & self._earlier_slot).any(axis=2)
        matched = (theirs == own) & (own != UNASSIGNED)
        direct = (same_item & matched[:, None, :]).sum(axis=2)
        at_slot = theirs == shown[:, None]
        user_has = (theirs[:, :, None] == own[:, None, :]).any(axis=2)

        change = (~at_slot).astype(float) - user_has
        entry, at = np.nonzero(first & (direct == 0) & (change != 0))
        item = theirs[entry, at]
        terms = coef * self._pair_social[pids[entry], item] * change[entry, at]
        placed = np.bincount(owner[entry] * m + item, weights=terms, minlength=size * m)

        kept = ((rows == old[:, None]).sum(axis=1) > 1)[owner]
        change = (kept[:, None] & (direct == at_slot)).astype(float) - (direct == 0)
        is_old = first & (theirs == old[owner][:, None])
        entry, at = np.nonzero(is_old & (change != 0))
        terms = coef * self._pair_social[pids[entry], theirs[entry, at]] * change[entry, at]
        removed = np.bincount(owner[entry], weights=terms, minlength=size)
        return placed.reshape(size, m)[:, candidates] + removed[:, None]

    # ------------------------------------------------------------------ #
    def slot_swap_gains(
        self, users: np.ndarray, first_slots: np.ndarray, second_slots: np.ndarray
    ) -> np.ndarray:
        """Utility deltas of swapping the items of two of a user's slots, batched.

        Entry ``i`` is the change of :attr:`total` when ``users[i]`` trades
        the items shown at ``first_slots[i]`` and ``second_slots[i]`` — what
        the two corresponding :meth:`set_cell` calls produce — computed
        without mutating the evaluator.  Both cells must be assigned, to
        items shown once in the row (``ValueError`` otherwise).

        The preference mass does not move, and on each incident pair
        ``q = (u, x)`` only the direct matches of the two items do; with
        teleportation a lost direct match falls back to the discounted
        indirect term.  With ``a``/``b`` the items at ``s1``/``s2``, ``w``
        the pair weights, ``lambda`` the social weight and ``d`` the teleport
        discount (0 for SVGIC) the gain is
        ``lambda (1-d) sum_q [w_q(a) ([A(x,s2)=a] - [A(x,s1)=a])
        + w_q(b) ([A(x,s1)=b] - [A(x,s2)=b])]``,
        summed for every entry in one pass over the users' flat incidence.
        """
        users = np.asarray(users, dtype=np.int64)
        first_slots = np.asarray(first_slots, dtype=np.int64)
        second_slots = np.asarray(second_slots, dtype=np.int64)
        rows = self.assignment[users]
        a = self.assignment[users, first_slots]
        b = self.assignment[users, second_slots]
        legal = (
            (a != UNASSIGNED)
            & (b != UNASSIGNED)
            & ((rows == a[:, None]).sum(axis=1) == 1)
            & ((rows == b[:, None]).sum(axis=1) == 1)
        )
        if not np.all(legal):
            user = int(users[np.argmin(legal)])
            raise ValueError(
                f"slot swap for user {user} needs two assigned cells holding items "
                "shown once in the row"
            )
        owner, pids, others = self.instance.incident_pairs(users)
        at_first = self.assignment[others, first_slots[owner]]
        at_second = self.assignment[others, second_slots[owner]]
        item_a, item_b = a[owner], b[owner]
        moved_a = (at_second == item_a).astype(float) - (at_first == item_a)
        moved_b = (at_first == item_b).astype(float) - (at_second == item_b)
        touched = (moved_a != 0) | (moved_b != 0)
        pids, owner = pids[touched], owner[touched]
        terms = (
            self._pair_social[pids, item_a[touched]] * moved_a[touched]
            + self._pair_social[pids, item_b[touched]] * moved_b[touched]
        )
        scale = self._lam * (1.0 - self._d_tel)
        return scale * np.bincount(owner, weights=terms, minlength=users.size)

    def pair_exchange_gains(self, pair_ids: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Utility deltas of exchanging a friend pair's items at one slot, batched.

        Entry ``i`` is the change of :attr:`total` when the endpoints
        ``u < v`` of pair ``pair_ids[i]`` swap ``a = A(u, s)`` and
        ``b = A(v, s)`` at ``s = slots[i]`` — what the two corresponding
        :meth:`set_cell` calls produce — computed without mutating the
        evaluator.  Both cells must be assigned, ``a`` and ``b`` shown once
        in their rows, and neither item shown to the other endpoint, so the
        exchange keeps both rows duplicate-free (``ValueError`` otherwise).

        The pair itself co-displays neither item before or after.  On every
        other pair ``q = (u, x)`` user ``u`` loses ``w_q(a) g_x(a, s)`` and
        gains ``w_q(b) g_x(b, s)``, where
        ``g_x(c, s) = [A(x,s)=c] + d ([c in A(x,.)] - [A(x,s)=c])`` is 1 for a
        direct match, ``d`` (the teleport discount, 0 for SVGIC) for an
        indirect one and 0 otherwise; ``v``'s side mirrors it with the items
        swapped.  With ``p`` the preferences and ``lambda`` the social weight
        the gain is ``(1-lambda) (p(u,b) - p(u,a) + p(v,a) - p(v,b))`` plus
        ``lambda`` times both sides' sums, scored in one pass over the
        endpoints' flat incidence.
        """
        pair_ids = np.asarray(pair_ids, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        pairs = self.instance.pairs
        u, v = pairs[pair_ids, 0], pairs[pair_ids, 1]
        rows_u, rows_v = self.assignment[u], self.assignment[v]
        a, b = self.assignment[u, slots], self.assignment[v, slots]
        legal = (
            (a != UNASSIGNED)
            & (b != UNASSIGNED)
            & ((rows_u == a[:, None]).sum(axis=1) == 1)
            & ((rows_v == b[:, None]).sum(axis=1) == 1)
            & ~(rows_u == b[:, None]).any(axis=1)
            & ~(rows_v == a[:, None]).any(axis=1)
        )
        if not np.all(legal):
            pid = int(pair_ids[np.argmin(legal)])
            raise ValueError(
                f"exchange on pair {pid} needs two assigned cells and must keep "
                "both rows duplicate-free"
            )
        pref = self._pref
        gains = (1.0 - self._lam) * (pref[u, b] - pref[u, a] + pref[v, a] - pref[v, b])
        social = self._exchange_side(u, slots, a, b, pair_ids) + self._exchange_side(
            v, slots, b, a, pair_ids
        )
        return gains + self._lam * social

    def _exchange_side(
        self,
        users: np.ndarray,
        slots: np.ndarray,
        lost: np.ndarray,
        gained: np.ndarray,
        skip: np.ndarray,
    ) -> np.ndarray:
        """Unweighted social change when ``users[i]`` shows ``gained[i]`` for ``lost[i]``.

        Sums ``w_q(gained) g_x(gained, s) - w_q(lost) g_x(lost, s)`` over the
        user's pairs ``q = (user, x)`` other than ``skip[i]``; see
        :meth:`pair_exchange_gains`.
        """
        owner, pids, others = self.instance.incident_pairs(users)
        keep = pids != skip[owner]
        owner, pids, others = owner[keep], pids[keep], others[keep]
        slot = slots[owner]
        item_in, item_out = gained[owner], lost[owner]
        shown = self.assignment[others, slot]
        g_in = (shown == item_in).astype(float)
        g_out = (shown == item_out).astype(float)
        if self._d_tel:
            rows_x = self.assignment[others]
            g_in += self._d_tel * (
                (rows_x == item_in[:, None]).any(axis=1) & (shown != item_in)
            )
            g_out += self._d_tel * (
                (rows_x == item_out[:, None]).any(axis=1) & (shown != item_out)
            )
        touched = (g_in != 0) | (g_out != 0)
        pids, owner = pids[touched], owner[touched]
        terms = (
            self._pair_social[pids, item_in[touched]] * g_in[touched]
            - self._pair_social[pids, item_out[touched]] * g_out[touched]
        )
        return np.bincount(owner, weights=terms, minlength=users.size)

    # ------------------------------------------------------------------ #
    @property
    def preference_table(self) -> np.ndarray:
        """The ``(n, m)`` preference table this evaluator reads (read-only).

        Identical to ``instance.preference`` until the first
        :meth:`update_preference_row` call, after which it is the evaluator's
        private drifted copy — the churn engine snapshots it to build
        drift-consistent re-solve instances.
        """
        return self._pref

    @property
    def preference_drifted(self) -> bool:
        """True once :meth:`update_preference_row` has diverged from the instance."""
        return self._pref is not self.instance.preference

    @property
    def breakdown(self) -> UtilityBreakdown:
        """Current weighted utility decomposition."""
        return UtilityBreakdown(
            preference=self._preference,
            social=self._social,
            indirect_social=self._indirect,
        )

    @property
    def total(self) -> float:
        """Current total SAVG utility."""
        return self._preference + self._social + self._indirect

    def configuration(self) -> SAVGConfiguration:
        """Snapshot of the current assignment as an independent configuration."""
        return SAVGConfiguration(
            assignment=self.assignment.copy(), num_items=self.instance.num_items
        )

    def resync(self) -> UtilityBreakdown:
        """Recompute the breakdown from scratch (guards against float drift)."""
        fresh = self._full_breakdown()
        self._preference = fresh.preference
        self._social = fresh.social
        self._indirect = fresh.indirect_social
        return fresh


__all__ = [
    "UtilityBreakdown",
    "DeltaEvaluator",
    "raw_preference_total",
    "raw_social_total",
    "raw_indirect_social_total",
    "evaluate",
    "evaluate_st",
    "total_utility",
    "scaled_total_utility",
    "per_user_utility",
    "optimistic_user_upper_bound",
    "weighted_total_utility",
]
