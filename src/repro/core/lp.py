"""LP relaxations of SVGIC (Section 4.1) and the compact transformation (Section 4.4).

One assembler builds the compact relaxation ``LP_SIMP``: slot-aggregated
variables ``x[u,c]`` and ``y[e,c]`` laid out over **per-user candidate
lists** in CSR form (``indptr`` / ``indices``, see
:mod:`repro.core.sparse`).  ``x`` exists only for (user, item) cells in a
user's list and ``y`` only for positive-weight pair-item cells present in
*both* endpoints' lists, so model size scales with stored nonzeros, not
``n·m``.  By Observation 2 of the paper its optimum equals that of the
per-slot relaxation, whose slot utility factors are recovered as
``x*[u,c,s] = x[u,c] / k``.

``formulation`` chooses the candidate-list policy of that one assembler:

* ``"simplified"`` (default) — every user's list is the global candidate
  set of :func:`candidate_items` (all items when unpruned);
* ``"sparse"`` — each user's list holds that user's top items by
  :func:`candidate_scores` (:func:`repro.core.sparse.per_user_candidate_lists`),
  padded under an enforced SVGIC-ST cap only where the cap rows would
  otherwise be infeasible (:func:`repro.core.sparse.cap_feasible_lists`).

With ``prune_items=False`` both give every user the full item list and so
return bit-identical solutions.

Those lists are the *universe*: the LP is solved over them, and
``candidate_item_ids`` names their items.  LP_SIMP is not assembled over
the universe, though.  It starts from the *start lists*, each user's top
``k + 2`` universe items by :func:`candidate_scores` (under the SVGIC-ST
cap rows, made feasible by :func:`repro.core.sparse.cap_feasible_lists`),
and grows by certified column pricing (:class:`_ColumnPricer`) on one warm
HiGHS session inside one :func:`repro.solvers.linprog.linprog` call: after
each run, every universe cell whose reduced-cost bound is positive gets its
``x`` column, with the ``y`` columns and rows it completes and, for an
item's first column, its cap row, until none does.  The optimum is then the
universe model's, on about a third of its columns at the solve-ls shape.
The LP is one solve of the universe model when the HiGHS binding is not in
use (its fallback has no duals), or when the start is not a smaller part
of the universe: default ``"sparse"`` lists are their own start (padded
for the cap, they pad to the same shared set), and a padded start can
leave a pruned ``"simplified"`` universe.

``"full"`` is separate: the straightforward relaxation ``LP_SVGIC`` with
per-slot variables ``x[u,c,s]`` and ``y[e,c,s]`` (O((n+|E|)·m·k)) over the
global candidate set — the paper's ALP ablation (Figure 7).

Every formulation produces a :class:`FractionalSolution` whose objective
value is an upper bound on the SVGIC optimum, and whose slot utility factors
drive the AVG / AVG-D rounding schemes.

The paper solves the LP with Gurobi/CPLEX at ``m = 10,000`` items; HiGHS at
that scale is slow, so :func:`candidate_items` implements the pruning the
paper itself observes is harmless ("any user's top preferred items are
already contained in the top-100 items", Section 6.2): the LP is built on a
union of per-user top items, and every pruned item keeps a zero utility
factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.core.sparse import (
    cap_feasible_lists,
    per_user_candidate_lists,
    uniform_candidate_lists,
)
from repro.solvers import linprog as linprog_module
from repro.solvers.assembly import csr_row_ids, stack_rows
from repro.solvers.linprog import LinearProgram, LPResult, PricedColumns


@dataclass
class FractionalSolution:
    """Optimal fractional solution ``X*`` of an SVGIC LP relaxation.

    Attributes
    ----------
    compact_factors:
        ``(n, m)`` array of slot-aggregated factors ``x̄[u, c]`` with
        ``sum_c x̄[u, c] = k`` and ``x̄ <= 1``.
    slot_factors:
        ``(n, m, k)`` per-slot utility factors ``x*[u, c, s]``.  For the
        simplified formulation these equal ``x̄ / k`` for every slot.
    objective:
        LP optimum on the Definition-3 (true) utility scale — an upper bound
        on the SVGIC optimum.
    lp_seconds:
        Time spent in the LP solver.
    formulation:
        ``"simplified"``, ``"full"`` or ``"sparse"``.
    candidate_item_ids:
        Item ids (original index space) that carried LP variables.
    """

    compact_factors: np.ndarray
    slot_factors: np.ndarray
    objective: float
    lp_seconds: float
    formulation: str
    candidate_item_ids: np.ndarray

    @property
    def num_users(self) -> int:
        return int(self.compact_factors.shape[0])

    @property
    def num_items(self) -> int:
        return int(self.compact_factors.shape[1])

    @property
    def num_slots(self) -> int:
        return int(self.slot_factors.shape[2])

    @property
    def slot_independent(self) -> bool:
        """Whether ``x*[u, c, s]`` is the same for every slot (the LP_SIMP forms)."""
        return self.formulation in {"simplified", "sparse"}

    def scaled_objective(self, instance: SVGICInstance) -> float:
        """LP optimum on the scaled (lambda=1/2 x2) objective scale."""
        return instance.true_to_scaled_objective(self.objective)


def candidate_scores(instance: SVGICInstance) -> np.ndarray:
    """``(n, m)`` per-user item scores the candidate pruning ranks by.

    ``score[u, c] = (1 - lambda) p(u, c) + lambda * (outgoing social mass of
    u on c)`` — the single source of truth shared by :func:`candidate_items`
    and :class:`repro.core.pipeline.SolveContext`.
    """
    lam = instance.social_weight
    score = (1.0 - lam) * instance.preference.copy()
    if instance.num_edges:
        np.add.at(score, instance.edges[:, 0], lam * instance.social)
    return score


def candidate_items(
    instance: SVGICInstance,
    max_items: Optional[int] = None,
    *,
    per_user_extra: int = 2,
) -> np.ndarray:
    """Select a candidate item subset for the LP (pruning step).

    The candidate set is the union over users of each user's top
    ``k + per_user_extra`` items ranked by :func:`candidate_scores`,
    optionally truncated to ``max_items`` by global score.  The returned
    array is sorted and always holds at least ``k`` items; for SVGIC-ST at
    least ``ceil(n / M)``, padded by global score, because fewer items cannot
    host every user under the subgroup cap ``M`` — the LP relaxations and the
    IP would be infeasible.
    """
    n, m, k = instance.num_users, instance.num_items, instance.num_slots
    score = candidate_scores(instance)
    global_score = score.sum(axis=0)
    floor = k
    if isinstance(instance, SVGICSTInstance):
        floor = min(m, max(k, -(-n // instance.max_subgroup_size)))

    per_user = min(m, k + max(0, per_user_extra))
    top = np.argpartition(-score, per_user - 1, axis=1)[:, :per_user]
    chosen: set = set(int(c) for c in np.unique(top))

    if max_items is not None and len(chosen) > max_items:
        ranked = sorted(chosen, key=lambda c: -global_score[c])
        chosen = set(ranked[: max(max_items, floor)])
    if len(chosen) < floor:
        for c in np.argsort(-global_score, kind="stable"):
            chosen.add(int(c))
            if len(chosen) >= floor:
                break
    return np.asarray(sorted(chosen), dtype=np.int64)


def solve_lp_relaxation(
    instance: SVGICInstance,
    *,
    formulation: str = "simplified",
    max_candidate_items: Optional[int] = None,
    prune_items: bool = True,
    enforce_size_constraint: bool = True,
) -> FractionalSolution:
    """Solve the LP relaxation of ``instance`` and return its fractional solution.

    Parameters
    ----------
    instance:
        An :class:`SVGICInstance` or :class:`SVGICSTInstance`.  For the latter
        and ``enforce_size_constraint=True``, a valid aggregate relaxation of
        the subgroup-size constraint is added
        (``sum_u x[u,c,s] <= M`` per slot in the full formulation,
        ``sum_u x̄[u,c] <= M·k`` in LP_SIMP).
    formulation:
        ``"simplified"`` (default) or ``"sparse"`` — LP_SIMP under the global
        or the per-user candidate-list policy — or ``"full"`` (LP_SVGIC); see
        the module docstring.  For ``"sparse"``, ``prune_items=True``
        truncates each user's list to that user's top ``max_candidate_items``
        items (default ``k + 2``) by :func:`candidate_scores` — the per-user
        reading of the same knobs.
    max_candidate_items / prune_items:
        Control the candidate-item pruning described in the module docstring;
        ``prune_items=False`` keeps every item for every user.
    """
    _check_formulation(formulation)
    if formulation == "full":
        items = _candidate_selection(instance, prune_items, max_candidate_items)
        result = _build_full(instance, items, enforce_size_constraint).solve()
        slot = _decode_full(instance, items, result.values)
        compact = slot.sum(axis=2)
    else:
        indptr, indices = _candidate_lists(
            instance, formulation, prune_items, max_candidate_items, enforce_size_constraint
        )
        result, compact = _solve_simp(instance, indptr, indices, enforce_size_constraint)
        items = np.unique(indices)
        # Broadcast view (read-only): x*[u,c,s] = x̄[u,c] / k for every slot.
        slot = np.broadcast_to(
            (compact / instance.num_slots)[:, :, None],
            (instance.num_users, instance.num_items, instance.num_slots),
        )
    return FractionalSolution(
        compact_factors=compact,
        slot_factors=slot,
        objective=result.objective,
        lp_seconds=result.solve_seconds,
        formulation=formulation,
        candidate_item_ids=items,
    )


def _check_formulation(formulation: str) -> None:
    if formulation not in {"simplified", "full", "sparse"}:
        raise ValueError(
            f"unknown formulation {formulation!r}; use 'simplified', 'full' or 'sparse'"
        )


def _candidate_selection(
    instance: SVGICInstance, prune_items: bool, max_candidate_items: Optional[int]
) -> np.ndarray:
    """The global candidate set: :func:`candidate_items`, or every item when unpruned."""
    if prune_items and instance.num_items > instance.num_slots:
        return candidate_items(instance, max_candidate_items)
    return np.arange(instance.num_items, dtype=np.int64)


def _candidate_lists(
    instance: SVGICInstance,
    formulation: str,
    prune_items: bool,
    max_candidate_items: Optional[int],
    enforce_size_constraint: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` candidate lists under ``formulation``'s list policy."""
    if formulation == "simplified":
        items = _candidate_selection(instance, prune_items, max_candidate_items)
        return uniform_candidate_lists(instance.num_users, items)
    if not prune_items or instance.num_items <= instance.num_slots:
        per_user: Optional[int] = None
    elif max_candidate_items is not None:
        per_user = int(max_candidate_items)
    else:
        per_user = instance.num_slots + _START_EXTRA  # so default lists are never priced
    indptr, indices = per_user_candidate_lists(instance, per_user_items=per_user)
    if _cap_binds(instance, enforce_size_constraint):
        return cap_feasible_lists(instance, indptr, indices)
    return indptr, indices


def _cap_binds(instance: SVGICInstance, enforce_size_constraint: bool) -> bool:
    """Whether LP_SIMP gets the aggregate cap rows ``sum_u x̄[u, c] <= M·k``."""
    return (
        enforce_size_constraint
        and isinstance(instance, SVGICSTInstance)
        and instance.max_subgroup_size * instance.num_slots < instance.num_users
    )


def solve_lp_relaxations_stacked(
    instances: Sequence[SVGICInstance],
    *,
    formulation: str = "simplified",
    max_candidate_items: Optional[int] = None,
    prune_items: bool = True,
    enforce_size_constraint: bool = True,
) -> List[FractionalSolution]:
    """Solve the LP relaxations of several instances, one :func:`solve_lp_relaxation` each.

    The batch solve of the serving layer (:mod:`repro.serving`): the
    instances share the formulation and pruning settings and may differ in
    size (users, items, edges).  Every returned :class:`FractionalSolution`
    is exactly what a solo :func:`solve_lp_relaxation` call returns,
    ``lp_seconds`` included.  Each instance is its own HiGHS solve; one
    block-diagonal model of the whole batch is no faster than its blocks
    solved apart and holds more memory.
    """
    _check_formulation(formulation)
    return [
        solve_lp_relaxation(
            instance,
            formulation=formulation,
            max_candidate_items=max_candidate_items,
            prune_items=prune_items,
            enforce_size_constraint=enforce_size_constraint,
        )
        for instance in instances
    ]


# --------------------------------------------------------------------------- #
# LP_SIMP over CSR candidate lists
# --------------------------------------------------------------------------- #
def sparse_pair_cells(
    instance: SVGICInstance, indptr: np.ndarray, indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pair-item cells carrying ``y`` variables under per-user lists.

    Returns ``(p_idx, c_idx, pos_u, pos_v)``: the positive-weight
    ``(pair, item)`` cells whose item appears in *both* endpoints' candidate
    lists, with ``pos_u`` / ``pos_v`` the ordinals of the endpoints'
    ``x`` variables in the CSR layout.  Cells whose item is missing from a
    list are dropped — their ``y`` would be forced toward an ``x`` that does
    not exist, i.e. 0.  Per-user lists are sorted, so the global key
    ``user * m + item`` is sorted and every lookup is one ``searchsorted``.
    """
    m = np.int64(instance.num_items)
    user_of_x = csr_row_ids(indptr)
    keys = user_of_x * m + indices
    w = instance.pair_social
    p_idx, c_idx = np.nonzero(w > 0)
    if p_idx.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    pairs = instance.pairs
    pos_u = np.searchsorted(keys, pairs[p_idx, 0] * m + c_idx)
    pos_v = np.searchsorted(keys, pairs[p_idx, 1] * m + c_idx)
    guard = np.minimum(pos_u, keys.size - 1)
    in_u = keys[guard] == pairs[p_idx, 0] * m + c_idx
    guard = np.minimum(pos_v, keys.size - 1)
    in_v = keys[guard] == pairs[p_idx, 1] * m + c_idx
    keep = in_u & in_v
    return p_idx[keep], c_idx[keep], pos_u[keep], pos_v[keep]


def _build_sparse(
    instance: SVGICInstance,
    indptr: np.ndarray,
    indices: np.ndarray,
    enforce_size_constraint: bool,
) -> LinearProgram:
    """Assemble LP_SIMP over per-user candidate lists from triplet blocks.

    Variable layout: ``x`` variables in CSR order (user-major, items
    ascending within a user — ordinal ``xi`` for the ``xi``-th stored cell),
    then one ``y`` per kept pair-item cell (:func:`sparse_pair_cells` order).
    Every constraint row references variables through the CSR index arrays,
    so triplet count scales with stored nonzeros, never ``n·m``.
    """
    n, k = instance.num_users, instance.num_slots
    lam = instance.social_weight
    user_of_x = csr_row_ids(indptr)
    num_x = int(indptr[-1])
    list_sizes = np.diff(indptr)
    if list_sizes.min() < k:
        raise ValueError(
            f"every user's candidate list needs at least k={k} items; "
            f"smallest list has {int(list_sizes.min())}"
        )

    p_idx, c_idx, pos_u, pos_v = sparse_pair_cells(instance, indptr, indices)
    num_y = p_idx.size
    num_variables = num_x + num_y

    # Objective: (1-lambda) p(u,c) on stored x cells, lambda w on kept y cells.
    objective = np.concatenate(
        [
            (1.0 - lam) * instance.preference[user_of_x, indices],
            lam * instance.pair_social[p_idx, c_idx],
        ]
    )

    # sum_{c in list(u)} x[u,c] = k — one row per user over its CSR slice.
    assignment_rows = (user_of_x, np.arange(num_x), np.ones(num_x), np.full(n, float(k)))

    le_blocks = []
    # y <= x_u and y <= x_v for each kept pair-item cell.
    if num_y:
        y_vars = num_x + np.arange(num_y)
        t = np.arange(num_y)
        ones = np.ones(num_y)
        le_blocks.append(
            (
                np.concatenate([2 * t, 2 * t, 2 * t + 1, 2 * t + 1]),
                np.concatenate([y_vars, pos_u, y_vars, pos_v]),
                np.concatenate([ones, -ones, ones, -ones]),
                np.zeros(2 * num_y),
            )
        )

    # Aggregate subgroup-size relaxation per item actually carrying variables.
    if _cap_binds(instance, enforce_size_constraint):
        _, item_row = np.unique(indices, return_inverse=True)
        le_blocks.append(
            (
                item_row,
                np.arange(num_x),
                np.ones(num_x),
                np.full(int(item_row.max()) + 1, float(instance.max_subgroup_size * k)),
            )
        )
    a_ub, b_ub = stack_rows(le_blocks, num_variables)
    a_eq, b_eq = stack_rows([assignment_rows], num_variables)
    return LinearProgram(objective, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


def _decode_sparse(
    instance: SVGICInstance, users: np.ndarray, items: np.ndarray, x_values: np.ndarray
) -> np.ndarray:
    """``(n, m)`` compact factors: each ``x`` value scattered to its ``(user, item)`` cell."""
    compact = np.zeros((instance.num_users, instance.num_items), dtype=float)
    compact[users, items] = np.clip(x_values, 0.0, 1.0)
    return compact


# --------------------------------------------------------------------------- #
# Certified column pricing of LP_SIMP
# --------------------------------------------------------------------------- #
#: A user's start list holds its top ``k + _START_EXTRA`` universe items
#: (as many as a default ``"sparse"`` list holds).
_START_EXTRA = 2
#: A missing ``x`` prices in when its reduced-cost bound exceeds this.
_PRICE_TOLERANCE = 1e-9


def _solve_simp(
    instance: SVGICInstance,
    indptr: np.ndarray,
    indices: np.ndarray,
    enforce_size_constraint: bool,
) -> Tuple[LPResult, np.ndarray]:
    """LP_SIMP's optimum over the universe lists ``(indptr, indices)``; ``(result, compact factors)``.

    Priced from :func:`_start_lists` by a :class:`_ColumnPricer` on one
    warm HiGHS session; one solve of the universe model itself when the
    HiGHS binding is not in use (read at call time) or there is no start
    smaller than the universe.
    """
    capped = _cap_binds(instance, enforce_size_constraint)
    start = None
    # The fallback solver has no duals: price only on the HiGHS binding.
    if linprog_module._highs is not None:
        start = _start_lists(instance, indptr, indices, capped)
    if start is None:
        result = _build_sparse(instance, indptr, indices, enforce_size_constraint).solve()
        x_cells = (csr_row_ids(indptr), indices, slice(0, int(indptr[-1])))
    else:
        program = _build_sparse(instance, *start, enforce_size_constraint)
        pricer = _ColumnPricer(instance, (indptr, indices), start, program, capped)
        result = program.solve(price=pricer)
        x_cells = pricer.x_cells()
    users, items, columns = x_cells
    return result, _decode_sparse(instance, users, items, result.values[columns])


def _start_lists(
    instance: SVGICInstance, indptr: np.ndarray, indices: np.ndarray, capped: bool
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Each user's top ``k + 2`` universe items by :func:`candidate_scores`; ``None`` if that is all.

    Ties go to lower item ids, as in
    :func:`repro.core.sparse.per_user_candidate_lists`.  The lists depend
    on the universe lists and the scores alone, so two list policies that
    give the same universe price the same model.  Under the cap rows
    (``capped``) the lists pass through :func:`cap_feasible_lists`, which
    keeps them or pads every list with one shared item set; ``None`` too if
    the padded lists leave the universe or hold all of it.
    """
    size = instance.num_slots + _START_EXTRA
    lengths = np.diff(indptr)
    if lengths.max() <= size:
        return None
    users = csr_row_ids(indptr)
    scores = candidate_scores(instance)[users, indices]
    order = np.lexsort((indices, -scores, users))  # user-major, so each user keeps its CSR slice
    rank = np.arange(indices.size) - np.repeat(indptr[:-1], lengths)
    keep = np.sort(order[rank < size])
    start_indptr = np.concatenate([[0], np.cumsum(np.minimum(lengths, size))]).astype(np.int64)
    start = start_indptr, indices[keep]
    if not capped:
        return start
    start = cap_feasible_lists(instance, *start)
    m = np.int64(instance.num_items)
    keys = csr_row_ids(start[0]) * m + start[1]
    if keys.size >= indices.size or not np.isin(keys, users * m + indices).all():
        return None
    return start


class _ColumnPricer:
    """Certified column pricing of LP_SIMP: a :func:`~repro.solvers.linprog.linprog` ``price``.

    The model starts as :func:`_build_sparse` over the start lists.  After
    each solve, every universe cell ``(u, c)`` that ``u`` does not yet hold
    scores ``(1-λ)·p(u,c) + λ·Σ_{pairs e∋u} w(e,c) − π_u − ν_c``, with
    ``π_u`` the dual of ``u``'s assignment row and ``ν_c`` that of ``c``'s
    cap row ``Σ_u x̄[u, c] <= M·k`` (0 without the cap, or while ``c`` has
    no column), in the maximization sense.  Every cell scoring above
    :data:`_PRICE_TOLERANCE` gets its ``x`` column (a 1 in ``u``'s
    assignment row and in ``c``'s cap row); an item's first columns come
    with its cap row, over just those columns.  Then every positive-weight
    (pair, item) cell whose endpoints now both hold the item gets its ``y``
    column (objective ``λ·w``) and its rows ``y - x_u <= 0`` and
    ``y - x_v <= 0``.  So every round's model is LP_SIMP over the lists
    held so far.

    When nothing scores above the tolerance, charging each missing ``y``'s
    whole weight to an endpoint that lacks the item, and giving each
    missing cap row a zero dual, extends the duals to a feasible dual of
    LP_SIMP over the universe lists, so the last solve is that LP's
    optimum.  Every round adds a column of a finite universe, so the loop
    ends; at worst the model grows into the universe model.
    """

    def __init__(
        self,
        instance: SVGICInstance,
        universe: Tuple[np.ndarray, np.ndarray],
        start: Tuple[np.ndarray, np.ndarray],
        program: LinearProgram,
        capped: bool,
    ) -> None:
        n, m = instance.num_users, instance.num_items
        lam = instance.social_weight
        self._instance = instance
        pairs, weights = instance.pairs, instance.pair_social
        # The most holding (u, c) can pay: its own term and every pair weight on c.
        self._reach = (1.0 - lam) * instance.preference
        for side in (0, 1):
            np.add.at(self._reach, pairs[:, side], lam * weights)
        self._universe = np.zeros((n, m), dtype=bool)
        self._universe[csr_row_ids(universe[0]), universe[1]] = True
        start_users, start_items = csr_row_ids(start[0]), start[1]
        self._held = np.zeros((n, m), dtype=bool)
        self._held[start_users, start_items] = True
        self._column_of = np.full((n, m), -1, dtype=np.int64)
        self._column_of[start_users, start_items] = np.arange(start_items.size)
        self._pair_idx, self._item_idx = np.nonzero(weights > 0)
        num_ub = 0 if program.a_ub is None else program.a_ub.shape[0]
        # linprog lays out A_ub's rows, then A_eq's: the n assignment rows.
        self._assignment_rows = num_ub + np.arange(n)
        # M·k under the cap rows, else None; each item's cap row, -1 while it
        # has none: _build_sparse ends A_ub with one per start item, in item order.
        self._cap = float(instance.max_subgroup_size * instance.num_slots) if capped else None
        self._cap_rows = np.full(m, -1, dtype=np.int64)
        if capped:
            opened = np.unique(start_items)
            self._cap_rows[opened] = num_ub - opened.size + np.arange(opened.size)
        self._num_columns = program.num_variables
        self._num_rows = num_ub + n
        self._x_cells = [(start_users, start_items, np.arange(start_items.size))]

    def _both_hold(self) -> np.ndarray:
        """Whether both endpoints of each positive-weight (pair, item) cell hold its item."""
        pairs, items = self._instance.pairs[self._pair_idx], self._item_idx
        return self._held[pairs[:, 0], items] & self._held[pairs[:, 1], items]

    def __call__(self, row_duals: np.ndarray) -> Optional[PricedColumns]:
        # linprog minimizes, so its duals are -π_u and -ν_c (ν_c = 0 while c
        # has no cap row): add them.
        score = self._reach + row_duals[self._assignment_rows][:, None]
        opened = np.flatnonzero(self._cap_rows >= 0)
        score[:, opened] += row_duals[self._cap_rows[opened]]
        users, items = np.nonzero(self._universe & ~self._held & (score > _PRICE_TOLERANCE))
        if users.size == 0:
            return None
        instance, lam = self._instance, self._instance.social_weight
        had_y = self._both_hold()
        self._held[users, items] = True
        cells = np.flatnonzero(self._both_hold() & ~had_y)

        num_x, num_y = users.size, cells.size
        x_columns = self._num_columns + np.arange(num_x)
        y_columns = self._num_columns + num_x + np.arange(num_y)
        self._column_of[users, items] = x_columns
        self._x_cells.append((users, items, x_columns))
        pair_idx, item_idx = self._pair_idx[cells], self._item_idx[cells]
        c = -np.concatenate(
            [
                (1.0 - lam) * instance.preference[users, items],
                lam * instance.pair_social[pair_idx, item_idx],
            ]
        )
        # Each new x has a 1 in its user's assignment row and, if its item has
        # one, in its cap row (rows ascending, -1 first where it has none); a
        # new y has no old row.
        cap_rows = self._cap_rows[items]
        x_rows = np.sort(np.column_stack([self._assignment_rows[users], cap_rows]), axis=1)
        x_kept = np.column_stack([cap_rows >= 0, np.ones(num_x, dtype=bool)])
        x_entries = np.cumsum(x_kept.sum(axis=1))
        entries = sparse.csc_matrix(
            (
                np.ones(x_entries[-1]),
                x_rows[x_kept],
                np.concatenate([[0], x_entries, np.full(num_y, x_entries[-1])]),
            ),
            shape=(self._num_rows, num_x + num_y),
        )
        self._num_columns += num_x + num_y
        # Rows 2t and 2t+1: y_t - x_u <= 0 and y_t - x_v <= 0; then, under the
        # cap, the cap row of each item whose first columns these are.
        pairs = instance.pairs[pair_idx]
        x_u = self._column_of[pairs[:, 0], item_idx]
        x_v = self._column_of[pairs[:, 1], item_idx]
        row_columns = [
            np.stack([np.column_stack([x_u, y_columns]), np.column_stack([x_v, y_columns])], axis=1)
        ]
        row_lengths = [np.full(2 * num_y, 2)]
        rhs = [np.zeros(2 * num_y)]
        opening = np.flatnonzero(cap_rows < 0) if self._cap is not None else []
        if len(opening):
            opening = opening[np.argsort(items[opening], kind="stable")]
            opened, lengths = np.unique(items[opening], return_counts=True)
            row_columns.append(x_columns[opening])
            row_lengths.append(lengths)
            rhs.append(np.full(opened.size, self._cap))
            self._cap_rows[opened] = self._num_rows + 2 * num_y + np.arange(opened.size)
        row_lengths = np.concatenate(row_lengths)
        a_ub = b_ub = None
        if row_lengths.size:
            values = np.ones(int(row_lengths.sum()))
            values[: 4 * num_y : 2] = -1.0  # each pair row's x
            a_ub = sparse.csr_matrix(
                (
                    values,
                    np.concatenate([columns.ravel() for columns in row_columns]),
                    np.concatenate([[0], np.cumsum(row_lengths)]),
                ),
                shape=(row_lengths.size, self._num_columns),
            )
            b_ub = np.concatenate(rhs)
            self._num_rows += row_lengths.size
        return PricedColumns(
            c=c,
            bounds=np.tile([0.0, 1.0], (num_x + num_y, 1)),
            entries=entries,
            A_ub=a_ub,
            b_ub=b_ub,
        )

    def x_cells(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(users, items, columns)`` of every ``x`` column in the grown model."""
        users, items, columns = zip(*self._x_cells)
        return np.concatenate(users), np.concatenate(items), np.concatenate(columns)


# --------------------------------------------------------------------------- #
# Full formulation (LP_SVGIC)
# --------------------------------------------------------------------------- #
def _build_full(
    instance: SVGICInstance,
    items: np.ndarray,
    enforce_size_constraint: bool,
) -> LinearProgram:
    """Assemble LP_SVGIC restricted to ``items`` from triplet blocks.

    Variable layout: ``x[u, ci, s] -> (u * mc + ci) * k + s`` followed by
    ``y[p, ci, s] -> num_x + (p * mc + ci) * k + s`` (slot fastest).  Row
    order matches the loop-built reference exactly.
    """
    n, k = instance.num_users, instance.num_slots
    lam = instance.social_weight
    pairs = instance.pairs
    mc = items.shape[0]
    num_pairs = pairs.shape[0]
    num_x = n * mc * k
    num_y = num_pairs * mc * k
    num_variables = num_x + num_y

    # Per-slot variables share their (u, c) / (p, c) coefficient.
    pref = instance.preference[:, items]
    w = instance.pair_social[:, items]
    objective = np.concatenate(
        [
            np.repeat(((1.0 - lam) * pref).ravel(), k),
            np.repeat((lam * w).ravel(), k),
        ]
    )

    s_idx = np.arange(k)

    # (1) no-duplication: sum_s x[u,c,s] <= 1 — one row per (u, c), whose k
    # slot variables are contiguous in the layout.
    le_blocks = [
        (np.repeat(np.arange(n * mc), k), np.arange(num_x), np.ones(num_x), np.ones(n * mc))
    ]
    # (2) one item per (user, slot): sum_c x[u,c,s] = 1 — row (u, s) sums a
    # strided slice over items.
    unit_cols = (
        np.arange(n)[:, None, None] * (mc * k)
        + np.arange(mc)[None, None, :] * k
        + s_idx[None, :, None]
    ).ravel()
    unit_rows = (np.repeat(np.arange(n * k), mc), unit_cols, np.ones(n * k * mc), np.ones(n * k))
    # (5)(6) co-display coupling for positive-weight (pair, item) cells.
    p_idx, c_idx = np.nonzero(w > 0)
    if p_idx.size:
        npos = p_idx.size
        y_vars = (num_x + (p_idx * mc + c_idx) * k)[:, None] + s_idx
        xu_vars = ((pairs[p_idx, 0] * mc + c_idx) * k)[:, None] + s_idx
        xv_vars = ((pairs[p_idx, 1] * mc + c_idx) * k)[:, None] + s_idx
        ts = np.arange(npos * k)
        ones = np.ones(npos * k)
        le_blocks.append(
            (
                np.concatenate([2 * ts, 2 * ts, 2 * ts + 1, 2 * ts + 1]),
                np.concatenate(
                    [y_vars.ravel(), xu_vars.ravel(), y_vars.ravel(), xv_vars.ravel()]
                ),
                np.concatenate([ones, -ones, ones, -ones]),
                np.zeros(2 * npos * k),
            )
        )

    # Per-slot subgroup size constraint (SVGIC-ST only).
    if enforce_size_constraint and isinstance(instance, SVGICSTInstance):
        cap = float(instance.max_subgroup_size)
        if cap < n:
            cell = np.arange(mc)[:, None] * k + s_idx[None, :]  # row per (c, s)
            le_blocks.append(
                (
                    np.repeat(np.arange(mc * k), n),
                    (cell.ravel()[:, None] + np.arange(n)[None, :] * (mc * k)).ravel(),
                    np.ones(mc * k * n),
                    np.full(mc * k, cap),
                )
            )
    a_ub, b_ub = stack_rows(le_blocks, num_variables)
    a_eq, b_eq = stack_rows([unit_rows], num_variables)
    return LinearProgram(objective, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


def _decode_full(
    instance: SVGICInstance, items: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """``(n, m, k)`` per-slot factors from a full-formulation solution vector."""
    n, k = instance.num_users, instance.num_slots
    mc = items.shape[0]
    slot = np.zeros((n, instance.num_items, k), dtype=float)
    x_block = values[: n * mc * k].reshape(n, mc, k)
    slot[:, items, :] = np.clip(x_block, 0.0, 1.0)
    return slot


__all__ = [
    "FractionalSolution",
    "candidate_items",
    "candidate_scores",
    "solve_lp_relaxation",
    "solve_lp_relaxations_stacked",
    "sparse_pair_cells",
]
