"""An independent optimality certificate for priced LP_SIMP solves.

:func:`repro.core.lp.solve_lp_relaxation` solves LP_SIMP by column
generation: it starts from a part of the universe model and adds columns
until none prices in.  This oracle re-checks the claim that the last
restricted solve is optimal for the universe model, from what crossed the
:func:`repro.solvers.linprog.linprog` boundary alone:

* :func:`recording_solves` captures every call's keywords (the start model),
  each pricing round's :class:`~repro.solvers.linprog.PricedColumns`, and
  the row duals HiGHS handed to ``price`` after its last run;
* :func:`check_certificate` rebuilds the final model from them, maps every
  row to its constraint (assignment, cap or pair-item) from its entries and
  every column to its cell from the instance, extends the duals to the
  universe model -- each missing ``y``'s weight charged to an endpoint
  that lacks the item, each missing cap row at dual 0 -- and checks that the
  extension is dual feasible with a dual objective equal to the LP's.

Columns are matched to cells by their objective coefficients, so the
instance must give every user distinct preferences (the generated datasets
do).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.solvers.assembly import csr_row_ids
from repro.solvers.linprog import PricedColumns


@dataclass
class RecordedSolve:
    """One :func:`~repro.solvers.linprog.linprog` call: its keywords, rounds and last duals."""

    keywords: Dict[str, object]
    rounds: List[PricedColumns] = field(default_factory=list)
    final_duals: Optional[np.ndarray] = None
    minimum: Optional[float] = None


@contextlib.contextmanager
def recording_solves(linprog_module) -> Iterator[List[RecordedSolve]]:
    """Wrap ``linprog_module.linprog`` while the block runs; yields the calls it saw."""
    solves: List[RecordedSolve] = []
    solve = linprog_module.linprog

    def recorded(**kwargs):
        record = RecordedSolve(keywords=dict(kwargs))
        solves.append(record)
        price = kwargs["price"]
        if price is not None:

            def recorded_price(row_duals):
                record.final_duals = np.array(row_duals, dtype=float)
                priced = price(row_duals)
                if priced is not None:
                    record.rounds.append(priced)
                return priced

            kwargs["price"] = recorded_price
        x, minimum = solve(**kwargs)
        record.minimum = minimum
        return x, minimum

    linprog_module.linprog = recorded
    try:
        yield solves
    finally:
        linprog_module.linprog = solve


def final_model(
    record: RecordedSolve,
) -> Tuple[np.ndarray, sparse.csr_matrix, np.ndarray, int, int]:
    """``(costs, rows, rhs, first eq row, number of eq rows)`` of the model HiGHS solved last.

    Rows are in :func:`linprog`'s order: ``A_ub``'s, ``A_eq``'s, then the
    rows every round appended; ``costs`` are in its minimization sense.
    """
    kw = record.keywords
    blocks = [kw[name] for name in ("A_ub", "A_eq") if kw[name] is not None]
    rhs = [kw[name] for name in ("b_ub", "b_eq") if kw[name] is not None]
    num_ub = 0 if kw["A_ub"] is None else kw["A_ub"].shape[0]
    num_eq = 0 if kw["A_eq"] is None else kw["A_eq"].shape[0]
    matrix = sparse.vstack(blocks, format="csr")
    costs = [np.asarray(kw["c"], dtype=float)]
    for priced in record.rounds:
        matrix = sparse.hstack([matrix, priced.entries], format="csr")
        costs.append(np.asarray(priced.c, dtype=float))
        if priced.A_ub is not None:
            matrix = sparse.vstack([matrix, priced.A_ub], format="csr")
            rhs.append(priced.b_ub)
    return np.concatenate(costs), matrix, np.concatenate(rhs), num_ub, num_eq


def check_certificate(
    instance: SVGICInstance,
    universe: Tuple[np.ndarray, np.ndarray],
    record: RecordedSolve,
    *,
    tolerance: float = 1e-9,
) -> float:
    """Assert that ``record``'s last solve is optimal for LP_SIMP over ``universe``; its objective.

    ``universe`` is the CSR ``(indptr, indices)`` of the candidate lists the
    LP is meant to be solved over.  Raises :class:`AssertionError` when a row
    or column does not fit LP_SIMP, a ``<=`` row's dual has the wrong sign,
    a universe column outside the model prices in by more than
    ``tolerance``, or the extended dual objective differs from the LP
    objective by more than ``tolerance`` relative.
    """
    assert record.final_duals is not None, "the solve was not priced"
    n, m, k = instance.num_users, instance.num_items, instance.num_slots
    lam = instance.social_weight
    pairs, weights = instance.pairs, instance.pair_social
    capped = isinstance(instance, SVGICSTInstance) and instance.max_subgroup_size * k < n
    costs, rows, rhs, num_ub, num_eq = final_model(record)
    duals = -record.final_duals  # the maximization sense: >= 0 on a binding <= row
    assert duals.shape == (rows.shape[0],) and num_eq == n

    # Rows: A_eq's n rows are the users' assignment rows, in user order.
    columns_of = np.split(rows.indices, rows.indptr[1:-1])
    values_of = np.split(rows.data, rows.indptr[1:-1])
    user_of_column = np.full(costs.size, -1)
    for user in range(n):
        row = num_ub + user
        assert rhs[row] == k and np.all(values_of[row] == 1.0), f"row {row} is no assignment row"
        user_of_column[columns_of[row]] = user

    # x columns: the cell of user u whose (1-λ)·p(u, c) is the column's cost.
    item_of_column = np.full(costs.size, -1)
    for column in np.flatnonzero(user_of_column >= 0):
        user = user_of_column[column]
        matches = np.flatnonzero(-((1.0 - lam) * instance.preference[user]) == costs[column])
        assert matches.size == 1, f"column {column} matches {matches.size} items of user {user}"
        item_of_column[column] = matches[0]
    x_column = np.full((n, m), -1)
    x_column[user_of_column[user_of_column >= 0], item_of_column[user_of_column >= 0]] = (
        np.flatnonzero(user_of_column >= 0)
    )
    assert (x_column >= 0).sum() == (user_of_column >= 0).sum(), "a cell has two x columns"

    # The <= rows: cap rows (every entry +1, rhs M·k) and pair rows (y - x <= 0).
    cap_dual, has_cap_row = np.zeros(m), np.zeros(m, dtype=bool)
    pair_rows: List[Tuple[int, int, int]] = []  # (row, y column, x column)
    for row in (r for r in range(rows.shape[0]) if not num_ub <= r < num_ub + n):
        cols, vals = columns_of[row], values_of[row]
        assert duals[row] >= -tolerance, f"<= row {row} has dual {duals[row]}"
        if capped and np.all(vals == 1.0):
            assert rhs[row] == instance.max_subgroup_size * k and np.all(user_of_column[cols] >= 0)
            items = np.unique(item_of_column[cols])
            assert items.size == 1 and not has_cap_row[items[0]], f"row {row} is no cap row"
            has_cap_row[items[0]] = True
            cap_dual[items[0]] = duals[row]
        else:
            assert rhs[row] == 0.0 and sorted(vals.tolist()) == [-1.0, 1.0], f"row {row}?"
            pair_rows.append((row, int(cols[vals == 1.0][0]), int(cols[vals == -1.0][0])))

    # y columns: the (pair, item) cell their two pair rows name.
    rows_of_y: Dict[int, List[Tuple[int, int]]] = {}
    for row, y, x in pair_rows:
        rows_of_y.setdefault(y, []).append((row, x))
    y_held = np.zeros(weights.shape, dtype=bool)
    pair_id = {(int(u), int(v)): p for p, (u, v) in enumerate(pairs)}
    reduced_costs: List[float] = []  # of the model's columns
    x_bonus = np.zeros((n, m))  # Σ μ over the pair rows holding -x(u, c)
    for y, entries in rows_of_y.items():
        assert len(entries) == 2 and user_of_column[y] < 0, f"column {y} is no y column"
        (row_a, x_a), (row_b, x_b) = entries
        item = item_of_column[x_a]
        assert item_of_column[x_b] == item
        users = sorted((int(user_of_column[x_a]), int(user_of_column[x_b])))
        p = pair_id[tuple(users)]
        assert costs[y] == -(lam * weights[p, item]) and not y_held[p, item]
        y_held[p, item] = True
        x_bonus[user_of_column[x_a], item] += duals[row_a]
        x_bonus[user_of_column[x_b], item] += duals[row_b]
        reduced_costs.append(lam * weights[p, item] - duals[row_a] - duals[row_b])
    assert len(rows_of_y) + (x_column >= 0).sum() == costs.size, "a column fits no cell"

    # Extend to the universe: charge each missing y to an endpoint lacking the item.
    in_universe = np.zeros((n, m), dtype=bool)
    in_universe[csr_row_ids(universe[0]), universe[1]] = True
    held = x_column >= 0
    assert not (held & ~in_universe).any(), "the model holds a cell outside the universe"
    for p, item in zip(*np.nonzero(weights > 0)):
        u, v = pairs[p]
        if y_held[p, item] or not (in_universe[u, item] and in_universe[v, item]):
            continue
        assert not (held[u, item] and held[v, item]), f"y({p}, {item}) is missing"
        x_bonus[u if not held[u, item] else v, item] += lam * weights[p, item]
    pi = duals[num_ub : num_ub + n]
    x_reduced = (1.0 - lam) * instance.preference - pi[:, None] - cap_dual + x_bonus
    reduced_costs.extend(x_reduced[held].tolist())
    missing = in_universe & ~held
    assert not missing.any() or x_reduced[missing].max() <= tolerance, (
        f"a universe column outside the model prices in: {x_reduced[missing].max()}"
    )

    # Dual objective: rows' b·duals plus each model column's upper-bound dual.
    objective = -record.minimum
    dual_objective = float(
        k * pi.sum()
        + (instance.max_subgroup_size * k * cap_dual.sum() if capped else 0.0)
        + np.maximum(np.asarray(reduced_costs), 0.0).sum()
    )
    assert abs(dual_objective - objective) <= tolerance * max(1.0, abs(objective)), (
        f"dual objective {dual_objective} != LP objective {objective}"
    )
    return objective
