"""Exact integer programs for SVGIC and SVGIC-ST (Section 3.3).

The IP is the paper's exact baseline: binary variables ``x[u,c,s]`` select the
item displayed to user ``u`` at slot ``s``; auxiliary co-display variables
``y[e,c,s]`` (and, for SVGIC-ST, ``z[e,c]``) linearize the social term.  The
``x``/``y``/``z`` variables over slot-aggregated forms (constraints (3), (4))
are substituted directly into the objective, which keeps the model small
without changing its optimum.  The model is laid out over CSR candidate
lists (every user gets the global candidate set), with ``y`` / ``z`` only
on positive-weight pair-item cells, like LP_SIMP in :mod:`repro.core.lp`.

Solved with HiGHS MILP by default; the in-repo branch-and-bound solver can be
selected to emulate alternative MIP search strategies (Figure 9(a)).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.configuration import SAVGConfiguration
from repro.core.lp import candidate_items, sparse_pair_cells
from repro.core.pipeline import SolveContext
from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.core.registry import register_algorithm
from repro.core.result import AlgorithmResult
from repro.core.sparse import uniform_candidate_lists
from repro.solvers.assembly import csr_row_ids, stack_rows
from repro.solvers.branch_and_bound import BranchAndBoundSolver
from repro.solvers.milp import MixedIntegerProgram


def _build_program_sparse(
    instance: SVGICInstance,
    indptr: np.ndarray,
    indices: np.ndarray,
) -> MixedIntegerProgram:
    """Assemble the MILP over candidate lists (CSR index structure).

    ``x`` variables exist only for (user, item) cells stored in a user's
    list — layout ``x[xi, s] -> xi * k + s`` for the ``xi``-th stored cell —
    and ``y`` / ``z`` only for positive-weight pair-item cells present in both
    endpoints' lists (:func:`repro.core.lp.sparse_pair_cells`), so variable
    and triplet counts scale with stored nonzeros rather than ``n·m``.  The
    constraint rows are NumPy triplet blocks laid out by
    :func:`repro.solvers.assembly.stack_rows`, in the row order of the
    loop-built reference (``tests/oracles/assembly_reference.py``).
    """
    n, k = instance.num_users, instance.num_slots
    lam = instance.social_weight
    is_st = isinstance(instance, SVGICSTInstance)
    d_tel = instance.teleport_discount if is_st else 0.0

    user_of_x = csr_row_ids(indptr)
    nnz_x = int(indptr[-1])
    if np.diff(indptr).min() < k:
        raise ValueError(
            f"every user's candidate list needs at least k={k} items"
        )
    p_idx, c_idx, pos_u, pos_v = sparse_pair_cells(instance, indptr, indices)
    npos = p_idx.size

    num_x = nnz_x * k
    num_y = npos * k
    num_z = npos if is_st else 0
    num_variables = num_x + num_y + num_z
    # x variables are binary; y / z are continuous in [0,1] (they take binary
    # values at the optimum because their objective coefficients are >= 0 and
    # they are only upper-bounded by x variables).
    integrality = np.zeros(num_variables, dtype=np.int64)
    integrality[:num_x] = 1

    w_cells = lam * instance.pair_social[p_idx, c_idx]
    objective_parts = [
        np.repeat((1.0 - lam) * instance.preference[user_of_x, indices], k),
        np.repeat(w_cells * (1.0 - d_tel) if is_st else w_cells, k),
    ]
    if is_st:
        objective_parts.append(w_cells * d_tel)

    s_idx = np.arange(k)

    blocks = [
        # (1) no-duplication: one row per stored (u, c) cell over its slot block.
        (np.repeat(np.arange(nnz_x), k), np.arange(num_x), np.ones(num_x), np.ones(nnz_x)),
        # (2) exactly one listed item per display unit (u, s): the == rows.
        (
            (user_of_x[:, None] * k + s_idx[None, :]).ravel(),
            np.arange(num_x),
            np.ones(num_x),
            np.ones(n * k),
        ),
    ]
    # (5)(6) direct coupling and (8)(9) indirect coupling per kept cell.
    if npos:
        y_vars = (num_x + np.arange(npos) * k)[:, None] + s_idx  # (npos, k)
        xu_vars = (pos_u * k)[:, None] + s_idx
        xv_vars = (pos_v * k)[:, None] + s_idx
        block = 2 * k + (2 if is_st else 0)
        row_u = np.arange(npos)[:, None] * block + 2 * s_idx[None, :]
        row_v = row_u + 1
        ones = np.ones(npos * k)
        rows_parts = [row_u.ravel(), row_u.ravel(), row_v.ravel(), row_v.ravel()]
        cols_parts = [y_vars.ravel(), xu_vars.ravel(), y_vars.ravel(), xv_vars.ravel()]
        vals_parts = [ones, -ones, ones, -ones]
        if is_st:
            row_zu = np.arange(npos) * block + 2 * k
            row_zv = row_zu + 1
            z_vars = num_x + num_y + np.arange(npos)
            rows_parts += [row_zu, np.repeat(row_zu, k), row_zv, np.repeat(row_zv, k)]
            cols_parts += [z_vars, xu_vars.ravel(), z_vars, xv_vars.ravel()]
            vals_parts += [np.ones(npos), -ones, np.ones(npos), -ones]
        blocks.append(
            (
                np.concatenate(rows_parts),
                np.concatenate(cols_parts),
                np.concatenate(vals_parts),
                np.zeros(npos * block),
            )
        )

    # Subgroup size cap per (item, slot), over items actually carrying variables.
    if is_st and instance.max_subgroup_size < n:
        cap = float(instance.max_subgroup_size)
        _, item_row = np.unique(indices, return_inverse=True)
        blocks.append(
            (
                (item_row[:, None] * k + s_idx[None, :]).ravel(),
                np.arange(num_x),
                np.ones(num_x),
                np.full((int(item_row.max()) + 1) * k, cap),
            )
        )
    matrix, rhs = stack_rows(blocks, num_variables)
    lhs = np.full(rhs.size, -np.inf)  # <= rows; the == rows (2) get lhs = rhs
    equal = slice(nnz_x, nnz_x + n * k)
    lhs[equal] = rhs[equal]
    return MixedIntegerProgram(
        np.concatenate(objective_parts),
        matrix=matrix,
        lhs=lhs,
        rhs=rhs,
        integrality=integrality,
    )


def _decode_configuration_sparse(
    instance: SVGICInstance,
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
) -> SAVGConfiguration:
    """Decode a MILP solution over equal-length candidate lists into a k-Configuration.

    The x block reshapes to ``(n, L, k)``; each slot takes the listed item
    with the largest decoded mass.  Defensive repair: if numerical noise
    produced a duplicate, the offending slot gets the best unused listed
    item — the one carrying the highest decoded x mass at that slot, ties
    broken by preference.
    """
    n, k = instance.num_users, instance.num_slots
    sizes = np.diff(indptr)
    if sizes.size == 0 or sizes.min() != sizes.max():
        raise ValueError("decode requires equal-length candidate lists")
    length = int(sizes[0])
    nnz_x = int(indptr[-1])
    x_block = values[: nnz_x * k].reshape(n, length, k)
    lists = indices.reshape(n, length)
    best_li = np.argmax(x_block, axis=1)  # (n, k)
    config = SAVGConfiguration.for_instance(instance)
    config.assignment[:, :] = np.take_along_axis(lists, best_li, axis=1)
    sorted_li = np.sort(best_li, axis=1)
    duplicated = np.nonzero((sorted_li[:, 1:] == sorted_li[:, :-1]).any(axis=1))[0]
    for u in duplicated:
        used: set = set()
        pref_u = instance.preference[u, lists[u]]
        for s in range(k):
            li = int(best_li[u, s])
            if li in used:
                unused = np.array([c for c in range(length) if c not in used])
                ranked = np.lexsort((pref_u[unused], x_block[u, unused, s]))
                li = int(unused[ranked[-1]])
                config.assignment[u, s] = int(lists[u, li])
            used.add(li)
    return config


@register_algorithm(
    "IP",
    tags=("paper", "exact"),
    description="Exact Section-3.3 integer program (HiGHS MILP / in-repo B&B)",
)
def solve_exact(
    instance: SVGICInstance,
    *,
    time_limit: Optional[float] = None,
    mip_rel_gap: Optional[float] = None,
    solver: str = "highs",
    prune_items: bool = True,
    max_candidate_items: Optional[int] = None,
    rng: object = None,  # accepted for interface uniformity; unused (exact solver)
    context: Optional[SolveContext] = None,
) -> AlgorithmResult:
    """Solve SVGIC (or SVGIC-ST) exactly with the Section-3.3 integer program.

    Parameters
    ----------
    solver:
        ``"highs"`` (default), ``"bnb-best"`` (in-repo branch and bound,
        best-first) or ``"bnb-depth"`` (depth-first).
    time_limit / mip_rel_gap:
        Anytime controls; when the solver stops early the best incumbent is
        returned with ``optimal=False``.
    prune_items / max_candidate_items:
        Candidate-item pruning identical to the LP relaxation.  Pruning makes
        the IP a (very tight) heuristic rather than provably exact on
        instances where the optimum uses an item outside the candidate set;
        pass ``prune_items=False`` for certified optima on small instances.
        Every user's candidate list is the same global set, so the model is
        laid out exactly like LP_SIMP under ``formulation="simplified"``.
    """
    start = time.perf_counter()
    if prune_items and instance.num_items > instance.num_slots:
        if context is not None:
            items = context.candidate_item_ids(max_candidate_items)
        else:
            items = candidate_items(instance, max_candidate_items)
    else:
        items = np.arange(instance.num_items, dtype=np.int64)
    indptr, indices = uniform_candidate_lists(instance.num_users, items)
    program = _build_program_sparse(instance, indptr, indices)

    if solver == "highs":
        milp_result = program.solve(time_limit=time_limit, mip_rel_gap=mip_rel_gap)
        values = milp_result.values
        optimal = milp_result.optimal
        info = {
            "solver": "highs",
            "mip_gap": milp_result.mip_gap,
            "milp_seconds": milp_result.solve_seconds,
            "num_variables": program.num_variables,
            "num_constraints": program.num_constraints,
        }
    elif solver in {"bnb-best", "bnb-depth"}:
        strategy = "best_first" if solver == "bnb-best" else "depth_first"
        bnb = BranchAndBoundSolver(program, strategy=strategy)
        bnb_result = bnb.solve(time_limit=time_limit)
        if bnb_result.values is None:
            raise RuntimeError("branch-and-bound found no feasible solution")
        values = bnb_result.values
        optimal = bnb_result.optimal
        info = {
            "solver": solver,
            "nodes": bnb_result.nodes_explored,
            "upper_bound": bnb_result.upper_bound,
            "num_variables": program.num_variables,
        }
    else:
        raise ValueError(f"unknown solver {solver!r}; use 'highs', 'bnb-best' or 'bnb-depth'")

    configuration = _decode_configuration_sparse(instance, indptr, indices, values)
    configuration.validate(instance)
    elapsed = time.perf_counter() - start
    return AlgorithmResult.from_configuration(
        "IP", instance, configuration, elapsed, optimal=optimal, info=info
    )


__all__ = ["solve_exact"]
