"""Loop-built reference model assembly for the SVGIC LPs and IP.

These are the original per-(pair, item, slot) Python-loop builders that
:mod:`repro.core.lp` and :mod:`repro.core.ip` used before the batched sparse
assembly rewrite.  They are kept verbatim as a *reference oracle*: the
equivalence tests pin the batched builders to these row for row (identical
sparse matrices after canonicalization, identical objectives and bounds —
for LP_SIMP and the IP after :func:`drop_empty_columns`, since the CSR
builders never lay out an empty column), and
:mod:`benchmarks.bench_model_assembly` measures the batched builders against
them.

Do not use these in solver entry paths — on large instances the per-term
``add_*_constraint`` calls dominate end-to-end solve time.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.solvers.linprog import LinearProgram
from repro.solvers.milp import MixedIntegerProgram


def canonical_csr(matrix: sparse.spmatrix) -> sparse.csr_matrix:
    """Canonical CSR form for triplet-equality checks: duplicates summed, indices sorted.

    Both the equivalence tests and the benchmark's pre-timing guard compare
    models through this one canonicalization, so they cannot drift apart.
    """
    csr = matrix.tocsr().copy()
    csr.sum_duplicates()
    csr.sort_indices()
    return csr


def same_sparse_matrix(a, b) -> bool:
    """Exact triplet equality of two (possibly ``None``) sparse matrices."""
    if a is None or b is None:
        return a is None and b is None
    if a.shape != b.shape:
        return False
    a, b = canonical_csr(a), canonical_csr(b)
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def same_model(a, b) -> bool:
    """Exact equality of two LPs (or two MILPs): columns, objective, bounds and rows."""
    if type(a) is not type(b) or a.num_variables != b.num_variables:
        return False
    vectors = ["objective", "lower_bounds", "upper_bounds"]
    if isinstance(a, MixedIntegerProgram):
        vectors.append("integrality")
        parts = [p.build_constraints() or (None, None, None) for p in (a, b)]
    else:
        parts = [a.build_matrices(), b.build_matrices()]
    if not all(np.array_equal(getattr(a, name), getattr(b, name)) for name in vectors):
        return False
    return all(
        same_sparse_matrix(x, y)
        if sparse.issparse(x) or sparse.issparse(y)
        else np.array_equal(x, y)
        for x, y in zip(*parts)
    )


def drop_empty_columns(program):
    """Copy of an LP or MILP without its empty columns.

    A column with a zero objective coefficient and no constraint entry is a
    variable left free in its bounds that changes neither the objective nor
    feasibility.  The loop builders lay out one ``y`` / ``z`` per pair-item
    cell, the CSR builders only per positive-weight cell, so a CSR-built model
    must equal the loop-built one minus these columns.
    """
    milp = isinstance(program, MixedIntegerProgram)
    if milp:
        assembled = program.build_constraints()
        blocks = [] if assembled is None else [assembled]
    else:
        # (matrix, lhs, rhs): lhs None marks the <= block, lhs == rhs the == block.
        a_ub, b_ub, a_eq, b_eq = program.build_matrices()
        blocks = [
            block for block in ((a_ub, None, b_ub), (a_eq, b_eq, b_eq)) if block[0] is not None
        ]
    used = program.objective != 0
    for matrix, _, _ in blocks:
        used[matrix.tocoo().col] = True
    keep = np.flatnonzero(used)
    column = np.full(program.num_variables, -1, dtype=np.int64)
    column[keep] = np.arange(keep.size)

    trimmed = type(program)(
        keep.size,
        lower_bounds=program.lower_bounds[keep],
        upper_bounds=program.upper_bounds[keep],
    )
    trimmed.objective = program.objective[keep]
    if milp:
        trimmed.integrality = program.integrality[keep]
    for matrix, lhs, rhs in blocks:
        coo = matrix.tocoo()
        triplets = (coo.row, column[coo.col], coo.data)
        if milp:
            trimmed.add_range_constraints_batch(*triplets, lhs, rhs)
        elif lhs is None:
            trimmed.add_le_constraints_batch(*triplets, rhs)
        else:
            trimmed.add_eq_constraints_batch(*triplets, rhs)
    return trimmed


def build_simplified_lp_reference(
    instance: SVGICInstance,
    items: np.ndarray,
    enforce_size_constraint: bool,
) -> LinearProgram:
    """Loop-built LP_SIMP model restricted to ``items`` (original implementation)."""
    n, k = instance.num_users, instance.num_slots
    lam = instance.social_weight
    pairs = instance.pairs
    pair_social = instance.pair_social
    num_pairs = pairs.shape[0]
    mc = items.shape[0]

    num_x = n * mc
    num_y = num_pairs * mc
    lp = LinearProgram(num_x + num_y)

    def x_var(u: int, ci: int) -> int:
        return u * mc + ci

    def y_var(p: int, ci: int) -> int:
        return num_x + p * mc + ci

    # Objective: (1-lambda) p(u,c) x[u,c]  +  lambda w_e(c) y[e,c]
    pref = instance.preference[:, items]
    for u in range(n):
        for ci in range(mc):
            coeff = (1.0 - lam) * pref[u, ci]
            if coeff:
                lp.set_objective_coefficient(x_var(u, ci), coeff)
    w = pair_social[:, items]
    for p in range(num_pairs):
        for ci in range(mc):
            coeff = lam * w[p, ci]
            if coeff:
                lp.set_objective_coefficient(y_var(p, ci), coeff)

    # sum_c x[u,c] = k
    for u in range(n):
        lp.add_eq_constraint([(x_var(u, ci), 1.0) for ci in range(mc)], float(k))

    # y[e,c] <= x[u,c] and y[e,c] <= x[v,c]
    for p in range(num_pairs):
        u, v = int(pairs[p, 0]), int(pairs[p, 1])
        for ci in range(mc):
            if w[p, ci] <= 0:
                continue  # y would be 0 at optimum; omit for sparsity
            lp.add_le_constraint([(y_var(p, ci), 1.0), (x_var(u, ci), -1.0)], 0.0)
            lp.add_le_constraint([(y_var(p, ci), 1.0), (x_var(v, ci), -1.0)], 0.0)

    # Aggregate relaxation of the subgroup size constraint (SVGIC-ST only).
    if enforce_size_constraint and isinstance(instance, SVGICSTInstance):
        cap = float(instance.max_subgroup_size * k)
        if cap < n * 1.0:  # otherwise the constraint is vacuous
            for ci in range(mc):
                lp.add_le_constraint([(x_var(u, ci), 1.0) for u in range(n)], cap)

    return lp


def build_full_lp_reference(
    instance: SVGICInstance,
    items: np.ndarray,
    enforce_size_constraint: bool,
) -> LinearProgram:
    """Loop-built LP_SVGIC model restricted to ``items`` (original implementation)."""
    n, k = instance.num_users, instance.num_slots
    lam = instance.social_weight
    pairs = instance.pairs
    pair_social = instance.pair_social
    num_pairs = pairs.shape[0]
    mc = items.shape[0]

    num_x = n * mc * k
    num_y = num_pairs * mc * k
    lp = LinearProgram(num_x + num_y)

    def x_var(u: int, ci: int, s: int) -> int:
        return (u * mc + ci) * k + s

    def y_var(p: int, ci: int, s: int) -> int:
        return num_x + (p * mc + ci) * k + s

    pref = instance.preference[:, items]
    for u in range(n):
        for ci in range(mc):
            coeff = (1.0 - lam) * pref[u, ci]
            if coeff:
                for s in range(k):
                    lp.set_objective_coefficient(x_var(u, ci, s), coeff)
    w = pair_social[:, items]
    for p in range(num_pairs):
        for ci in range(mc):
            coeff = lam * w[p, ci]
            if coeff:
                for s in range(k):
                    lp.set_objective_coefficient(y_var(p, ci, s), coeff)

    # (1) no-duplication: sum_s x[u,c,s] <= 1
    for u in range(n):
        for ci in range(mc):
            lp.add_le_constraint([(x_var(u, ci, s), 1.0) for s in range(k)], 1.0)
    # (2) one item per (user, slot): sum_c x[u,c,s] = 1
    for u in range(n):
        for s in range(k):
            lp.add_eq_constraint([(x_var(u, ci, s), 1.0) for ci in range(mc)], 1.0)
    # (5)(6) co-display coupling
    for p in range(num_pairs):
        u, v = int(pairs[p, 0]), int(pairs[p, 1])
        for ci in range(mc):
            if w[p, ci] <= 0:
                continue
            for s in range(k):
                lp.add_le_constraint([(y_var(p, ci, s), 1.0), (x_var(u, ci, s), -1.0)], 0.0)
                lp.add_le_constraint([(y_var(p, ci, s), 1.0), (x_var(v, ci, s), -1.0)], 0.0)

    if enforce_size_constraint and isinstance(instance, SVGICSTInstance):
        cap = float(instance.max_subgroup_size)
        if cap < n:
            for ci in range(mc):
                for s in range(k):
                    lp.add_le_constraint([(x_var(u, ci, s), 1.0) for u in range(n)], cap)

    return lp


def build_ip_reference(
    instance: SVGICInstance,
    items: np.ndarray,
) -> MixedIntegerProgram:
    """Loop-built SVGIC / SVGIC-ST MILP restricted to ``items`` (original implementation)."""
    n, k = instance.num_users, instance.num_slots
    lam = instance.social_weight
    pairs = instance.pairs
    pair_social = instance.pair_social[:, items]
    num_pairs = pairs.shape[0]
    mc = items.shape[0]
    is_st = isinstance(instance, SVGICSTInstance)
    d_tel = instance.teleport_discount if is_st else 0.0

    num_x = n * mc * k
    num_y = num_pairs * mc * k
    num_z = num_pairs * mc if is_st else 0
    program = MixedIntegerProgram(num_x + num_y + num_z)

    def x_var(u: int, ci: int, s: int) -> int:
        return (u * mc + ci) * k + s

    def y_var(p: int, ci: int, s: int) -> int:
        return num_x + (p * mc + ci) * k + s

    def z_var(p: int, ci: int) -> int:
        return num_x + num_y + p * mc + ci

    # x variables are binary; y / z are continuous in [0,1] (they take binary
    # values at the optimum because their objective coefficients are >= 0 and
    # they are only upper-bounded by x variables).
    program.mark_integer_block(range(num_x))

    pref = instance.preference[:, items]
    for u in range(n):
        for ci in range(mc):
            coeff = (1.0 - lam) * pref[u, ci]
            if coeff:
                for s in range(k):
                    program.set_objective_coefficient(x_var(u, ci, s), coeff)
    for p in range(num_pairs):
        for ci in range(mc):
            weight = lam * pair_social[p, ci]
            if weight <= 0:
                continue
            y_coeff = weight * (1.0 - d_tel) if is_st else weight
            for s in range(k):
                program.set_objective_coefficient(y_var(p, ci, s), y_coeff)
            if is_st:
                program.set_objective_coefficient(z_var(p, ci), weight * d_tel)

    # (1) no-duplication.
    for u in range(n):
        for ci in range(mc):
            program.add_le_constraint([(x_var(u, ci, s), 1.0) for s in range(k)], 1.0)
    # (2) exactly one item per display unit.
    for u in range(n):
        for s in range(k):
            program.add_eq_constraint([(x_var(u, ci, s), 1.0) for ci in range(mc)], 1.0)
    # (5)(6) direct co-display coupling.
    for p in range(num_pairs):
        u, v = int(pairs[p, 0]), int(pairs[p, 1])
        for ci in range(mc):
            if pair_social[p, ci] <= 0:
                continue
            for s in range(k):
                program.add_le_constraint([(y_var(p, ci, s), 1.0), (x_var(u, ci, s), -1.0)], 0.0)
                program.add_le_constraint([(y_var(p, ci, s), 1.0), (x_var(v, ci, s), -1.0)], 0.0)
            if is_st:
                # (8)(9) indirect co-display coupling on slot-aggregated x.
                program.add_le_constraint(
                    [(z_var(p, ci), 1.0)] + [(x_var(u, ci, s), -1.0) for s in range(k)], 0.0
                )
                program.add_le_constraint(
                    [(z_var(p, ci), 1.0)] + [(x_var(v, ci, s), -1.0) for s in range(k)], 0.0
                )

    # Subgroup size constraint (SVGIC-ST): at most M users per (item, slot).
    if is_st and instance.max_subgroup_size < n:
        cap = float(instance.max_subgroup_size)
        for ci in range(mc):
            for s in range(k):
                program.add_le_constraint([(x_var(u, ci, s), 1.0) for u in range(n)], cap)

    return program


__all__ = [
    "drop_empty_columns",
    "same_model",
    "build_simplified_lp_reference",
    "build_full_lp_reference",
    "build_ip_reference",
    "canonical_csr",
    "same_sparse_matrix",
]
