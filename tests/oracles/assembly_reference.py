"""Loop-built reference model assembly for the SVGIC LPs and IP.

These are the original per-(pair, item, slot) Python-loop builders that
:mod:`repro.core.lp` and :mod:`repro.core.ip` used before the batched sparse
assembly rewrite.  They are kept verbatim as a *reference oracle*: the
equivalence tests pin the batched builders to these row for row (identical
sparse matrices after canonicalization, identical objectives and bounds —
for LP_SIMP and the IP after :func:`drop_empty_columns`, since the CSR
builders never lay out an empty column), and
``benchmarks/bench_model_assembly.py`` measures the batched builders against
them.

The loops add one term at a time to a :class:`ModelRecorder`, whose
:meth:`~ModelRecorder.finish` returns the same finished
:class:`~repro.solvers.linprog.LinearProgram` /
:class:`~repro.solvers.milp.MixedIntegerProgram` record the batched
builders return.  :func:`simplified_lp_value` recomputes LP_SIMP's optimal
value from a solution's compact factors, so a test can check a solve's
factors against its objective.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.solvers.linprog import LinearProgram
from repro.solvers.milp import MixedIntegerProgram


class ModelRecorder:
    """Records a model one term at a time; :meth:`finish` returns the finished record.

    With ``milp=False`` the ``<=`` and ``==`` rows form two blocks, as a
    :class:`LinearProgram` holds them; with ``milp=True`` every row joins one
    ``lhs <= A x <= rhs`` block in insertion order, as a
    :class:`MixedIntegerProgram` holds them.
    """

    def __init__(self, num_variables: int, *, milp: bool = False) -> None:
        self.num_variables = int(num_variables)
        self.milp = milp
        self.objective = np.zeros(self.num_variables)
        self.integrality = np.zeros(self.num_variables, dtype=np.int64)
        self._le: List[Tuple[Sequence[Tuple[int, float]], float, float]] = []
        self._eq: List[Tuple[Sequence[Tuple[int, float]], float, float]] = []

    def set_objective_coefficient(self, variable: int, coefficient: float) -> None:
        self.objective[variable] = coefficient

    def mark_integer_block(self, variables: Sequence[int]) -> None:
        self.integrality[list(variables)] = 1

    def add_le_constraint(self, terms: Sequence[Tuple[int, float]], rhs: float) -> None:
        self._le.append((terms, -np.inf, rhs))

    def add_eq_constraint(self, terms: Sequence[Tuple[int, float]], rhs: float) -> None:
        (self._le if self.milp else self._eq).append((terms, rhs, rhs))

    def _block(self, recorded):
        """``(matrix, lhs, rhs)`` of the recorded rows, or ``None`` thrice."""
        if not recorded:
            return None, None, None
        rows, cols, vals = [], [], []
        for row, (terms, _, _) in enumerate(recorded):
            for var, coeff in terms:
                rows.append(row)
                cols.append(var)
                vals.append(coeff)
        matrix = sparse.coo_matrix(
            (np.asarray(vals, dtype=float), (np.asarray(rows), np.asarray(cols))),
            shape=(len(recorded), self.num_variables),
        )
        lhs = np.array([row[1] for row in recorded], dtype=float)
        rhs = np.array([row[2] for row in recorded], dtype=float)
        return matrix.tocsr(), lhs, rhs

    def finish(self):
        """The recorded model as a finished LP or MILP record."""
        if self.milp:
            matrix, lhs, rhs = self._block(self._le)
            return MixedIntegerProgram(
                self.objective, matrix=matrix, lhs=lhs, rhs=rhs, integrality=self.integrality
            )
        a_ub, _, b_ub = self._block(self._le)
        a_eq, _, b_eq = self._block(self._eq)
        return LinearProgram(self.objective, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


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


def _row_blocks(program) -> Tuple[List[str], List[str]]:
    """Field names of a program's matrices, then of its per-row vectors."""
    if isinstance(program, MixedIntegerProgram):
        return ["matrix"], ["lhs", "rhs"]
    return ["a_ub", "a_eq"], ["b_ub", "b_eq"]


def same_model(a, b) -> bool:
    """Exact equality of two LPs (or two MILPs): columns, objective, bounds and rows."""
    if type(a) is not type(b) or a.num_variables != b.num_variables:
        return False
    vectors = ["objective", "lower_bounds", "upper_bounds"]
    if isinstance(a, MixedIntegerProgram):
        vectors.append("integrality")
    matrices, row_vectors = _row_blocks(a)
    if not all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in vectors + row_vectors
    ):
        return False
    return all(same_sparse_matrix(getattr(a, name), getattr(b, name)) for name in matrices)


def drop_empty_columns(program):
    """Copy of an LP or MILP without its empty columns.

    A column with a zero objective coefficient and no constraint entry is a
    variable left free in its bounds that changes neither the objective nor
    feasibility.  The loop builders lay out one ``y`` / ``z`` per pair-item
    cell, the CSR builders only per positive-weight cell, so a CSR-built model
    must equal the loop-built one minus these columns.
    """
    matrices, row_vectors = _row_blocks(program)
    used = program.objective != 0
    for name in matrices:
        matrix = getattr(program, name)
        if matrix is not None:
            used[matrix.tocoo().col] = True
    keep = np.flatnonzero(used)
    fields = {
        name: getattr(program, name)[keep]
        for name in ("objective", "lower_bounds", "upper_bounds")
    }
    if isinstance(program, MixedIntegerProgram):
        fields["integrality"] = program.integrality[keep]
    for name in matrices:
        matrix = getattr(program, name)
        fields[name] = None if matrix is None else matrix[:, keep]
    for name in row_vectors:
        fields[name] = getattr(program, name)
    return type(program)(**fields)


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
    lp = ModelRecorder(num_x + num_y)

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

    return lp.finish()


def simplified_lp_value(instance: SVGICInstance, compact: np.ndarray) -> float:
    """LP_SIMP's objective at compact factors ``compact``, each ``y`` at ``min(x_u, x_v)``.

    At an optimal solution of LP_SIMP with ``lambda > 0`` every ``y`` on a
    positive weight equals the smaller of its two ``x`` (a ``y`` on any
    other weight adds nothing), so this is the LP's optimal value read from
    its factors alone, whichever optimal vertex the solver returned.
    """
    lam = instance.social_weight
    value = (1.0 - lam) * float(np.sum(instance.preference * compact))
    for p, (u, v) in enumerate(instance.pairs):
        for c in range(instance.num_items):
            weight = instance.pair_social[p, c]
            if weight > 0:
                value += lam * weight * min(compact[u, c], compact[v, c])
    return value


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
    lp = ModelRecorder(num_x + num_y)

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

    return lp.finish()


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
    program = ModelRecorder(num_x + num_y + num_z, milp=True)

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

    return program.finish()


__all__ = [
    "ModelRecorder",
    "drop_empty_columns",
    "same_model",
    "build_simplified_lp_reference",
    "build_full_lp_reference",
    "build_ip_reference",
    "canonical_csr",
    "same_sparse_matrix",
]
