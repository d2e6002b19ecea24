"""Sparse linear-programming wrapper over SciPy's HiGHS backend.

All linear programs in the library are *maximization* problems over variables
bounded in ``[lb, ub]`` with sparse "less-or-equal" and "equal" constraint
blocks.  A :class:`LinearProgram` is the record of one finished model: the
model builders in :mod:`repro.core.lp` compute its rows as NumPy triplet
blocks and lay them out with :func:`repro.solvers.assembly.stack_rows`, and
:meth:`LinearProgram.solve` hands the CSR blocks to ``scipy.optimize.linprog``
as they are.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.solvers.assembly import checked_objective, checked_rows, checked_vector


class LPError(RuntimeError):
    """Raised when the underlying LP solver fails or reports infeasibility."""


@dataclass
class LPResult:
    """Solution of a linear program.

    Attributes
    ----------
    values:
        Optimal variable values.
    objective:
        Optimal objective value *in the maximization sense*.
    solve_seconds:
        Wall-clock time spent inside the solver.
    """

    values: np.ndarray
    objective: float
    solve_seconds: float


@dataclass(eq=False)  # array fields: compare models field by field
class LinearProgram:
    """A finished sparse LP ``max c^T x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  lb <= x <= ub``.

    ``a_ub``/``b_ub`` and ``a_eq``/``b_eq`` are ``None`` for a program
    without rows of that kind; the matrices are stored in CSR form.  The
    bounds default to ``[0, 1]``.

    Example
    -------
    >>> lp = LinearProgram(np.array([1.0, 1.0]), a_ub=[[1.0, 2.0]], b_ub=[4.0])
    >>> round(lp.solve().objective, 6)
    2.0
    """

    objective: np.ndarray
    a_ub: Optional[sparse.csr_matrix] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[sparse.csr_matrix] = None
    b_eq: Optional[np.ndarray] = None
    lower_bounds: Optional[np.ndarray] = None
    upper_bounds: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.objective = checked_objective(self.objective)
        n = self.num_variables
        self.a_ub, self.b_ub = checked_rows("a_ub", self.a_ub, n, self.b_ub)
        self.a_eq, self.b_eq = checked_rows("a_eq", self.a_eq, n, self.b_eq)
        self.lower_bounds = checked_vector("lower_bounds", self.lower_bounds, n, 0.0)
        self.upper_bounds = checked_vector("upper_bounds", self.upper_bounds, n, 1.0)

    @property
    def num_variables(self) -> int:
        return int(self.objective.shape[0])

    def solve(self) -> LPResult:
        """Solve the LP with HiGHS and return an :class:`LPResult`.

        Raises :class:`LPError` if the solver does not reach optimality.
        """
        start = time.perf_counter()
        result = linprog(
            c=-self.objective,  # linprog minimizes
            A_ub=self.a_ub,
            b_ub=self.b_ub,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=np.column_stack([self.lower_bounds, self.upper_bounds]),
            method="highs",
        )
        elapsed = time.perf_counter() - start
        if not result.success:
            raise LPError(f"LP solve failed: {result.message}")
        return LPResult(
            values=np.asarray(result.x, dtype=float),
            objective=-float(result.fun),
            solve_seconds=elapsed,
        )


def _block_diagonal(
    blocks: Sequence[Tuple[Optional[sparse.csr_matrix], Optional[np.ndarray]]],
    column_offsets: np.ndarray,
) -> Tuple[Optional[sparse.csr_matrix], Optional[np.ndarray]]:
    """Block-diagonal CSR of ``(A, rhs)`` blocks, built by concatenating their CSR arrays.

    Block ``i``'s columns start at ``column_offsets[i]``; absent blocks
    (``A is None``) contribute no rows.
    """
    present = [(a, rhs, col) for (a, rhs), col in zip(blocks, column_offsets) if a is not None]
    if not present:
        return None, None
    nnz = np.cumsum([0] + [a.nnz for a, _, _ in present])
    indptr = np.concatenate([[0]] + [a.indptr[1:] + n for (a, _, _), n in zip(present, nnz)])
    indices = np.concatenate([a.indices + col for a, _, col in present])
    data = np.concatenate([a.data for a, _, _ in present])
    shape = (indptr.size - 1, int(column_offsets[-1]))
    rhs = np.concatenate([rhs for _, rhs, _ in present])
    return sparse.csr_matrix((data, indices, indptr), shape=shape), rhs


def stack_programs(
    programs: Sequence[LinearProgram],
) -> Tuple[LinearProgram, List[slice]]:
    """Stack ``programs`` into one block-diagonal program plus variable slices.

    The combined program maximizes the sum of the input objectives over the
    concatenated variable vector; each constraint kind is stacked
    block-diagonally, so no row couples two inputs and the stacked program is
    separable.  The returned slices map each input program to its variable
    range in the combined solution vector.
    """
    if not programs:
        raise ValueError("stack_programs requires at least one program")
    if len(programs) == 1:  # the common single-request batch: nothing to stack
        return programs[0], [slice(0, programs[0].num_variables)]
    offsets = np.cumsum([0] + [program.num_variables for program in programs])
    stacked = LinearProgram(
        np.concatenate([p.objective for p in programs]),
        *_block_diagonal([(p.a_ub, p.b_ub) for p in programs], offsets),
        *_block_diagonal([(p.a_eq, p.b_eq) for p in programs], offsets),
        lower_bounds=np.concatenate([p.lower_bounds for p in programs]),
        upper_bounds=np.concatenate([p.upper_bounds for p in programs]),
    )
    return stacked, [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]


def solve_block_diagonal(programs: Sequence[LinearProgram]) -> List[LPResult]:
    """Solve ``programs`` as one stacked block-diagonal LP; split per program.

    Because the stacked program is separable, the restriction of its optimal
    solution to each block is optimal for that block (otherwise replacing the
    block's values with a better block solution would improve the stacked
    optimum).  Each returned :class:`LPResult` carries the block's own
    objective value (``c_i @ x_i``) and the *amortized* share of the single
    solve's wall-clock time (total divided by the number of blocks) — the
    per-request latency accounting the serving layer reports.
    """
    stacked, slices = stack_programs(programs)
    solved = stacked.solve()
    amortized = solved.solve_seconds / len(programs)
    blocks = [np.asarray(solved.values[block], dtype=float) for block in slices]
    return [
        LPResult(values, float(program.objective @ values), amortized)
        for program, values in zip(programs, blocks)
    ]


__all__ = [
    "LinearProgram",
    "LPResult",
    "LPError",
    "stack_programs",
    "solve_block_diagonal",
]
