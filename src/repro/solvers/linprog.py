"""Sparse linear-programming wrapper over SciPy's HiGHS backend.

All linear programs in the library are *maximization* problems over variables
bounded in ``[lb, ub]`` with sparse "less-or-equal" and "equal" constraint
blocks.  :class:`LinearProgram` accumulates constraint triplets and hands a
single sparse matrix to ``scipy.optimize.linprog``; this keeps model-building
code in :mod:`repro.core.lp` close to the paper's algebraic formulation.

Constraints can be added one at a time from ``(variable, coefficient)`` terms
(:meth:`LinearProgram.add_le_constraint` / :meth:`~LinearProgram.add_eq_constraint`)
or wholesale from NumPy triplet arrays
(:meth:`~LinearProgram.add_le_constraints_batch` /
:meth:`~LinearProgram.add_eq_constraints_batch`), with
:meth:`~LinearProgram.set_objective_coefficients` as the matching vectorized
objective setter.  The batch path is what the vectorized model builders use:
on large instances, per-term Python appends dominate end-to-end solve time,
while a triplet batch is appended in O(1) NumPy operations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.solvers.assembly import (
    TripletConstraintBlock,
    assign_coefficients,
    stack_constraint_blocks,
)


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
    status:
        Solver status string (``"optimal"`` on success).
    """

    values: np.ndarray
    objective: float
    solve_seconds: float
    status: str = "optimal"


class LinearProgram:
    """Incrementally-built sparse LP ``max c^T x  s.t.  A_ub x <= b_ub, A_eq x = b_eq``.

    Example
    -------
    >>> lp = LinearProgram(num_variables=2)
    >>> lp.set_objective_coefficient(0, 1.0)
    >>> lp.set_objective_coefficient(1, 1.0)
    >>> lp.add_le_constraint([(0, 1.0), (1, 2.0)], 4.0)
    0
    >>> result = lp.solve()
    >>> round(result.objective, 6)
    2.0
    """

    def __init__(
        self,
        num_variables: int,
        *,
        lower_bounds: Optional[np.ndarray] = None,
        upper_bounds: Optional[np.ndarray] = None,
    ) -> None:
        if num_variables <= 0:
            raise ValueError(f"num_variables must be positive, got {num_variables}")
        self.num_variables = int(num_variables)
        self.objective = np.zeros(self.num_variables, dtype=float)
        self.lower_bounds = (
            np.zeros(self.num_variables) if lower_bounds is None else np.asarray(lower_bounds, float)
        )
        self.upper_bounds = (
            np.ones(self.num_variables) if upper_bounds is None else np.asarray(upper_bounds, float)
        )
        if self.lower_bounds.shape != (self.num_variables,):
            raise ValueError("lower_bounds has the wrong shape")
        if self.upper_bounds.shape != (self.num_variables,):
            raise ValueError("upper_bounds has the wrong shape")
        self._ub = TripletConstraintBlock(self.num_variables)
        self._eq = TripletConstraintBlock(self.num_variables)

    # ------------------------------------------------------------------ #
    # Model building
    # ------------------------------------------------------------------ #
    def set_objective_coefficient(self, variable: int, coefficient: float) -> None:
        """Set (overwrite) the maximization objective coefficient of ``variable``."""
        self.objective[variable] = coefficient

    def set_objective_coefficients(
        self, variables: np.ndarray, coefficients: np.ndarray
    ) -> None:
        """Set (overwrite) the objective coefficients of many variables at once."""
        assign_coefficients(self.objective, variables, coefficients)

    def add_objective(self, variable: int, coefficient: float) -> None:
        """Add ``coefficient`` to the objective coefficient of ``variable``."""
        self.objective[variable] += coefficient

    def add_le_constraint(self, terms: Sequence[Tuple[int, float]], rhs: float) -> int:
        """Add ``sum coeff * x_var <= rhs``; returns the constraint row index."""
        return self._ub.add_row(terms, rhs)

    def add_eq_constraint(self, terms: Sequence[Tuple[int, float]], rhs: float) -> int:
        """Add ``sum coeff * x_var == rhs``; returns the constraint row index."""
        return self._eq.add_row(terms, rhs)

    def add_le_constraints_batch(
        self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """Add ``len(rhs)`` <= constraints wholesale from triplet arrays.

        ``rows`` holds batch-local 0-based row indices; the returned array
        gives the global row ids of the appended constraints.
        """
        return self._ub.add_rows(rows, cols, vals, rhs)

    def add_eq_constraints_batch(
        self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """Add ``len(rhs)`` == constraints wholesale from triplet arrays."""
        return self._eq.add_rows(rows, cols, vals, rhs)

    @property
    def num_le_constraints(self) -> int:
        """Number of <= constraints added so far."""
        return self._ub.num_rows

    @property
    def num_eq_constraints(self) -> int:
        """Number of == constraints added so far."""
        return self._eq.num_rows

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def build_matrices(self) -> Tuple[Optional[sparse.csr_matrix], Optional[np.ndarray],
                                      Optional[sparse.csr_matrix], Optional[np.ndarray]]:
        """Assemble (A_ub, b_ub, A_eq, b_eq) sparse matrices (``None`` when empty)."""
        a_ub = b_ub = a_eq = b_eq = None
        if self._ub.num_rows:
            a_ub = self._ub.matrix()
            b_ub = self._ub.rhs_vector()
        if self._eq.num_rows:
            a_eq = self._eq.matrix()
            b_eq = self._eq.rhs_vector()
        return a_ub, b_ub, a_eq, b_eq

    def solve(self, *, time_limit: Optional[float] = None) -> LPResult:
        """Solve the LP with HiGHS and return an :class:`LPResult`.

        Raises :class:`LPError` if the solver does not reach optimality.
        """
        a_ub, b_ub, a_eq, b_eq = self.build_matrices()
        options = {}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        start = time.perf_counter()
        result = linprog(
            c=-self.objective,  # linprog minimizes
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=np.column_stack([self.lower_bounds, self.upper_bounds]),
            method="highs",
            options=options or None,
        )
        elapsed = time.perf_counter() - start
        if not result.success:
            raise LPError(f"LP solve failed: {result.message}")
        return LPResult(
            values=np.asarray(result.x, dtype=float),
            objective=-float(result.fun),
            solve_seconds=elapsed,
            status="optimal",
        )


def stack_programs(
    programs: Sequence[LinearProgram],
) -> Tuple[LinearProgram, List[slice]]:
    """Stack ``programs`` into one block-diagonal program plus variable slices.

    The combined program maximizes the sum of the input objectives over the
    concatenated variable vector; constraints are stacked block-diagonally
    (:func:`~repro.solvers.assembly.stack_constraint_blocks`), so no row
    couples two inputs and the stacked program is separable.  The returned
    slices map each input program to its variable range in the combined
    solution vector.
    """
    if not programs:
        raise ValueError("stack_programs requires at least one program")
    stacked = LinearProgram(
        sum(program.num_variables for program in programs),
        lower_bounds=np.concatenate([p.lower_bounds for p in programs]),
        upper_bounds=np.concatenate([p.upper_bounds for p in programs]),
    )
    stacked.objective = np.concatenate([p.objective for p in programs])
    stacked._ub = stack_constraint_blocks([p._ub for p in programs])
    stacked._eq = stack_constraint_blocks([p._eq for p in programs])
    slices: List[slice] = []
    offset = 0
    for program in programs:
        slices.append(slice(offset, offset + program.num_variables))
        offset += program.num_variables
    return stacked, slices


def solve_block_diagonal(
    programs: Sequence[LinearProgram], *, time_limit: Optional[float] = None
) -> List[LPResult]:
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
    solved = stacked.solve(time_limit=time_limit)
    amortized = solved.solve_seconds / len(programs)
    results: List[LPResult] = []
    for program, block in zip(programs, slices):
        values = np.asarray(solved.values[block], dtype=float)
        results.append(
            LPResult(
                values=values,
                objective=float(program.objective @ values),
                solve_seconds=amortized,
                status=solved.status,
            )
        )
    return results


__all__ = [
    "LinearProgram",
    "LPResult",
    "LPError",
    "stack_programs",
    "solve_block_diagonal",
]
