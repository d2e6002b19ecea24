"""Mixed-integer programming wrapper over SciPy's HiGHS MILP backend.

The exact IP baseline of Section 3.3 and the MIP-strategy ablation of
Figure 9(a) are solved through this module.  The interface mirrors
:class:`repro.solvers.linprog.LinearProgram` (maximization, sparse triplet
assembly) with an additional integrality mask and solver control knobs
(``time_limit``, ``mip_rel_gap``, ``node_limit``) that stand in for the
Gurobi strategy switches used in the paper.

Like the LP wrapper, constraints are accepted either per-term
(:meth:`MixedIntegerProgram.add_le_constraint` /
:meth:`~MixedIntegerProgram.add_eq_constraint`) or wholesale as NumPy triplet
arrays (:meth:`~MixedIntegerProgram.add_le_constraints_batch` /
:meth:`~MixedIntegerProgram.add_eq_constraints_batch` /
:meth:`~MixedIntegerProgram.add_range_constraints_batch`), with
:meth:`~MixedIntegerProgram.set_objective_coefficients` as the vectorized
objective setter.  The batch path keeps model assembly off the Python
bytecode interpreter; :mod:`repro.core.ip` builds its ~10^5-row models with a
handful of batch calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.solvers.assembly import (
    TripletConstraintBlock,
    assign_coefficients,
    checked_index_array,
)


class MILPError(RuntimeError):
    """Raised when the MILP solver fails to return a usable solution."""


@dataclass
class MILPResult:
    """Solution of a mixed-integer program.

    Attributes
    ----------
    values:
        Variable values of the incumbent solution.
    objective:
        Objective value of the incumbent (maximization sense).
    solve_seconds:
        Wall-clock time spent in the solver.
    optimal:
        ``True`` when the solver proved optimality; ``False`` when it stopped
        at a feasible incumbent because of a time/gap/node limit.
    mip_gap:
        Relative optimality gap reported by the solver (``0.0`` when proven
        optimal, ``nan`` when unknown).
    """

    values: np.ndarray
    objective: float
    solve_seconds: float
    optimal: bool
    mip_gap: float = 0.0


class MixedIntegerProgram:
    """Incrementally-built sparse MILP ``max c^T x``.

    Variables are continuous in ``[lb, ub]`` unless marked integer via
    :meth:`mark_integer`.
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
        self.integrality = np.zeros(self.num_variables, dtype=np.int64)
        self._constraints = TripletConstraintBlock(self.num_variables, track_lower=True)

    # ------------------------------------------------------------------ #
    # Model building
    # ------------------------------------------------------------------ #
    def set_objective_coefficient(self, variable: int, coefficient: float) -> None:
        """Set the maximization objective coefficient of ``variable``."""
        self.objective[variable] = coefficient

    def set_objective_coefficients(
        self, variables: np.ndarray, coefficients: np.ndarray
    ) -> None:
        """Set (overwrite) the objective coefficients of many variables at once."""
        assign_coefficients(self.objective, variables, coefficients)

    def add_objective(self, variable: int, coefficient: float) -> None:
        """Add ``coefficient`` to the objective coefficient of ``variable``."""
        self.objective[variable] += coefficient

    def mark_integer(self, variable: int) -> None:
        """Require ``variable`` to take integer values."""
        self.integrality[variable] = 1

    def mark_integer_block(self, variables: Sequence[int]) -> None:
        """Mark every variable in ``variables`` as integer (accepts any index array)."""
        self.integrality[checked_index_array(variables, self.num_variables)] = 1

    def add_le_constraint(self, terms: Sequence[Tuple[int, float]], rhs: float) -> None:
        """Add ``sum coeff * x_var <= rhs``."""
        self._constraints.add_row(terms, rhs, lhs=-np.inf)

    def add_eq_constraint(self, terms: Sequence[Tuple[int, float]], rhs: float) -> None:
        """Add ``sum coeff * x_var == rhs``."""
        self._constraints.add_row(terms, rhs, lhs=rhs)

    def add_le_constraints_batch(
        self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """Add ``len(rhs)`` <= constraints wholesale from triplet arrays.

        ``rows`` holds batch-local 0-based row indices; the returned array
        gives the global row ids of the appended constraints.
        """
        return self._constraints.add_rows(rows, cols, vals, rhs)

    def add_eq_constraints_batch(
        self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """Add ``len(rhs)`` == constraints wholesale from triplet arrays."""
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        return self._constraints.add_rows(rows, cols, vals, rhs, lhs=rhs)

    def add_range_constraints_batch(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> np.ndarray:
        """Add ``len(upper)`` range constraints ``lower <= A x <= upper`` wholesale."""
        return self._constraints.add_rows(rows, cols, vals, upper, lhs=lower)

    @property
    def num_constraints(self) -> int:
        """Number of linear constraints added so far."""
        return self._constraints.num_rows

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def build_constraints(
        self,
    ) -> Optional[Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]]:
        """Assemble ``(A, lhs, rhs)`` for all rows, or ``None`` when there are none."""
        if self._constraints.num_rows == 0:
            return None
        return (
            self._constraints.matrix(),
            self._constraints.lhs_vector(),
            self._constraints.rhs_vector(),
        )

    def solve(
        self,
        *,
        time_limit: Optional[float] = None,
        mip_rel_gap: Optional[float] = None,
        node_limit: Optional[int] = None,
    ) -> MILPResult:
        """Solve with HiGHS MILP; raises :class:`MILPError` when no incumbent is found."""
        constraints = []
        assembled = self.build_constraints()
        if assembled is not None:
            matrix, lhs, rhs = assembled
            constraints.append(LinearConstraint(matrix.tocsc(), lhs, rhs))
        options = {}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        if mip_rel_gap is not None:
            options["mip_rel_gap"] = float(mip_rel_gap)
        if node_limit is not None:
            options["node_limit"] = int(node_limit)
        start = time.perf_counter()
        result = milp(
            c=-self.objective,
            constraints=constraints,
            integrality=self.integrality,
            bounds=Bounds(self.lower_bounds, self.upper_bounds),
            options=options or None,
        )
        elapsed = time.perf_counter() - start
        if result.x is None:
            raise MILPError(f"MILP solve produced no incumbent: {result.message}")
        gap = float(result.mip_gap) if getattr(result, "mip_gap", None) is not None else float("nan")
        return MILPResult(
            values=np.asarray(result.x, dtype=float),
            objective=-float(result.fun),
            solve_seconds=elapsed,
            optimal=bool(result.status == 0),
            mip_gap=gap,
        )


__all__ = ["MixedIntegerProgram", "MILPResult", "MILPError"]
