"""Mixed-integer programming wrapper over SciPy's HiGHS MILP backend.

The exact IP baseline of Section 3.3 and the MIP-strategy ablation of
Figure 9(a) are solved through this module.  A :class:`MixedIntegerProgram`
is the record of one finished maximization model, like
:class:`repro.solvers.linprog.LinearProgram`, with its rows in one
``lhs <= A x <= rhs`` CSR block (an ``==`` row has ``lhs == rhs``, a ``<=``
row ``lhs = -inf``), an integrality mask, and solver knobs (``time_limit``,
``mip_rel_gap``) that stand in for the Gurobi strategy switches used in the
paper.  :mod:`repro.core.ip` builds its ~10^5-row models as NumPy triplet
blocks laid out by :func:`repro.solvers.assembly.stack_rows`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.solvers.assembly import checked_objective, checked_rows, checked_vector


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
        at a feasible incumbent because of a time or gap limit.
    mip_gap:
        Relative optimality gap reported by the solver (``0.0`` when proven
        optimal, ``nan`` when unknown).
    """

    values: np.ndarray
    objective: float
    solve_seconds: float
    optimal: bool
    mip_gap: float = 0.0


@dataclass(eq=False)  # array fields: compare models field by field
class MixedIntegerProgram:
    """A finished sparse MILP ``max c^T x  s.t.  lhs <= A x <= rhs,  lb <= x <= ub``.

    ``matrix``/``lhs``/``rhs`` are ``None`` for a program without rows; the
    matrix is stored in CSR form.  Variables are continuous unless
    ``integrality`` marks them ``1``; the bounds default to ``[0, 1]``.
    """

    objective: np.ndarray
    matrix: Optional[sparse.csr_matrix] = None
    lhs: Optional[np.ndarray] = None
    rhs: Optional[np.ndarray] = None
    integrality: Optional[np.ndarray] = None
    lower_bounds: Optional[np.ndarray] = None
    upper_bounds: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.objective = checked_objective(self.objective)
        n = self.num_variables
        rows = checked_rows("matrix", self.matrix, n, self.lhs, self.rhs)
        self.matrix, self.lhs, self.rhs = rows
        self.lower_bounds = checked_vector("lower_bounds", self.lower_bounds, n, 0.0)
        self.upper_bounds = checked_vector("upper_bounds", self.upper_bounds, n, 1.0)
        self.integrality = checked_vector("integrality", self.integrality, n, 0).astype(np.int64)

    @property
    def num_variables(self) -> int:
        return int(self.objective.shape[0])

    @property
    def num_constraints(self) -> int:
        return 0 if self.matrix is None else int(self.matrix.shape[0])

    def solve(
        self,
        *,
        time_limit: Optional[float] = None,
        mip_rel_gap: Optional[float] = None,
    ) -> MILPResult:
        """Solve with HiGHS MILP; raises :class:`MILPError` when no incumbent is found."""
        constraints = []
        if self.matrix is not None:
            constraints.append(LinearConstraint(self.matrix.tocsc(), self.lhs, self.rhs))
        options = {}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        if mip_rel_gap is not None:
            options["mip_rel_gap"] = float(mip_rel_gap)
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
