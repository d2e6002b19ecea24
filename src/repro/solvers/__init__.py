"""Mathematical-programming substrate.

The paper solves its LP relaxations and integer programs with commercial
solvers (Gurobi / CPLEX).  This package provides the open equivalent used by
the reproduction:

* :mod:`repro.solvers.linprog` — a thin wrapper over SciPy's HiGHS LP solver
  with a uniform maximization interface and sparse constraint assembly.
* :mod:`repro.solvers.milp` — a wrapper over SciPy's HiGHS MILP solver with
  time-limit / gap-limit knobs (used to emulate the paper's different MIP
  strategies in Figure 9(a)).
* :mod:`repro.solvers.branch_and_bound` — a self-contained pure-Python
  branch-and-bound MILP solver built on the LP wrapper.  It is used as a
  fallback, as a cross-check for the HiGHS results in the test suite, and to
  provide alternative search strategies (best-first / depth-first) for the
  MIP-strategy ablation.
"""

from repro.solvers.assembly import TripletConstraintBlock, stack_constraint_blocks
from repro.solvers.branch_and_bound import BranchAndBoundSolver, BnBResult
from repro.solvers.linprog import (
    LinearProgram,
    LPResult,
    solve_block_diagonal,
    stack_programs,
)
from repro.solvers.milp import MILPResult, MixedIntegerProgram

__all__ = [
    "LinearProgram",
    "LPResult",
    "stack_programs",
    "solve_block_diagonal",
    "TripletConstraintBlock",
    "stack_constraint_blocks",
    "MixedIntegerProgram",
    "MILPResult",
    "BranchAndBoundSolver",
    "BnBResult",
]
