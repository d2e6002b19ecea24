"""Mathematical-programming substrate.

The paper solves its LP relaxations and integer programs with commercial
solvers (Gurobi / CPLEX).  This package provides the open equivalent used by
the reproduction:

* :mod:`repro.solvers.linprog` — :class:`LinearProgram`, the record of one
  finished maximization LP (objective, ``<=`` and ``==`` CSR blocks,
  bounds), handed to HiGHS in one call through the binding SciPy bundles
  (``scipy.optimize.linprog`` where that binding is missing); the call can
  grow the model by column generation, re-solving warm on one session.
* :mod:`repro.solvers.milp` — :class:`MixedIntegerProgram`, the finished
  MILP record (one ``lhs <= A x <= rhs`` block plus integrality), solved
  with SciPy's HiGHS MILP solver under time-limit / gap-limit knobs (used to
  emulate the paper's different MIP strategies in Figure 9(a)).
* :mod:`repro.solvers.assembly` — :func:`~repro.solvers.assembly.stack_rows`,
  which lays the model builders' NumPy triplet blocks out as one CSR matrix.
* :mod:`repro.solvers.branch_and_bound` — a self-contained pure-Python
  branch-and-bound MILP solver whose node relaxations are
  :class:`LinearProgram` solves.  It is used as a fallback, as a
  cross-check for the HiGHS results in the test suite, and to provide
  alternative search strategies (best-first / depth-first) for the
  MIP-strategy ablation.
"""

from repro.solvers.branch_and_bound import BranchAndBoundSolver, BnBResult
from repro.solvers.linprog import LinearProgram, LPResult
from repro.solvers.milp import MILPResult, MixedIntegerProgram

__all__ = [
    "LinearProgram",
    "LPResult",
    "MixedIntegerProgram",
    "MILPResult",
    "BranchAndBoundSolver",
    "BnBResult",
]
