"""Pure-Python branch-and-bound MILP solver on :class:`~repro.solvers.linprog.LinearProgram`.

This is the in-repo substitute for the "different MIP strategies" the paper
benchmarks with Gurobi (primal-first, dual-first, concurrent, barrier, ...).
It solves the same mixed-integer programs as :mod:`repro.solvers.milp` but
exposes the search strategy (best-first vs. depth-first), a node limit and a
time limit, so the Figure 9(a) ablation can compare anytime behaviour of
several exact strategies against AVG-D without a commercial solver.

The solver is intentionally simple (LP relaxation + most-fractional
branching) — it is correct and is cross-checked against HiGHS MILP in the
test suite, but it is not intended to be fast on large models.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.solvers.linprog import LinearProgram, LPError
from repro.solvers.milp import MixedIntegerProgram


@dataclass
class BnBResult:
    """Result of a branch-and-bound search.

    Attributes
    ----------
    values:
        Best integer-feasible solution found (``None`` if none was found).
    objective:
        Objective of the best solution (``-inf`` when none found).
    upper_bound:
        Best proven upper bound on the optimum.
    nodes_explored:
        Number of branch-and-bound nodes whose LP relaxation was solved.
    optimal:
        Whether the search closed the gap (bound == incumbent within tolerance).
    solve_seconds:
        Wall-clock time of the search.
    """

    values: Optional[np.ndarray]
    objective: float
    upper_bound: float
    nodes_explored: int
    optimal: bool
    solve_seconds: float

    @property
    def gap(self) -> float:
        """Relative optimality gap (0 when optimal, inf when no incumbent)."""
        if self.values is None:
            return float("inf")
        if abs(self.objective) < 1e-12:
            return abs(self.upper_bound - self.objective)
        return abs(self.upper_bound - self.objective) / abs(self.objective)


@dataclass(order=True)
class _Node:
    priority: float
    order: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)
    depth: int = field(compare=False, default=0)


class BranchAndBoundSolver:
    """Branch-and-bound over the LP relaxation of a :class:`MixedIntegerProgram`.

    Parameters
    ----------
    program:
        The MILP model (maximization) to solve.
    strategy:
        ``"best_first"`` explores the node with the largest LP bound first
        (good bounds, slow incumbents); ``"depth_first"`` dives to find
        incumbents quickly (anytime behaviour closer to a primal heuristic).
    integer_tolerance:
        Values within this distance of an integer are considered integral.
    """

    def __init__(
        self,
        program: MixedIntegerProgram,
        *,
        strategy: str = "best_first",
        integer_tolerance: float = 1e-6,
    ) -> None:
        if strategy not in {"best_first", "depth_first"}:
            raise ValueError(f"unknown strategy {strategy!r}; use 'best_first' or 'depth_first'")
        self.program = program
        self.strategy = strategy
        self.integer_tolerance = float(integer_tolerance)
        self._a_ub, self._b_ub = _less_equal_rows(program)

    # ------------------------------------------------------------------ #
    def _solve_relaxation(
        self, lower: np.ndarray, upper: np.ndarray
    ) -> Tuple[Optional[np.ndarray], float]:
        """Solve the LP relaxation under bounds [lower, upper]; ``(None, -inf)`` if it fails."""
        relaxation = LinearProgram(
            self.program.objective,
            a_ub=self._a_ub,
            b_ub=self._b_ub,
            lower_bounds=lower,
            upper_bounds=upper,
        )
        try:
            result = relaxation.solve()
        except LPError:
            return None, -np.inf
        return result.values, result.objective

    def _fractional_variable(self, values: np.ndarray) -> Optional[int]:
        """Most fractional integer-constrained variable, or ``None`` if integral."""
        integer_vars = np.nonzero(self.program.integrality > 0)[0]
        if integer_vars.size == 0:
            return None
        fractional = np.abs(values[integer_vars] - np.round(values[integer_vars]))
        worst = int(np.argmax(fractional))
        if fractional[worst] <= self.integer_tolerance:
            return None
        return int(integer_vars[worst])

    # ------------------------------------------------------------------ #
    def solve(
        self,
        *,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
    ) -> BnBResult:
        """Run the search and return the best incumbent found."""
        start = time.perf_counter()
        counter = itertools.count()
        root_lower = self.program.lower_bounds.copy()
        root_upper = self.program.upper_bounds.copy()

        best_values: Optional[np.ndarray] = None
        best_objective = -np.inf
        global_upper = np.inf
        nodes_explored = 0

        root_values, root_bound = self._solve_relaxation(root_lower, root_upper)
        nodes_explored += 1
        if root_values is None:
            return BnBResult(None, -np.inf, -np.inf, nodes_explored, False,
                             time.perf_counter() - start)
        global_upper = root_bound

        heap: List[_Node] = []
        stack: List[_Node] = []

        def push(node: _Node) -> None:
            if self.strategy == "best_first":
                heapq.heappush(heap, node)
            else:
                stack.append(node)

        def pop() -> _Node:
            if self.strategy == "best_first":
                return heapq.heappop(heap)
            return stack.pop()

        def pending() -> bool:
            return bool(heap) if self.strategy == "best_first" else bool(stack)

        push(_Node(priority=-root_bound, order=next(counter), lower=root_lower,
                   upper=root_upper, depth=0))

        while pending():
            if time_limit is not None and (time.perf_counter() - start) > time_limit:
                break
            if node_limit is not None and nodes_explored >= node_limit:
                break
            node = pop()
            values, bound = self._solve_relaxation(node.lower, node.upper)
            nodes_explored += 1
            if values is None or bound <= best_objective + 1e-9:
                continue
            branch_var = self._fractional_variable(values)
            if branch_var is None:
                # Integer feasible: round integer variables exactly.
                rounded = values.copy()
                int_vars = self.program.integrality > 0
                rounded[int_vars] = np.round(rounded[int_vars])
                objective = float(self.program.objective @ rounded)
                if objective > best_objective:
                    best_objective = objective
                    best_values = rounded
                continue
            value = values[branch_var]
            floor_val, ceil_val = np.floor(value), np.ceil(value)
            # Down branch.
            down_upper = node.upper.copy()
            down_upper[branch_var] = floor_val
            push(_Node(priority=-bound, order=next(counter), lower=node.lower.copy(),
                       upper=down_upper, depth=node.depth + 1))
            # Up branch.
            up_lower = node.lower.copy()
            up_lower[branch_var] = ceil_val
            push(_Node(priority=-bound, order=next(counter), lower=up_lower,
                       upper=node.upper.copy(), depth=node.depth + 1))

        # Remaining open nodes bound the optimum from above.
        open_bounds = [-n.priority for n in (heap if self.strategy == "best_first" else stack)]
        remaining_upper = max(open_bounds) if open_bounds else -np.inf
        proven_upper = max(best_objective, remaining_upper)
        proven_upper = min(global_upper, proven_upper) if np.isfinite(proven_upper) else global_upper
        optimal = best_values is not None and not pending()
        return BnBResult(
            values=best_values,
            objective=best_objective if best_values is not None else -np.inf,
            upper_bound=proven_upper if np.isfinite(proven_upper) else global_upper,
            nodes_explored=nodes_explored,
            optimal=optimal,
            solve_seconds=time.perf_counter() - start,
        )


def _less_equal_rows(
    program: MixedIntegerProgram,
) -> Tuple[Optional[sparse.csr_matrix], Optional[np.ndarray]]:
    """``lhs <= A x <= rhs`` as ``<=`` rows: ``A x <= rhs`` and ``-A x <= -lhs`` where finite."""
    if program.matrix is None:
        return None, None
    blocks = []
    rhs_blocks = []
    finite_upper = np.isfinite(program.rhs)
    if np.any(finite_upper):
        blocks.append(program.matrix[finite_upper])
        rhs_blocks.append(program.rhs[finite_upper])
    finite_lower = np.isfinite(program.lhs)
    if np.any(finite_lower):
        blocks.append(-program.matrix[finite_lower])
        rhs_blocks.append(-program.lhs[finite_lower])
    if not blocks:
        return None, None
    return sparse.vstack(blocks).tocsr(), np.concatenate(rhs_blocks)


__all__ = ["BranchAndBoundSolver", "BnBResult"]
