"""Unit tests for the LP / MILP / branch-and-bound solver substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.solvers.branch_and_bound import BranchAndBoundSolver
from repro.solvers.linprog import LinearProgram, LPError
from repro.solvers.milp import MixedIntegerProgram


class TestLinearProgram:
    def test_simple_maximization(self):
        lp = LinearProgram(2)
        lp.set_objective_coefficient(0, 1.0)
        lp.set_objective_coefficient(1, 1.0)
        lp.add_le_constraint([(0, 1.0), (1, 2.0)], 4.0)
        result = lp.solve()
        assert result.objective == pytest.approx(2.0)  # x0=1, x1=1 (both capped at 1)

    def test_equality_constraint(self):
        lp = LinearProgram(2)
        lp.set_objective_coefficient(0, 2.0)
        lp.set_objective_coefficient(1, 1.0)
        lp.add_eq_constraint([(0, 1.0), (1, 1.0)], 1.0)
        result = lp.solve()
        assert result.objective == pytest.approx(2.0)
        assert result.values[0] == pytest.approx(1.0)

    def test_custom_bounds(self):
        lp = LinearProgram(1, upper_bounds=np.array([5.0]))
        lp.set_objective_coefficient(0, 1.0)
        result = lp.solve()
        assert result.objective == pytest.approx(5.0)

    def test_infeasible_raises(self):
        lp = LinearProgram(1)
        lp.add_le_constraint([(0, 1.0)], -1.0)  # x <= -1 with x >= 0
        with pytest.raises(LPError):
            lp.solve()

    def test_add_objective_accumulates(self):
        lp = LinearProgram(1)
        lp.add_objective(0, 0.5)
        lp.add_objective(0, 0.5)
        assert lp.objective[0] == pytest.approx(1.0)

    def test_counters(self):
        lp = LinearProgram(2)
        lp.add_le_constraint([(0, 1.0)], 1.0)
        lp.add_eq_constraint([(1, 1.0)], 0.5)
        assert lp.num_le_constraints == 1
        assert lp.num_eq_constraints == 1

    def test_rejects_zero_variables(self):
        with pytest.raises(ValueError):
            LinearProgram(0)


class TestBatchConstraintAPI:
    """Batch triplet appends must match the per-term constraint path."""

    def _scalar_lp(self) -> LinearProgram:
        lp = LinearProgram(3)
        lp.set_objective_coefficient(0, 1.0)
        lp.set_objective_coefficient(1, 2.0)
        lp.set_objective_coefficient(2, 0.5)
        lp.add_le_constraint([(0, 1.0), (1, 1.0)], 1.5)
        lp.add_le_constraint([(1, 2.0), (2, 1.0)], 2.0)
        lp.add_eq_constraint([(0, 1.0), (2, 1.0)], 1.0)
        return lp

    def _batch_lp(self) -> LinearProgram:
        lp = LinearProgram(3)
        lp.set_objective_coefficients(np.arange(3), np.array([1.0, 2.0, 0.5]))
        lp.add_le_constraints_batch(
            rows=np.array([0, 0, 1, 1]),
            cols=np.array([0, 1, 1, 2]),
            vals=np.array([1.0, 1.0, 2.0, 1.0]),
            rhs=np.array([1.5, 2.0]),
        )
        lp.add_eq_constraints_batch(
            rows=np.array([0, 0]),
            cols=np.array([0, 2]),
            vals=np.array([1.0, 1.0]),
            rhs=np.array([1.0]),
        )
        return lp

    def test_batch_lp_matches_scalar_lp(self):
        scalar, batch = self._scalar_lp(), self._batch_lp()
        for a, b in zip(scalar.build_matrices(), batch.build_matrices()):
            if isinstance(a, np.ndarray):
                np.testing.assert_array_equal(a, b)
            else:
                assert (a != b).nnz == 0
        assert scalar.solve().objective == pytest.approx(batch.solve().objective)

    def test_mixed_scalar_and_batch_preserve_row_order(self):
        lp = LinearProgram(2)
        first = lp.add_le_constraint([(0, 1.0)], 1.0)
        batch = lp.add_le_constraints_batch(
            rows=np.array([0, 1]), cols=np.array([0, 1]),
            vals=np.array([2.0, 3.0]), rhs=np.array([4.0, 5.0]),
        )
        last = lp.add_le_constraint([(1, 1.0)], 6.0)
        assert first == 0
        assert batch.tolist() == [1, 2]
        assert last == 3
        a_ub, b_ub, _, _ = lp.build_matrices()
        np.testing.assert_array_equal(
            a_ub.toarray(), [[1.0, 0.0], [2.0, 0.0], [0.0, 3.0], [0.0, 1.0]]
        )
        np.testing.assert_array_equal(b_ub, [1.0, 4.0, 5.0, 6.0])

    def test_batch_rejects_mismatched_triplet_lengths(self):
        lp = LinearProgram(2)
        with pytest.raises(ValueError, match="identical lengths"):
            lp.add_le_constraints_batch(
                rows=np.array([0]), cols=np.array([0, 1]),
                vals=np.array([1.0]), rhs=np.array([1.0]),
            )

    def test_batch_rejects_out_of_range_rows(self):
        lp = LinearProgram(2)
        with pytest.raises(ValueError, match="row indices"):
            lp.add_le_constraints_batch(
                rows=np.array([1]), cols=np.array([0]),
                vals=np.array([1.0]), rhs=np.array([1.0]),
            )

    def test_batch_rejects_out_of_range_columns(self):
        lp = LinearProgram(2)
        with pytest.raises(ValueError, match="column indices"):
            lp.add_le_constraints_batch(
                rows=np.array([0]), cols=np.array([5]),
                vals=np.array([1.0]), rhs=np.array([1.0]),
            )

    def test_set_objective_coefficients_rejects_shape_mismatch(self):
        lp = LinearProgram(3)
        with pytest.raises(ValueError, match="identical shapes"):
            lp.set_objective_coefficients(np.arange(2), np.ones(3))

    def test_milp_batch_matches_scalar(self):
        scalar = MixedIntegerProgram(3)
        scalar.set_objective_coefficient(0, 5.0)
        scalar.set_objective_coefficient(1, 4.0)
        scalar.set_objective_coefficient(2, 3.0)
        scalar.add_le_constraint([(0, 2.0), (1, 3.0), (2, 1.0)], 4.0)
        scalar.add_eq_constraint([(0, 1.0), (2, 1.0)], 1.0)
        scalar.mark_integer_block(range(3))

        batch = MixedIntegerProgram(3)
        batch.set_objective_coefficients(np.arange(3), np.array([5.0, 4.0, 3.0]))
        batch.add_le_constraints_batch(
            rows=np.zeros(3, dtype=np.int64), cols=np.arange(3),
            vals=np.array([2.0, 3.0, 1.0]), rhs=np.array([4.0]),
        )
        batch.add_eq_constraints_batch(
            rows=np.array([0, 0]), cols=np.array([0, 2]),
            vals=np.array([1.0, 1.0]), rhs=np.array([1.0]),
        )
        batch.mark_integer_block(np.arange(3))

        matrix_s, lhs_s, rhs_s = scalar.build_constraints()
        matrix_b, lhs_b, rhs_b = batch.build_constraints()
        assert (matrix_s != matrix_b).nnz == 0
        np.testing.assert_array_equal(lhs_s, lhs_b)
        np.testing.assert_array_equal(rhs_s, rhs_b)
        np.testing.assert_array_equal(scalar.integrality, batch.integrality)
        assert scalar.solve().objective == pytest.approx(batch.solve().objective)


class TestMixedIntegerProgram:
    def build_knapsack(self):
        """max 5a + 4b + 3c  s.t.  2a + 3b + c <= 4, binary (optimum: a + c = 8)."""
        program = MixedIntegerProgram(3)
        for i, coeff in enumerate([5.0, 4.0, 3.0]):
            program.set_objective_coefficient(i, coeff)
        program.add_le_constraint([(0, 2.0), (1, 3.0), (2, 1.0)], 4.0)
        program.mark_integer_block(range(3))
        return program

    def test_knapsack_optimum(self):
        result = self.build_knapsack().solve()
        assert result.optimal
        assert result.objective == pytest.approx(8.0)  # a and c

    def test_integrality_of_solution(self):
        result = self.build_knapsack().solve()
        np.testing.assert_allclose(result.values, np.round(result.values), atol=1e-6)

    def test_equality_constraint(self):
        program = MixedIntegerProgram(2)
        program.set_objective_coefficient(0, 1.0)
        program.set_objective_coefficient(1, 3.0)
        program.add_eq_constraint([(0, 1.0), (1, 1.0)], 1.0)
        program.mark_integer_block(range(2))
        result = program.solve()
        assert result.objective == pytest.approx(3.0)

    def test_time_limit_returns_incumbent_or_raises(self):
        # A tiny model always solves within any limit; just check the call path.
        result = self.build_knapsack().solve(time_limit=10.0)
        assert result.objective == pytest.approx(8.0)


class TestBranchAndBound:
    def build_program(self, seed: int, num_vars: int = 6, num_cons: int = 4):
        rng = np.random.default_rng(seed)
        program = MixedIntegerProgram(num_vars)
        for i in range(num_vars):
            program.set_objective_coefficient(i, float(rng.uniform(0.5, 2.0)))
        for _ in range(num_cons):
            terms = [(i, float(rng.uniform(0.1, 1.0))) for i in range(num_vars)]
            program.add_le_constraint(terms, float(rng.uniform(1.0, 2.5)))
        program.mark_integer_block(range(num_vars))
        return program

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("strategy", ["best_first", "depth_first"])
    def test_matches_highs_on_random_milps(self, seed, strategy):
        program = self.build_program(seed)
        reference = program.solve()
        bnb = BranchAndBoundSolver(program, strategy=strategy).solve()
        assert bnb.values is not None
        assert bnb.objective == pytest.approx(reference.objective, rel=1e-6, abs=1e-6)

    def test_reports_optimal_and_gap(self):
        program = self.build_program(3)
        result = BranchAndBoundSolver(program).solve()
        assert result.optimal
        assert result.gap <= 1e-6 or result.upper_bound <= result.objective + 1e-6

    def test_node_limit_stops_early(self):
        program = self.build_program(4, num_vars=10, num_cons=6)
        result = BranchAndBoundSolver(program).solve(node_limit=2)
        assert result.nodes_explored <= 3  # root + limit

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            BranchAndBoundSolver(self.build_program(0), strategy="random")

    def test_pure_lp_program(self):
        program = MixedIntegerProgram(2)
        program.set_objective_coefficient(0, 1.0)
        program.set_objective_coefficient(1, 1.0)
        program.add_le_constraint([(0, 1.0), (1, 1.0)], 1.5)
        result = BranchAndBoundSolver(program).solve()
        assert result.objective == pytest.approx(1.5)
