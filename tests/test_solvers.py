"""Unit tests for the LP / MILP / branch-and-bound solver substrate."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from repro.solvers import linprog as linprog_module
from repro.solvers.assembly import stack_rows
from repro.solvers.branch_and_bound import BranchAndBoundSolver
from repro.solvers.linprog import LinearProgram, LPError, PricedColumns
from repro.solvers.milp import MixedIntegerProgram


class TestLinearProgram:
    def test_simple_maximization(self):
        lp = LinearProgram(np.array([1.0, 1.0]), a_ub=[[1.0, 2.0]], b_ub=[4.0])
        result = lp.solve()
        assert result.objective == pytest.approx(2.0)  # x0=1, x1=1 (both capped at 1)

    def test_equality_constraint(self):
        lp = LinearProgram(np.array([2.0, 1.0]), a_eq=[[1.0, 1.0]], b_eq=[1.0])
        result = lp.solve()
        assert result.objective == pytest.approx(2.0)
        assert result.values[0] == pytest.approx(1.0)

    def test_custom_bounds(self):
        lp = LinearProgram(np.array([1.0]), upper_bounds=np.array([5.0]))
        result = lp.solve()
        assert result.objective == pytest.approx(5.0)

    @pytest.fixture(params=["binding", "fallback"])
    def solver_path(self, request, monkeypatch):
        """Solve through SciPy's HiGHS binding, or through ``scipy.optimize.linprog``."""
        if request.param == "fallback":
            monkeypatch.setattr(linprog_module, "_highs", None)
        elif linprog_module._highs is None:
            pytest.skip("SciPy's HiGHS binding is not in use")
        return request.param

    def test_infeasible_raises(self):
        lp = LinearProgram(np.zeros(1), a_ub=[[1.0]], b_ub=[-1.0])  # x <= -1 with x >= 0
        with pytest.raises(LPError):
            lp.solve()

    def test_infeasible_raises_without_binding(self, monkeypatch):
        monkeypatch.setattr(linprog_module, "_highs", None)
        lp = LinearProgram(np.zeros(1), a_ub=[[1.0]], b_ub=[-1.0])
        with pytest.raises(LPError):
            lp.solve()

    def test_unbounded_raises(self, solver_path):
        lp = LinearProgram(
            np.ones(2), a_ub=[[1.0, -1.0]], b_ub=[1.0], upper_bounds=np.full(2, np.inf)
        )
        with pytest.raises(LPError):
            lp.solve()

    def test_rejected_model_raises(self, solver_path):
        # HiGHS refuses a matrix entry at or above its large-value limit (1e15).
        lp = LinearProgram(np.ones(2), a_ub=[[1e16, 1.0]], b_ub=[1.0])
        with pytest.raises(LPError, match="Model error"):
            lp.solve()

    def test_fallback_refuses_a_pricer(self, monkeypatch):
        monkeypatch.setattr(linprog_module, "_highs", None)
        lp = LinearProgram(np.ones(1))
        with pytest.raises(ValueError, match="cannot price"):
            lp.solve(price=lambda row_duals: None)

    def test_repeated_entries_are_summed(self, solver_path):
        # Row 0 holds column 0 twice: 0.5 x0 + 0.5 x0 + x1 <= 1.
        repeated = sparse.csr_matrix(
            (np.array([0.5, 0.5, 1.0]), np.array([0, 0, 1]), np.array([0, 3])), shape=(1, 2)
        )
        lp = LinearProgram(np.array([1.0, 2.0]), a_ub=repeated, b_ub=[1.0])
        np.testing.assert_array_equal(lp.a_ub.toarray(), [[1.0, 1.0]])
        assert repeated.nnz == 3  # the caller's matrix is left as it was
        result = lp.solve()
        assert result.objective == pytest.approx(2.0)
        np.testing.assert_allclose(result.values, [0.0, 1.0])

    def test_rejects_zero_variables(self):
        with pytest.raises(ValueError):
            LinearProgram(np.zeros(0))

    def test_stores_csr_blocks_and_default_bounds(self):
        lp = LinearProgram(np.ones(2), a_ub=[[1.0, 0.0]], b_ub=[1.0])
        assert sparse.isspmatrix_csr(lp.a_ub)
        assert lp.a_eq is None and lp.b_eq is None
        np.testing.assert_array_equal(lp.lower_bounds, [0.0, 0.0])
        np.testing.assert_array_equal(lp.upper_bounds, [1.0, 1.0])

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"a_ub": [[1.0, 0.0, 0.0]], "b_ub": [1.0]}, "columns"),
            ({"a_ub": [[1.0, 0.0]], "b_ub": [1.0, 2.0]}, "row bounds"),
            ({"a_ub": [[1.0, 0.0]]}, "row bounds"),
            ({"b_eq": [1.0]}, "no matrix"),
            ({"a_eq": [[1.0, 1.0]], "b_eq": [[1.0]]}, "row bounds"),
            ({"lower_bounds": np.zeros(3)}, "lower_bounds"),
            ({"upper_bounds": np.ones(1)}, "upper_bounds"),
        ],
        ids=["ub-columns", "ub-rhs-length", "ub-rhs-missing", "eq-matrix-missing",
             "eq-rhs-shape", "lower-bounds", "upper-bounds"],
    )
    def test_rejects_inconsistent_shapes(self, fields, message):
        with pytest.raises(ValueError, match=message):
            LinearProgram(np.ones(2), **fields)

    def test_rejects_non_vector_objective(self):
        with pytest.raises(ValueError, match="objective"):
            LinearProgram(np.ones((2, 2)))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"objective": np.array([1.0, np.inf])}, "objective must be finite"),
            ({"objective": np.array([np.nan, 1.0])}, "objective must be finite"),
            ({"a_ub": [[1.0, np.nan]], "b_ub": [1.0]}, "a_ub must be finite"),
            ({"a_ub": [[1.0, 0.0]], "b_ub": [np.inf]}, "b_ub must be finite"),
            ({"a_eq": [[-np.inf, 1.0]], "b_eq": [1.0]}, "a_eq must be finite"),
            ({"a_eq": [[1.0, 1.0]], "b_eq": [np.nan]}, "b_eq must be finite"),
            ({"lower_bounds": np.array([np.nan, 0.0])}, "NaN"),
            ({"upper_bounds": np.array([1.0, np.nan])}, "NaN"),
        ],
        ids=["objective-inf", "objective-nan", "a_ub-nan", "b_ub-inf", "a_eq-inf",
             "b_eq-nan", "lower-nan", "upper-nan"],
    )
    def test_rejects_non_finite_input(self, fields, message):
        fields = {"objective": np.ones(2), **fields}
        with pytest.raises(ValueError, match=message):
            LinearProgram(**fields)

    def test_accepts_infinite_bounds(self, solver_path):
        lp = LinearProgram(
            np.array([1.0, 1.0]),
            a_ub=[[1.0, 0.0]],
            b_ub=[3.0],
            lower_bounds=np.full(2, -np.inf),
            upper_bounds=np.array([np.inf, 2.0]),
        )
        result = lp.solve()
        assert result.objective == pytest.approx(5.0)
        np.testing.assert_allclose(result.values, [3.0, 2.0])


@pytest.mark.skipif(linprog_module._highs is None, reason="needs SciPy's HiGHS binding")
class TestBindingSolutionCheck:
    """The direct HiGHS call rejects a solution as ``scipy.optimize.linprog``'s result check does."""

    # max x0 + x1  s.t.  x0 + x1 <= 1.5,  x0 - x1 == 0,  0 <= x <= 1: x = (0.75, 0.75).
    PROGRAM = dict(a_ub=[[1.0, 1.0]], b_ub=[1.5], a_eq=[[1.0, -1.0]], b_eq=[0.0])

    @pytest.mark.parametrize(
        "field, index, shift, rejected",
        [
            ("col_value", 0, 0.3, True),  # above its upper bound
            ("col_value", 1, -0.9, True),  # below its lower bound
            ("col_value", 0, np.nan, True),
            ("col_value", 0, 1e-5, False),  # within the tolerance sqrt(1e-9) * 10
            ("row_value", 0, 1e-3, True),  # the <= row exceeds its right-hand side
            ("row_value", 0, -1e-3, False),  # ... or keeps slack
            ("row_value", 1, 1e-3, True),  # the == row misses its right-hand side
            ("row_value", 1, np.nan, True),
        ],
    )
    def test_reported_solution(self, monkeypatch, field, index, shift, rejected):
        binding = linprog_module._highs

        class Session:
            """A HiGHS session whose reported solution has ``field[index]`` shifted."""

            def __init__(self):
                self._highs = binding._Highs()

            def __getattr__(self, name):
                return getattr(self._highs, name)

            def getSolution(self):
                solution = self._highs.getSolution()
                reported = {name: list(getattr(solution, name)) for name in ("col_value", "row_value")}
                reported[field][index] += shift
                return SimpleNamespace(**reported)

        names = ("HighsModelStatus", "HighsStatus", "MatrixFormat", "ObjSense")
        fake = SimpleNamespace(_Highs=Session, **{name: getattr(binding, name) for name in names})
        monkeypatch.setattr(linprog_module, "_highs", fake)
        lp = LinearProgram(np.ones(2), **self.PROGRAM)
        if rejected:
            with pytest.raises(LPError, match="off its bounds or rows"):
                lp.solve()
        else:
            expected = [0.75 + shift * (field == "col_value" and i == index) for i in range(2)]
            np.testing.assert_array_equal(lp.solve().values, expected)


@pytest.mark.skipif(linprog_module._highs is None, reason="needs SciPy's HiGHS binding")
class TestPricing:
    """``linprog``'s column generation on one HiGHS session."""

    # min -x0 s.t. x0 <= 2 (row 0), x0 == 1 (row 1), 0 <= x0 <= 2: x0 is basic,
    # so row 1's dual is -1.  x1 prices in with cost -2.
    START = dict(
        a_ub=[[1.0]], b_ub=[2.0], a_eq=[[1.0]], b_eq=[1.0], upper_bounds=np.full(1, 2.0)
    )

    @staticmethod
    def _column_x1(num_rows, row=None):
        """x1 (cost -2, bounds [0, 1]) with a 1 in row 1, plus ``row`` over (x0, x1) if given."""
        entries = sparse.csc_matrix(([1.0], [1], [0, 1]), shape=(num_rows, 1))
        if row is None:
            return PricedColumns(c=np.array([-2.0]), bounds=np.array([[0.0, 1.0]]), entries=entries)
        coefficients, rhs = row
        return PricedColumns(
            c=np.array([-2.0]),
            bounds=np.array([[0.0, 1.0]]),
            entries=entries,
            A_ub=sparse.csr_matrix([coefficients]),
            b_ub=np.array([rhs]),
        )

    def test_rounds_see_every_row_and_the_result_every_column(self):
        seen = []

        def price(row_duals):
            seen.append(np.array(row_duals))
            if len(seen) == 1:  # x0 + x1 == 1 and x1 <= 0.75 (row 2)
                return self._column_x1(2, row=([0.0, 1.0], 0.75))
            return None

        # max x0 (+ 2 x1 once priced in); linprog minimizes its negation.
        result = LinearProgram(np.ones(1), **self.START).solve(price=price)
        assert [duals.shape for duals in seen] == [(2,), (3,)]
        assert seen[0][1] == pytest.approx(-1.0)  # the == row's dual, minimization sense
        np.testing.assert_allclose(result.values, [0.25, 0.75])
        assert result.objective == pytest.approx(1.75)

    @pytest.mark.parametrize(
        "row, status",
        [(None, "Unbounded"), (([-1.0, 0.0], -2.0), "Infeasible")],
        ids=["unbounded", "infeasible"],
    )
    def test_a_warm_round_raises_as_the_first(self, row, status):
        def price(row_duals):
            if len(row_duals) > 2:
                return None
            priced = self._column_x1(2, row)
            if row is None:  # no upper bound on x1, and no row holds it back
                return PricedColumns(
                    c=priced.c,
                    bounds=np.array([[0.0, np.inf]]),
                    entries=sparse.csc_matrix((2, 1)),
                )
            return priced  # -x0 <= -2, so x1 = 1 - x0 < 0

        with pytest.raises(LPError, match=f"LP solve failed: {status}"):
            LinearProgram(np.ones(1), **self.START).solve(price=price)

    def test_rejects_columns_that_do_not_fit_the_model(self):
        lp = LinearProgram(np.ones(1), **self.START)
        with pytest.raises(ValueError, match="priced columns"):
            lp.solve(price=lambda row_duals: self._column_x1(3))


@pytest.mark.parametrize("method", ["addCols", "addRows"])
def test_binding_refusing_a_pricing_call_falls_back(monkeypatch, method):
    """A binding whose ``addCols`` or ``addRows`` refuses the call pricing makes is not used."""
    import scipy.optimize._highspy as highspy

    binding = linprog_module._highs or pytest.skip("SciPy's HiGHS binding is not in use")

    def refuse(self, *args):
        raise TypeError(f"{method}(): incompatible function arguments")

    Session = type("Session", (binding._Highs,), {method: refuse})
    names = ("HighsModelStatus", "HighsStatus", "MatrixFormat", "ObjSense")
    fake = SimpleNamespace(_Highs=Session, **{name: getattr(binding, name) for name in names})
    monkeypatch.setattr(highspy, "_core", fake)
    assert linprog_module._bundled_highs() is None


def test_binding_without_pointer_form_pass_model_falls_back(monkeypatch):
    """A binding whose ``passModel`` refuses the pointer-form call is not used."""
    import scipy.optimize._highspy as highspy

    binding = linprog_module._highs or pytest.skip("SciPy's HiGHS binding is not in use")

    class Session(binding._Highs):
        def passModel(self, model):  # only the model-object overload
            return super().passModel(model)

    names = ("HighsModelStatus", "HighsStatus", "MatrixFormat", "ObjSense")
    fake = SimpleNamespace(_Highs=Session, **{name: getattr(binding, name) for name in names})
    monkeypatch.setattr(highspy, "_core", fake)
    assert linprog_module._bundled_highs() is None
    monkeypatch.setattr(highspy, "_core", binding)
    assert linprog_module._bundled_highs() is binding

class TestStackRows:
    def test_blocks_follow_each_other_in_order(self):
        first = (np.array([0, 1]), np.array([0, 2]), np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        second = (np.array([0, 0]), np.array([1, 2]), np.array([5.0, 6.0]), np.array([7.0]))
        matrix, rhs = stack_rows([first, second], 3)
        assert sparse.isspmatrix_csr(matrix)
        np.testing.assert_array_equal(
            matrix.toarray(), [[1.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 5.0, 6.0]]
        )
        np.testing.assert_array_equal(rhs, [3.0, 4.0, 7.0])
        matrix, rhs = stack_rows([second, first], 3)
        np.testing.assert_array_equal(
            matrix.toarray(), [[0.0, 5.0, 6.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]
        )
        np.testing.assert_array_equal(rhs, [7.0, 3.0, 4.0])

    def test_row_offsets_count_rows_without_entries(self):
        empty_rows = (np.array([1]), np.array([0]), np.array([1.0]), np.zeros(3))
        last = (np.array([0]), np.array([1]), np.array([2.0]), np.array([5.0]))
        matrix, rhs = stack_rows([empty_rows, last], 2)
        assert matrix.shape == (4, 2)
        np.testing.assert_array_equal(
            matrix.toarray(), [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]
        )
        np.testing.assert_array_equal(rhs, [0.0, 0.0, 0.0, 5.0])

    def test_no_blocks(self):
        assert stack_rows([], 4) == (None, None)


class TestMixedIntegerProgram:
    def build_knapsack(self):
        """max 5a + 4b + 3c  s.t.  2a + 3b + c <= 4, binary (optimum: a + c = 8)."""
        return MixedIntegerProgram(
            np.array([5.0, 4.0, 3.0]),
            matrix=[[2.0, 3.0, 1.0]],
            lhs=[-np.inf],
            rhs=[4.0],
            integrality=np.ones(3),
        )

    def test_knapsack_optimum(self):
        result = self.build_knapsack().solve()
        assert result.optimal
        assert result.objective == pytest.approx(8.0)  # a and c

    def test_integrality_of_solution(self):
        result = self.build_knapsack().solve()
        np.testing.assert_allclose(result.values, np.round(result.values), atol=1e-6)

    def test_equality_constraint(self):
        program = MixedIntegerProgram(
            np.array([1.0, 3.0]), matrix=[[1.0, 1.0]], lhs=[1.0], rhs=[1.0],
            integrality=np.ones(2),
        )
        result = program.solve()
        assert result.objective == pytest.approx(3.0)

    def test_time_limit_returns_incumbent_or_raises(self):
        # A tiny model always solves within any limit; just check the call path.
        result = self.build_knapsack().solve(time_limit=10.0)
        assert result.objective == pytest.approx(8.0)

    def test_defaults_and_counts(self):
        program = MixedIntegerProgram(np.ones(3))
        assert program.matrix is None and program.num_constraints == 0
        np.testing.assert_array_equal(program.integrality, [0, 0, 0])
        assert program.integrality.dtype == np.int64
        assert self.build_knapsack().num_constraints == 1

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"matrix": [[1.0, 1.0]], "lhs": [0.0], "rhs": [1.0]}, "columns"),
            ({"matrix": [[1.0, 1.0, 1.0]], "rhs": [1.0]}, "row bounds"),
            ({"matrix": [[1.0, 1.0, 1.0]], "lhs": [0.0, 0.0], "rhs": [1.0]},
             "row bounds"),
            ({"lhs": [0.0], "rhs": [1.0]}, "no matrix"),
            ({"integrality": np.ones(2)}, "integrality"),
            ({"lower_bounds": np.zeros(4)}, "lower_bounds"),
        ],
        ids=["columns", "lhs-missing", "lhs-length", "matrix-missing", "integrality",
             "lower-bounds"],
    )
    def test_rejects_inconsistent_shapes(self, fields, message):
        with pytest.raises(ValueError, match=message):
            MixedIntegerProgram(np.ones(3), **fields)

    def test_rejects_zero_variables(self):
        with pytest.raises(ValueError):
            MixedIntegerProgram(np.zeros(0))


class TestBranchAndBound:
    def build_program(self, seed: int, num_vars: int = 6, num_cons: int = 4):
        rng = np.random.default_rng(seed)
        objective = rng.uniform(0.5, 2.0, size=num_vars)
        matrix = np.empty((num_cons, num_vars))
        rhs = np.empty(num_cons)
        for row in range(num_cons):
            matrix[row] = rng.uniform(0.1, 1.0, size=num_vars)
            rhs[row] = rng.uniform(1.0, 2.5)
        return MixedIntegerProgram(
            objective,
            matrix=matrix,
            lhs=np.full(num_cons, -np.inf),
            rhs=rhs,
            integrality=np.ones(num_vars),
        )

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
        program = MixedIntegerProgram(
            np.array([1.0, 1.0]), matrix=[[1.0, 1.0]], lhs=[-np.inf], rhs=[1.5]
        )
        result = BranchAndBoundSolver(program).solve()
        assert result.objective == pytest.approx(1.5)
