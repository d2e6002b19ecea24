"""Sparse linear programs, solved by one direct call into HiGHS.

All linear programs in the library are *maximization* problems over variables
bounded in ``[lb, ub]`` with sparse "less-or-equal" and "equal" constraint
blocks.  A :class:`LinearProgram` is the record of one finished model: the
model builders in :mod:`repro.core.lp` compute its rows as NumPy triplet
blocks and lay them out with :func:`repro.solvers.assembly.stack_rows`, and
:meth:`LinearProgram.solve` hands the CSR blocks to :func:`linprog`.

:func:`linprog` passes the model as it is to the HiGHS binding SciPy bundles
(``scipy.optimize._highspy._core``): one row-wise matrix, row bounds
``[-inf, b_ub]`` and ``[b_eq, b_eq]``, and the options
``scipy.optimize.linprog(method="highs")`` sets, so HiGHS gets the model
SciPy would give it, without SciPy's input conversion or its per-column
basis loop.  The binding is private; where it is missing, or does not take
the call :func:`linprog` makes, the call goes to ``scipy.optimize.linprog``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import optimize, sparse

from repro.solvers.assembly import checked_objective, checked_rows, checked_vector


def _bundled_highs():
    """SciPy's bundled HiGHS binding; ``None`` if it is missing or refuses :func:`linprog`'s call."""
    try:
        from scipy.optimize._highspy import _core

        # The pointer-form passModel linprog makes, on one column and no rows;
        # a binding without that overload raises TypeError here, not mid-solve.
        probe = _core._Highs()
        probe.setOptionValue("output_flag", False)
        probe.passModel(
            1, 0, 0, int(_core.MatrixFormat.kRowwise), int(_core.ObjSense.kMinimize), 0.0,
            np.zeros(1), np.zeros(1), np.ones(1), np.zeros(0), np.zeros(0),
            np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0),
            np.zeros(1, dtype=np.int32),
        )
    except (ImportError, AttributeError, TypeError):
        return None
    return _core


#: The HiGHS binding :func:`linprog` calls; ``None`` sends every solve to SciPy's ``linprog``.
_highs = _bundled_highs()

#: ``scipy.optimize.linprog(method="highs")``'s HiGHS options: presolve on,
#: dual simplex (``simplex_strategy`` 1), no output.
_HIGHS_OPTIONS = (
    ("presolve", "on"),
    ("simplex_strategy", 1),
    ("output_flag", False),
    ("log_to_console", False),
)

#: SciPy's feasibility tolerance on a returned solution, ``sqrt(1e-9) * 10``.
_FEASIBILITY_TOLERANCE = float(np.sqrt(1e-9) * 10)


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
        # The checks scipy.optimize.linprog makes on its input; a bound may be infinite.
        for name, values in (
            ("objective", self.objective),
            ("a_ub", None if self.a_ub is None else self.a_ub.data),
            ("b_ub", self.b_ub),
            ("a_eq", None if self.a_eq is None else self.a_eq.data),
            ("b_eq", self.b_eq),
        ):
            if values is not None and not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if np.isnan(self.lower_bounds).any() or np.isnan(self.upper_bounds).any():
            raise ValueError("bounds must not be NaN")

    @property
    def num_variables(self) -> int:
        return int(self.objective.shape[0])

    def solve(self) -> LPResult:
        """Solve the LP with HiGHS (:func:`linprog`) and return an :class:`LPResult`.

        Raises :class:`LPError` if the solver does not reach optimality or
        its solution fails SciPy's result check.
        """
        start = time.perf_counter()
        values, minimum = linprog(
            c=-self.objective,  # linprog minimizes
            A_ub=self.a_ub,
            b_ub=self.b_ub,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=np.column_stack([self.lower_bounds, self.upper_bounds]),
        )
        return LPResult(
            values=values, objective=-minimum, solve_seconds=time.perf_counter() - start
        )


def linprog(
    *,
    c: np.ndarray,
    A_ub: Optional[sparse.csr_matrix],
    b_ub: Optional[np.ndarray],
    A_eq: Optional[sparse.csr_matrix],
    b_eq: Optional[np.ndarray],
    bounds: np.ndarray,
) -> Tuple[np.ndarray, float]:
    """Minimize ``c @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x = b_eq`` and ``bounds``; ``(x, c @ x)``.

    The keywords are ``scipy.optimize.linprog``'s: the CSR blocks and
    right-hand sides of a :class:`LinearProgram` (``None`` for a kind of
    row it lacks) and its ``(n, 2)`` bounds.  The model goes to HiGHS
    through SciPy's bundled binding, or, without it, unchanged to
    ``scipy.optimize.linprog(method="highs")``.  Raises :class:`LPError`
    when HiGHS rejects the model, ends with any status but optimal, or
    returns a solution with a NaN or off its bounds or rows by more than
    SciPy's tolerance.
    """
    if _highs is None:
        result = optimize.linprog(
            c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs"
        )
        if not result.success:
            raise LPError(f"LP solve failed: {result.message}")
        return np.asarray(result.x, dtype=float), float(result.fun)

    # One passModel of the row-wise model, one run.
    matrices, row_lower, row_upper = [], [], []
    if A_ub is not None:
        matrices.append(A_ub)
        row_lower.append(np.full(A_ub.shape[0], -np.inf))
        row_upper.append(b_ub)
    if A_eq is not None:
        matrices.append(A_eq)
        row_lower.append(b_eq)
        row_upper.append(b_eq)
    start, index, value = _csr_arrays(matrices)
    row_lower = np.concatenate(row_lower or [np.zeros(0)])
    row_upper = np.concatenate(row_upper or [np.zeros(0)])
    lower, upper = bounds[:, 0], bounds[:, 1]

    highs = _highs._Highs()
    for option, setting in _HIGHS_OPTIONS:
        highs.setOptionValue(option, setting)
    passed = highs.passModel(
        len(c), len(row_lower), len(value),
        int(_highs.MatrixFormat.kRowwise), int(_highs.ObjSense.kMinimize), 0.0,
        c, lower, upper, row_lower, row_upper, start, index, value,
        np.zeros(len(c), dtype=np.int32),  # every column continuous
    )
    if passed == _highs.HighsStatus.kError:
        model_error = _highs.HighsModelStatus.kModelError
        raise LPError(f"LP solve failed: {highs.modelStatusToString(model_error)}")
    ran = highs.run()
    status = highs.getModelStatus()
    if ran == _highs.HighsStatus.kError or status != _highs.HighsModelStatus.kOptimal:
        raise LPError(f"LP solve failed: {highs.modelStatusToString(status)}")

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    minimum = highs.getInfo().objective_function_value
    # SciPy's _check_result: a <= row's slack is its rhs minus its value, an == row's the residual.
    slack = row_upper - np.array(solution.row_value)
    num_ub = 0 if A_ub is None else A_ub.shape[0]
    tol = _FEASIBILITY_TOLERANCE
    if (
        np.isnan(x).any()
        or np.isnan(minimum)
        or np.isnan(slack).any()
        or (x < lower - tol).any()
        or (x > upper + tol).any()
        or (slack[:num_ub] < -tol).any()
        or (np.abs(slack[num_ub:]) > tol).any()
    ):
        raise LPError(
            f"LP solve failed: HiGHS reports {highs.modelStatusToString(status)}, but the "
            f"solution is off its bounds or rows by more than {tol:.2E}"
        )
    return x, float(minimum)


def _csr_arrays(
    matrices: Sequence[sparse.csr_matrix],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices, data)`` of ``matrices`` stacked one below the other."""
    nnz = np.cumsum([0] + [a.nnz for a in matrices])
    indptr = np.concatenate([[0]] + [a.indptr[1:] + n for a, n in zip(matrices, nnz)])
    return (
        indptr,
        np.concatenate([a.indices for a in matrices] or [np.zeros(0, dtype=np.int32)]),
        np.concatenate([a.data for a in matrices] or [np.zeros(0)]),
    )


__all__ = [
    "LinearProgram",
    "LPResult",
    "LPError",
]
