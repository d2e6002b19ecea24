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
the calls :func:`linprog` makes, the call goes to ``scipy.optimize.linprog``.

Column generation runs inside the same call.  Given a ``price`` callback,
:func:`linprog` hands it the row duals after every optimal ``run()``; the
callback returns the columns (and the ``<=`` rows that come with them) to
append, which go into the same HiGHS session with ``addCols``/``addRows``
before the next ``run()`` starts warm from the last basis, or ``None`` to
stop.  The session lives for that one call.  ``scipy.optimize.linprog`` is
cold and returns no duals, so the fallback never prices: a caller checks
that ``_highs`` is set, at call time, and solves its whole model otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize, sparse

from repro.solvers.assembly import checked_objective, checked_rows, checked_vector


def _bundled_highs():
    """SciPy's bundled HiGHS binding; ``None`` if it is missing or refuses :func:`linprog`'s calls."""
    try:
        from scipy.optimize._highspy import _core

        # The calls linprog makes, on a probe: the pointer-form passModel (one
        # column, no rows), then one pricing round -- addCols (one column),
        # addRows (x0 + x1 <= 1), run() and the row duals.  A binding without
        # those overloads raises TypeError here, not mid-solve.
        probe = _core._Highs()
        probe.setOptionValue("output_flag", False)
        probe.passModel(
            1, 0, 0, int(_core.MatrixFormat.kRowwise), int(_core.ObjSense.kMinimize), 0.0,
            -np.ones(1), np.zeros(1), np.ones(1), np.zeros(0), np.zeros(0),
            np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0),
            np.zeros(1, dtype=np.int32),
        )
        probe.addCols(
            1, -np.ones(1), np.zeros(1), np.ones(1),
            0, np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0),
        )
        probe.addRows(
            1, np.full(1, -np.inf), np.ones(1),
            2, np.zeros(1, dtype=np.int32), np.arange(2, dtype=np.int32), np.ones(2),
        )
        ran = probe.run()
        status = probe.getModelStatus()
        row_dual = np.array(probe.getSolution().row_dual, dtype=float)
    except (ImportError, AttributeError, TypeError):
        return None
    # min -x0 - x1 s.t. x0 + x1 <= 1: the row's dual is -1 in HiGHS's sign convention.
    if (
        ran == _core.HighsStatus.kError
        or status != _core.HighsModelStatus.kOptimal
        or row_dual.shape != (1,)
        or abs(row_dual[0] + 1.0) > 1e-9
    ):
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


@dataclass(frozen=True)
class PricedColumns:
    """Columns one pricing round appends to a model, with the ``<=`` rows that come with them.

    In :func:`linprog`'s minimization sense: ``c`` and ``bounds`` are the
    new columns' costs and ``(k, 2)`` bounds, and ``entries`` (CSC, shape
    ``(rows so far, k)``) their coefficients in the rows the model already
    has.  ``A_ub``/``b_ub`` are the rows appended after them, over every
    column, the new ones last; ``None`` when the round adds no row.
    """

    c: np.ndarray
    bounds: np.ndarray
    entries: sparse.csc_matrix
    A_ub: Optional[sparse.csr_matrix] = None
    b_ub: Optional[np.ndarray] = None


#: :func:`linprog`'s pricing callback: row duals in, columns to append (or ``None``) out.
Pricer = Callable[[np.ndarray], Optional[PricedColumns]]


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

    def solve(self, price: Optional[Pricer] = None) -> LPResult:
        """Solve the LP with HiGHS (:func:`linprog`) and return an :class:`LPResult`.

        ``price`` is :func:`linprog`'s column-generation callback, in its
        minimization sense; the result then covers the grown model, with
        the appended columns after this program's, and ``solve_seconds``
        every round.  Raises :class:`LPError` if the solver does not reach
        optimality in any round, or its solution fails SciPy's result check.
        """
        start = time.perf_counter()
        values, minimum = linprog(
            c=-self.objective,  # linprog minimizes
            A_ub=self.a_ub,
            b_ub=self.b_ub,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=np.column_stack([self.lower_bounds, self.upper_bounds]),
            price=price,
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
    price: Optional[Pricer] = None,
) -> Tuple[np.ndarray, float]:
    """Minimize ``c @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x = b_eq`` and ``bounds``; ``(x, c @ x)``.

    The first six keywords are ``scipy.optimize.linprog``'s: the CSR blocks
    and right-hand sides of a :class:`LinearProgram` (``None`` for a kind of
    row it lacks) and its ``(n, 2)`` bounds.  The model goes to HiGHS
    through SciPy's bundled binding, or, without it, unchanged to
    ``scipy.optimize.linprog(method="highs")``.

    ``price`` grows the model by column generation, on the binding only
    (``_highs`` set; the fallback raises ``ValueError``).  After
    every optimal ``run()`` it gets HiGHS's row duals, in this function's
    minimization sense and in row order: ``A_ub``'s rows, ``A_eq``'s, then
    the rows earlier rounds appended.  It returns the
    :class:`PricedColumns` to append, which the same session re-solves
    warm, or ``None`` to stop; ``x`` then covers every column, the appended
    ones after ``c``'s in the order they came.

    Raises :class:`LPError` when HiGHS rejects the model, ends any round
    with a status but optimal, or returns a final solution with a NaN or
    off its bounds or rows by more than SciPy's tolerance.
    """
    if _highs is None:
        if price is not None:
            raise ValueError("scipy.optimize.linprog cannot price columns")
        result = optimize.linprog(
            c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs"
        )
        if not result.success:
            raise LPError(f"LP solve failed: {result.message}")
        return np.asarray(result.x, dtype=float), float(result.fun)

    # One passModel of the row-wise model, one run per pricing round.
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
    status = _run(highs)
    while price is not None:
        priced = price(np.array(highs.getSolution().row_dual))
        if priced is None:
            break
        _append(highs, priced, len(lower), len(row_lower))
        lower = np.concatenate([lower, priced.bounds[:, 0]])
        upper = np.concatenate([upper, priced.bounds[:, 1]])
        if priced.A_ub is not None:
            row_lower = np.concatenate([row_lower, np.full(priced.A_ub.shape[0], -np.inf)])
            row_upper = np.concatenate([row_upper, priced.b_ub])
        status = _run(highs)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    minimum = highs.getInfo().objective_function_value
    # SciPy's _check_result: a row's slack to each of its bounds (an == row's
    # two sides are its residual and its negation; a <= row's lower is -inf).
    row_value = np.array(solution.row_value)
    tol = _FEASIBILITY_TOLERANCE
    if (
        np.isnan(x).any()
        or np.isnan(minimum)
        or np.isnan(row_value).any()
        or (x < lower - tol).any()
        or (x > upper + tol).any()
        or (row_upper - row_value < -tol).any()
        or (row_value - row_lower < -tol).any()
    ):
        raise LPError(
            f"LP solve failed: HiGHS reports {status}, but the solution is off its "
            f"bounds or rows by more than {tol:.2E}"
        )
    return x, float(minimum)


def _run(highs) -> str:
    """One ``run()`` of ``highs``; its model status, or :class:`LPError` unless optimal."""
    ran = highs.run()
    model_status = highs.getModelStatus()
    status = highs.modelStatusToString(model_status)
    if ran == _highs.HighsStatus.kError or model_status != _highs.HighsModelStatus.kOptimal:
        raise LPError(f"LP solve failed: {status}")
    return status


def _append(highs, priced: PricedColumns, num_columns: int, num_rows: int) -> None:
    """Add ``priced``'s columns, then its rows, to the ``num_columns`` x ``num_rows`` model in ``highs``."""
    added, entries, rows = len(priced.c), priced.entries, priced.A_ub
    if (
        priced.bounds.shape != (added, 2)
        or entries.shape != (num_rows, added)
        or (rows is not None and rows.shape != (len(priced.b_ub), num_columns + added))
    ):
        raise ValueError(
            f"{added} priced columns on a {num_rows} x {num_columns} model need (k, 2) bounds, "
            f"({num_rows}, k) entries and rows over {num_columns} + k columns with one bound "
            f"each; got {priced.bounds.shape}, {entries.shape} and "
            f"{None if rows is None else (rows.shape, len(priced.b_ub))}"
        )
    refused = highs.addCols(
        added, priced.c, priced.bounds[:, 0], priced.bounds[:, 1],
        entries.nnz, entries.indptr[:-1], entries.indices, entries.data,
    ) == _highs.HighsStatus.kError
    if not refused and rows is not None:
        refused = highs.addRows(
            rows.shape[0], np.full(rows.shape[0], -np.inf), priced.b_ub,
            rows.nnz, rows.indptr[:-1], rows.indices, rows.data,
        ) == _highs.HighsStatus.kError
    if refused:
        model_error = highs.modelStatusToString(_highs.HighsModelStatus.kModelError)
        raise LPError(f"LP solve failed: HiGHS refused the priced columns ({model_error})")


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
    "PricedColumns",
]
