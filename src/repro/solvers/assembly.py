"""Constraint-row layout and shape checks shared by the LP and MILP records.

The vectorized builders in :mod:`repro.core.lp` / :mod:`repro.core.ip`
compute each family of constraint rows as one NumPy triplet block;
:func:`stack_rows` lays the blocks out one after another as the finished
CSR matrix a :class:`~repro.solvers.linprog.LinearProgram` or
:class:`~repro.solvers.milp.MixedIntegerProgram` holds.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import sparse


def csr_row_ids(indptr: np.ndarray) -> np.ndarray:
    """Row id of every stored entry of a CSR structure, from its ``indptr``.

    The batch constraint builders lay variables out over CSR index structures
    (per-user candidate lists, pair-item nonzeros); this expands the
    compressed row pointer into the per-entry row array those triplet batches
    need: ``csr_row_ids([0, 2, 5]) == [0, 0, 1, 1, 1]``.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr.ndim != 1 or indptr.size == 0:
        raise ValueError("indptr must be a non-empty 1-D array")
    counts = np.diff(indptr)
    if counts.size and counts.min() < 0:
        raise ValueError("indptr must be non-decreasing")
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def stack_rows(
    blocks: Sequence[Tuple[np.ndarray, ...]], num_columns: int
) -> Tuple[Optional[sparse.csr_matrix], Optional[np.ndarray]]:
    """Stack row blocks in order into one CSR matrix and its right-hand sides.

    Each block is ``(rows, cols, vals, rhs)`` triplets with block-local row
    ids ``0 <= rows < len(rhs)``; block ``i``'s rows follow the rows of the
    blocks before it.  Returns ``(A, rhs)`` with ``A`` of shape
    ``(total rows, num_columns)``, or ``(None, None)`` when there are no
    blocks.
    """
    if not blocks:
        return None, None
    offsets = np.cumsum([0] + [len(block[3]) for block in blocks])
    rows = np.concatenate(
        [np.asarray(block[0], dtype=np.int64) + offset for block, offset in zip(blocks, offsets)]
    )
    cols = np.concatenate([np.asarray(block[1], dtype=np.int64) for block in blocks])
    vals = np.concatenate([np.asarray(block[2], dtype=float) for block in blocks])
    rhs = np.concatenate([np.asarray(block[3], dtype=float) for block in blocks])
    matrix = sparse.coo_matrix((vals, (rows, cols)), shape=(int(offsets[-1]), num_columns))
    return matrix.tocsr(), rhs


def checked_objective(objective: np.ndarray) -> np.ndarray:
    """``objective`` as a non-empty 1-D float vector (one entry per variable)."""
    objective = np.asarray(objective, dtype=float)
    if objective.ndim != 1 or objective.size == 0:
        raise ValueError(f"objective must be a non-empty vector, got shape {objective.shape}")
    return objective


def checked_vector(
    name: str, vector: Optional[np.ndarray], size: int, default: Optional[float] = None
) -> np.ndarray:
    """``vector`` as floats of shape ``(size,)``; ``None`` is ``default`` everywhere, if given."""
    if vector is None and default is not None:
        return np.full(size, float(default))
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {vector.shape}")
    return vector


def checked_rows(
    name: str, matrix: Optional[sparse.spmatrix], num_variables: int, *vectors: np.ndarray
) -> tuple:
    """One constraint block as ``(CSR matrix, *float vectors)``, shapes checked.

    The matrix and its per-row vectors are all ``None`` (a program without
    rows of this kind) or all given: the matrix with ``num_variables``
    columns, every vector with one entry per row.
    """
    if matrix is None:
        if any(vector is not None for vector in vectors):
            raise ValueError(f"{name} has right-hand sides but no matrix")
        return (None,) * (1 + len(vectors))
    matrix = sparse.csr_matrix(matrix)
    if not matrix.has_canonical_format:  # HiGHS rejects a row that repeats a column
        matrix = matrix.copy()
        matrix.sum_duplicates()
    if matrix.shape[1] != num_variables:
        raise ValueError(f"{name} has {matrix.shape[1]} columns for {num_variables} variables")
    return (matrix, *(checked_vector(f"{name}'s row bounds", v, matrix.shape[0]) for v in vectors))


__all__ = [
    "checked_objective",
    "checked_rows",
    "checked_vector",
    "csr_row_ids",
    "stack_rows",
]
