"""Sparse-first instance representations: CSR views, truncation, memory model.

Everything in :mod:`repro.core.problem` is dense — an ``(n, m)`` preference
matrix and an ``(E, m)`` social-utility matrix — which is the right call up
to a few thousand users but blows up quadratically-ish beyond that.  Real
users rate few items, so both matrices are naturally sparse once truncated
to each user's (or edge's) top items.  This module provides:

* **Round-trip converters** between the dense instance arrays and
  ``scipy.sparse`` CSR matrices (:func:`csr_from_dense` /
  :func:`dense_from_csr`), plus :class:`SparseInstanceView`, a read-only
  CSR-backed snapshot of one instance that
  :func:`repro.core.objective.evaluate_sparse` and friends consume.
* **Top-K truncation** (:func:`top_k_truncate`): keep each row's ``K``
  largest entries and zero the rest — the preference-sparsification the
  paper's datasets exhibit organically ("any user's top preferred items are
  already contained in the top-100 items", Section 6.2).
* **Candidate lists** (:func:`per_user_candidate_lists`,
  :func:`uniform_candidate_lists`): the CSR index structure the LP_SIMP and
  IP builders lay variables out over, so model size scales with ``nnz``
  instead of ``n * m``.
* **A memory model** (:func:`memory_report`, :func:`estimate_lp_bytes`):
  cheap byte estimates of the dense tensors, their sparse counterparts and
  the assembled LP — what the scalability benchmark and the sharding engine
  consult to decide when the monolithic dense path stops being viable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse as sp

from repro.core.problem import SVGICInstance, SVGICSTInstance

#: Bytes per stored nonzero of a float64 CSR matrix (value + int32 column
#: index); indptr is negligible for the shapes used here.
_CSR_BYTES_PER_NNZ = 8 + 4


# --------------------------------------------------------------------------- #
# Dense <-> CSR round trips
# --------------------------------------------------------------------------- #
def csr_from_dense(matrix: np.ndarray) -> sp.csr_matrix:
    """Dense ``(rows, cols)`` array to CSR, dropping explicit zeros."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    csr = sp.csr_matrix(matrix)
    csr.eliminate_zeros()
    return csr


def dense_from_csr(matrix: sp.spmatrix, shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """CSR (or any scipy sparse) matrix back to a dense float array."""
    dense = np.asarray(matrix.todense(), dtype=float)
    if shape is not None and dense.shape != tuple(shape):
        raise ValueError(f"expected shape {tuple(shape)}, got {dense.shape}")
    return dense


def top_k_truncate(matrix: np.ndarray, top_k: int) -> np.ndarray:
    """Keep each row's ``top_k`` largest entries, zero the rest (dense output).

    Ties at the cut-off are broken toward lower column indices, so the result
    is deterministic.  ``top_k >= row length`` returns a copy unchanged.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if top_k <= 0:
        raise ValueError(f"top_k must be positive, got {top_k}")
    rows, cols = matrix.shape
    if top_k >= cols:
        return matrix.copy()
    # Lexicographic rank: by value descending, ties by column ascending.
    order = np.lexsort((np.broadcast_to(np.arange(cols), matrix.shape), -matrix), axis=1)
    keep = order[:, :top_k]
    truncated = np.zeros_like(matrix)
    row_idx = np.broadcast_to(np.arange(rows)[:, None], keep.shape)
    truncated[row_idx, keep] = matrix[row_idx, keep]
    return truncated


def top_k_csr(matrix: np.ndarray, top_k: int) -> sp.csr_matrix:
    """CSR of :func:`top_k_truncate` — the top-K-truncated row structure."""
    return csr_from_dense(top_k_truncate(matrix, top_k))


# --------------------------------------------------------------------------- #
# CSR-backed instance view
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SparseInstanceView:
    """Read-only CSR snapshot of one instance's utility tables.

    ``preference`` is the ``(n, m)`` preference matrix (optionally top-K
    truncated) and ``social`` the ``(E, m)`` per-directed-edge social matrix,
    both CSR.  ``pair_social`` is the ``(P, m)`` combined undirected pair
    weight (``w^c_e``), also CSR.  The view shares the instance's ``edges``
    and ``pairs`` arrays; it never stores a dense ``(n, m)`` tensor.
    """

    num_users: int
    num_items: int
    num_slots: int
    social_weight: float
    preference: sp.csr_matrix
    social: sp.csr_matrix
    pair_social: sp.csr_matrix
    edges: np.ndarray
    pairs: np.ndarray
    preference_top_k: Optional[int] = None

    @staticmethod
    def from_instance(
        instance: SVGICInstance, *, preference_top_k: Optional[int] = None
    ) -> "SparseInstanceView":
        """CSR view of ``instance``; ``preference_top_k`` truncates per-user rows."""
        if preference_top_k is None:
            pref = csr_from_dense(instance.preference)
        else:
            pref = top_k_csr(instance.preference, preference_top_k)
        return SparseInstanceView(
            num_users=instance.num_users,
            num_items=instance.num_items,
            num_slots=instance.num_slots,
            social_weight=instance.social_weight,
            preference=pref,
            social=csr_from_dense(instance.social),
            pair_social=csr_from_dense(instance.pair_social),
            edges=instance.edges,
            pairs=instance.pairs,
            preference_top_k=preference_top_k,
        )

    def to_instance(self, *, name: str = "svgic-from-sparse") -> SVGICInstance:
        """Round-trip back to a dense :class:`SVGICInstance` (validating)."""
        return SVGICInstance(
            num_users=self.num_users,
            num_items=self.num_items,
            num_slots=self.num_slots,
            social_weight=self.social_weight,
            preference=dense_from_csr(self.preference, (self.num_users, self.num_items)),
            edges=self.edges,
            social=dense_from_csr(self.social, (self.edges.shape[0], self.num_items)),
            name=name,
        )

    @property
    def nnz(self) -> int:
        """Total stored nonzeros across preference and social tables."""
        return int(self.preference.nnz + self.social.nnz)

    def nbytes(self) -> int:
        """Approximate resident bytes of the CSR tables."""
        return int(
            (self.preference.nnz + self.social.nnz + self.pair_social.nnz)
            * _CSR_BYTES_PER_NNZ
        )


def pair_social_csr(instance: SVGICInstance) -> sp.csr_matrix:
    """``(P, m)`` combined pair weights ``w^c_e`` as CSR, built edge-by-nonzero.

    Unlike the dense :attr:`SVGICInstance.pair_social` cached property, this
    never materializes a ``(P, m)`` array: the directed ``(E, m)`` social
    nonzeros are scattered straight into COO with their pair row ids and the
    CSR conversion sums the two directions.  The sparse
    :class:`repro.core.objective.DeltaEvaluator` path consumes this.
    """
    num_pairs = instance.pairs.shape[0]
    if num_pairs == 0 or instance.num_edges == 0:
        return sp.csr_matrix((num_pairs, instance.num_items), dtype=float)
    e_idx, c_idx = np.nonzero(instance.social)
    csr = sp.coo_matrix(
        (instance.social[e_idx, c_idx], (instance.edge_pair_ids[e_idx], c_idx)),
        shape=(num_pairs, instance.num_items),
    ).tocsr()
    csr.sum_duplicates()
    return csr


def adjacency_csr(instance: SVGICInstance) -> sp.csr_matrix:
    """``(n, n)`` symmetric CSR adjacency of the friendship graph.

    Entry ``(u, v)`` is the total combined pair weight
    ``sum_c w^c_{(u,v)}`` — the quantity community partitioning wants to
    keep *inside* shards, since it is exactly the social utility at stake on
    that pair.
    """
    n = instance.num_users
    pairs = instance.pairs
    if pairs.shape[0] == 0:
        return sp.csr_matrix((n, n), dtype=float)
    weights = np.asarray(pair_social_csr(instance).sum(axis=1)).ravel()
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    vals = np.concatenate([weights, weights])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


# --------------------------------------------------------------------------- #
# Candidate lists (the model-assembly index structure)
# --------------------------------------------------------------------------- #
def per_user_candidate_lists(
    instance: SVGICInstance,
    *,
    per_user_items: Optional[int] = None,
    scores: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR-style ``(indptr, indices)`` of each user's candidate item list.

    With ``per_user_items=None`` every user's list is the full item set (the
    unpruned mode, identical to :func:`uniform_candidate_lists` over all
    items).  Otherwise each user keeps her
    ``max(per_user_items, k)`` top items ranked by ``scores`` (default: the
    shared :func:`repro.core.lp.candidate_scores`), ties broken toward lower
    item ids; lists are sorted ascending.  Lists always have at least ``k``
    entries so the per-user assignment constraint stays feasible.
    """
    n, m, k = instance.num_users, instance.num_items, instance.num_slots
    if per_user_items is None or per_user_items >= m:
        indptr = np.arange(0, (n + 1) * m, m, dtype=np.int64)
        indices = np.tile(np.arange(m, dtype=np.int64), n)
        return indptr, indices
    per_user = max(int(per_user_items), k)
    if scores is None:
        from repro.core.lp import candidate_scores  # local import: lp imports this module

        scores = candidate_scores(instance)
    order = np.lexsort((np.broadcast_to(np.arange(m), scores.shape), -scores), axis=1)
    keep = np.sort(order[:, :per_user], axis=1)  # (n, per_user), ascending ids
    indptr = np.arange(0, (n + 1) * per_user, per_user, dtype=np.int64)
    return indptr, keep.ravel().astype(np.int64)


def uniform_candidate_lists(num_users: int, items: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR-style ``(indptr, indices)`` giving every user the same sorted ``items`` list.

    The list layout of one global candidate set: the ``x`` ordinal of user
    ``u``'s ``i``-th candidate is ``u * len(items) + i``.
    """
    size = int(items.shape[0])
    indptr = np.arange(0, (num_users + 1) * size, size, dtype=np.int64)
    return indptr, np.tile(np.asarray(items, dtype=np.int64), num_users)


# --------------------------------------------------------------------------- #
# Memory model
# --------------------------------------------------------------------------- #
def memory_report(
    instance: SVGICInstance, *, preference_top_k: Optional[int] = None
) -> Dict[str, float]:
    """Byte estimates of the dense tensors vs. their sparse counterparts.

    Cheap — computed from shapes and nonzero counts without materializing
    anything dense.  ``dense_bytes`` covers the ``(n, m)`` preference,
    ``(E, m)`` social and ``(P, m)`` pair-social tensors; ``sparse_bytes``
    is the CSR equivalent at the instance's actual (or top-K truncated)
    density.  The rule of thumb the docs state: prefer the dense engine
    while ``dense_bytes`` is small (tens of MB — it is faster per FLOP),
    switch to the sparse/sharded path when it is not.
    """
    n, m = instance.num_users, instance.num_items
    num_edges = instance.num_edges
    num_pairs = instance.pairs.shape[0]
    dense_bytes = float(8 * m * (n + num_edges + num_pairs))
    pref_nnz = int(np.count_nonzero(instance.preference))
    if preference_top_k is not None:
        pref_nnz = min(pref_nnz, n * int(preference_top_k))
    social_nnz = int(np.count_nonzero(instance.social))
    pair_nnz = int(np.count_nonzero(instance.pair_social))
    sparse_bytes = float(_CSR_BYTES_PER_NNZ * (pref_nnz + social_nnz + pair_nnz))
    return {
        "num_users": float(n),
        "num_items": float(m),
        "num_edges": float(num_edges),
        "num_pairs": float(num_pairs),
        "dense_bytes": dense_bytes,
        "sparse_bytes": sparse_bytes,
        "preference_nnz": float(pref_nnz),
        "social_nnz": float(social_nnz),
        "compression": dense_bytes / sparse_bytes if sparse_bytes else float("inf"),
    }


def estimate_lp_bytes(
    instance: SVGICInstance,
    *,
    formulation: str = "simplified",
    num_candidate_items: Optional[int] = None,
    per_user_items: Optional[int] = None,
) -> float:
    """Rough resident-byte estimate of the assembled LP relaxation.

    Counts variables and constraint-matrix nonzeros of the given formulation
    and charges ~28 bytes per nonzero (triplets + CSR handed to HiGHS, which
    keeps its own copy) plus 8 per variable column.  Deliberately an
    *estimate* — it exists so benchmarks and the sharding engine can reason
    about the monolithic model's footprint without paying for the assembly.
    """
    n, m, k = instance.num_users, instance.num_items, instance.num_slots
    num_pairs = int(instance.pairs.shape[0])
    mc = m if num_candidate_items is None else min(m, int(num_candidate_items))
    pair_nnz = int(np.count_nonzero(instance.pair_social)) if num_pairs else 0
    if formulation == "full":
        num_vars = (n + num_pairs) * mc * k
        nnz = 2 * n * mc * k + 4 * pair_nnz * k
        if isinstance(instance, SVGICSTInstance):
            nnz += n * mc * k
    elif formulation in {"simplified", "sparse"}:
        # LP_SIMP over CSR lists: "simplified" gives every user the mc candidates.
        if formulation == "simplified" or per_user_items is None:
            per_user = mc
        else:
            per_user = min(max(int(per_user_items), k), m)
        x_vars = n * per_user
        # A pair's y variables need the item in both endpoint lists and a
        # positive weight; bound by the smaller of the two counts.
        y_vars = min(pair_nnz, num_pairs * per_user)
        num_vars = x_vars + y_vars
        nnz = x_vars + 4 * y_vars
        if isinstance(instance, SVGICSTInstance):
            nnz += x_vars
    else:
        raise ValueError(
            f"unknown formulation {formulation!r}; use 'simplified', 'full' or 'sparse'"
        )
    return float(28 * nnz + 8 * num_vars)


__all__ = [
    "SparseInstanceView",
    "adjacency_csr",
    "csr_from_dense",
    "dense_from_csr",
    "estimate_lp_bytes",
    "memory_report",
    "pair_social_csr",
    "per_user_candidate_lists",
    "top_k_csr",
    "top_k_truncate",
    "uniform_candidate_lists",
]
