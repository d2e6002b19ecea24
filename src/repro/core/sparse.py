"""Sparse-first helpers: top-K truncation, LP candidate lists, an LP size model.

Every instance stores its utilities as dense arrays — an ``(n, m)``
preference matrix and an ``(E, m)`` social matrix — and every evaluator in
:mod:`repro.core.objective` reads them directly.  "Sparse" here means the
two places where sparsity changes what gets built:

* **Top-K truncation** (:func:`top_k_truncate`): keep each row's ``K``
  largest entries and zero the rest — the preference-sparsification the
  paper's datasets exhibit organically ("any user's top preferred items are
  already contained in the top-100 items", Section 6.2).  The dataset
  generators' ``preference_top_k`` / ``social_top_k`` knobs use it.
* **Candidate lists** (:func:`per_user_candidate_lists`,
  :func:`cap_feasible_lists`, :func:`uniform_candidate_lists`): the
  CSR-style index structure the LP_SIMP and IP builders lay variables out
  over, so model size scales with the list lengths instead of ``n * m``.
* **An LP size model** (:func:`estimate_lp_bytes`): a cheap byte estimate
  of the assembled LP — what the scalability benchmark reports beside the
  monolithic model it would otherwise have to build.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.problem import SVGICInstance, SVGICSTInstance


# --------------------------------------------------------------------------- #
# Top-K truncation
# --------------------------------------------------------------------------- #
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
    entries so the per-user assignment constraint stays feasible; under an
    SVGIC-ST cap they may not be, which :func:`cap_feasible_lists` repairs.
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


def cap_feasible_lists(
    instance: SVGICSTInstance, indptr: np.ndarray, indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate lists under which LP_SIMP's cap rows ``sum_u x̄[u, c] <= M·k`` are feasible.

    The lists are feasible iff a maximum flow reaches ``n·k`` in the network
    source → user (capacity ``k``) → listed item (capacity 1) → sink
    (capacity ``M·k``); lists that pass are returned unchanged.  Otherwise
    every list gains the shared set ``F`` of the top ``max(k, ceil(n / M))``
    items by global candidate score (the floor of
    :func:`repro.core.lp.candidate_items`), on which ``x̄ = k / |F|`` is
    feasible.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    from repro.core.lp import candidate_scores  # local import: lp imports this module

    n, m, k = instance.num_users, instance.num_items, instance.num_slots
    cap = instance.max_subgroup_size
    users = np.repeat(np.arange(n), np.diff(indptr))
    sink = n + m + 1
    tails = np.concatenate([np.zeros(n, dtype=np.int64), 1 + users, 1 + n + np.arange(m)])
    heads = np.concatenate([1 + np.arange(n), 1 + n + indices, np.full(m, sink)])
    capacity = np.concatenate(
        [np.full(n, k), np.ones(indices.size, dtype=np.int64), np.full(m, cap * k)]
    ).astype(np.int32)
    network = csr_matrix((capacity, (tails, heads)), shape=(sink + 1, sink + 1))
    if maximum_flow(network, 0, sink).flow_value == n * k:
        return indptr, indices

    floor = min(m, max(k, -(-n // cap)))
    shared = np.argsort(-candidate_scores(instance).sum(axis=0), kind="stable")[:floor]
    member = np.zeros((n, m), dtype=bool)
    member[users, indices] = True
    member[:, shared] = True
    padded_indptr = np.concatenate([[0], np.cumsum(member.sum(axis=1))]).astype(np.int64)
    return padded_indptr, np.nonzero(member)[1].astype(np.int64)


def uniform_candidate_lists(num_users: int, items: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR-style ``(indptr, indices)`` giving every user the same sorted ``items`` list.

    The list layout of one global candidate set: the ``x`` ordinal of user
    ``u``'s ``i``-th candidate is ``u * len(items) + i``.
    """
    size = int(items.shape[0])
    indptr = np.arange(0, (num_users + 1) * size, size, dtype=np.int64)
    return indptr, np.tile(np.asarray(items, dtype=np.int64), num_users)


# --------------------------------------------------------------------------- #
# LP size model
# --------------------------------------------------------------------------- #
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
    *estimate* — it exists so benchmarks can reason about the monolithic
    model's footprint without paying for the assembly.
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
    "cap_feasible_lists",
    "estimate_lp_bytes",
    "per_user_candidate_lists",
    "top_k_truncate",
    "uniform_candidate_lists",
]
