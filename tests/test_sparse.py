"""Sparse-first helpers: truncation, the LP size model and the sparse LP/IP.

The per-user LP and the CSR-built IP are only trustworthy if they are
*pinned* to their dense counterparts: each must reproduce the dense
model's optimum to 1e-9 on the same instance.  These tests enforce that
contract on seeded synthetic instances alongside structural checks of
top-K truncation and the LP byte estimate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import sparse
from repro.core.assembly_reference import build_ip_reference
from repro.core.ip import solve_exact
from repro.core.lp import _build_sparse, solve_lp_relaxation
from repro.data import datasets
from repro.utils.rng import ensure_rng


# --------------------------------------------------------------------------- #
# Truncation and the LP size model
# --------------------------------------------------------------------------- #
def test_top_k_truncate_keeps_largest_entries():
    rng = ensure_rng(0)
    matrix = rng.random((8, 12))
    truncated = sparse.top_k_truncate(matrix, 4)
    assert (np.count_nonzero(truncated, axis=1) <= 4).all()
    for row in range(8):
        kept = np.nonzero(truncated[row])[0]
        dropped = np.setdiff1d(np.arange(12), kept)
        if kept.size and dropped.size:
            assert matrix[row, kept].min() >= matrix[row, dropped].max() - 1e-12


def test_top_k_truncate_deterministic_ties():
    matrix = np.ones((3, 6))
    truncated = sparse.top_k_truncate(matrix, 2)
    # All values equal: ties broken by ascending item id, identically per row.
    assert (np.nonzero(truncated[0])[0] == np.nonzero(truncated[1])[0]).all()


def test_estimate_lp_bytes_orders_formulations(small_timik_instance):
    instance = small_timik_instance
    full = sparse.estimate_lp_bytes(instance, formulation="full")
    simplified = sparse.estimate_lp_bytes(instance, formulation="simplified")
    sparse_est = sparse.estimate_lp_bytes(
        instance, formulation="sparse", per_user_items=instance.num_slots + 2
    )
    assert sparse_est < simplified < full


@pytest.mark.parametrize("st", [False, True])
def test_estimate_lp_bytes_matches_assembled_simplified_model(st):
    # With full lists the estimate counts exactly what LP_SIMP assembles:
    # y only on positive pair cells, cap rows only on SVGIC-ST (active here).
    shape = dict(num_users=12, num_items=16, num_slots=3, seed=3, social_top_k=4, edge_density=0.3)
    if st:
        instance = datasets.make_st_instance("timik", max_subgroup_size=2, **shape)
    else:
        instance = datasets.make_instance("timik", **shape)
    assert (instance.pair_social == 0).any()
    lists = sparse.uniform_candidate_lists(instance.num_users, np.arange(instance.num_items))
    program = _build_sparse(instance, *lists, True)
    a_ub, _, a_eq, _ = program.build_matrices()
    assembled = 28 * (a_ub.nnz + a_eq.nnz) + 8 * program.num_variables
    assert sparse.estimate_lp_bytes(instance, formulation="simplified") == assembled


# --------------------------------------------------------------------------- #
# Sparse LP / IP equivalence
# --------------------------------------------------------------------------- #
def test_sparse_lp_matches_simplified_objective(small_timik_instance):
    dense = solve_lp_relaxation(
        small_timik_instance, formulation="simplified", prune_items=False
    )
    sparse_sol = solve_lp_relaxation(
        small_timik_instance, formulation="sparse", prune_items=False
    )
    assert sparse_sol.objective == pytest.approx(dense.objective, abs=1e-9)
    # Decoded compact factors are k-mass distributions over items per user.
    assert np.allclose(
        sparse_sol.compact_factors.sum(axis=1), small_timik_instance.num_slots, atol=1e-6
    )


def test_sparse_lp_pruned_stays_feasible(small_timik_instance):
    solution = solve_lp_relaxation(
        small_timik_instance,
        formulation="sparse",
        prune_items=True,
        max_candidate_items=8,
    )
    assert solution.objective > 0
    assert solution.compact_factors.shape == (
        small_timik_instance.num_users,
        small_timik_instance.num_items,
    )


@pytest.mark.parametrize("seed", [11, 12])
def test_sparse_ip_matches_dense_optimum(seed):
    # The CSR-built IP omits the loop-built model's y/z columns on zero-weight
    # pair cells; its optimum must equal the dense model's.
    instance = datasets.make_instance(
        "timik", num_users=8, num_items=10, num_slots=2, seed=seed, social_top_k=3
    )
    assert (instance.pair_social == 0).any()
    items = np.arange(instance.num_items, dtype=np.int64)
    dense = build_ip_reference(instance, items).solve()
    sparse_res = solve_exact(instance, prune_items=False)
    assert sparse_res.breakdown.total == pytest.approx(dense.objective, abs=1e-9)
    assert sparse_res.configuration.is_valid(instance)


# --------------------------------------------------------------------------- #
# Generator knobs (satellite: truncated instances still validate)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("top_k", [3, 6])
def test_truncated_instances_validate_and_solve(top_k):
    instance = datasets.make_instance(
        "epinions",
        num_users=20,
        num_items=25,
        num_slots=3,
        seed=21,
        preference_top_k=top_k,
    )
    assert (np.count_nonzero(instance.preference, axis=1) <= top_k).all()
    solution = solve_lp_relaxation(instance, formulation="sparse", prune_items=False)
    assert solution.objective >= 0


def test_edge_density_thins_graph_deterministically():
    thin_a = datasets.make_instance(
        "timik", num_users=40, num_items=20, num_slots=3, seed=33, edge_density=0.5
    )
    thin_b = datasets.make_instance(
        "timik", num_users=40, num_items=20, num_slots=3, seed=33, edge_density=0.5
    )
    full = datasets.make_instance(
        "timik", num_users=40, num_items=20, num_slots=3, seed=33
    )
    assert np.array_equal(thin_a.edges, thin_b.edges)
    assert np.allclose(thin_a.social, thin_b.social)
    assert thin_a.num_edges < full.num_edges
    assert thin_a.num_users == full.num_users


def test_edge_density_validates_range():
    with pytest.raises(ValueError):
        datasets.make_instance(
            "timik", num_users=10, num_items=10, num_slots=2, seed=1, edge_density=0.0
        )
