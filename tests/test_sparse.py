"""Sparse representations: CSR views, truncation, and numeric equivalence.

The sparse layer is only trustworthy if it is *pinned* to the dense engine:
every sparse evaluator, LP formulation and IP assembly must reproduce its
dense counterpart to 1e-9 on the same instance.  These tests enforce that
contract on seeded synthetic instances (SVGIC and SVGIC-ST, complete and
partial configurations) alongside structural checks of the CSR round trips,
top-K truncation and the memory model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import sparse
from repro.core.assembly_reference import build_ip_reference
from repro.core.configuration import SAVGConfiguration, UNASSIGNED
from repro.core.ip import solve_exact
from repro.core.lp import _build_sparse, solve_lp_relaxation
from repro.core.objective import (
    DeltaEvaluator,
    evaluate,
    evaluate_sparse,
    evaluate_st,
    evaluate_st_sparse,
)
from repro.data import datasets
from repro.utils.rng import ensure_rng


def _random_config(instance, rng, *, fill=1.0):
    config = SAVGConfiguration.for_instance(instance)
    for user in range(instance.num_users):
        items = rng.choice(instance.num_items, size=instance.num_slots, replace=False)
        config.assignment[user] = items
        for slot in range(instance.num_slots):
            if rng.random() > fill:
                config.assignment[user, slot] = UNASSIGNED
    return config


# --------------------------------------------------------------------------- #
# CSR round trips and truncation
# --------------------------------------------------------------------------- #
def test_csr_round_trip(small_timik_instance):
    dense = small_timik_instance.preference
    csr = sparse.csr_from_dense(dense)
    assert np.allclose(sparse.dense_from_csr(csr), dense)


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


def test_sparse_view_round_trip(small_timik_instance):
    view = sparse.SparseInstanceView.from_instance(small_timik_instance)
    back = view.to_instance()
    assert np.allclose(back.preference, small_timik_instance.preference)
    assert np.allclose(back.social, small_timik_instance.social)
    assert np.array_equal(back.edges, small_timik_instance.edges)


def test_pair_social_csr_matches_dense(small_timik_instance):
    dense = small_timik_instance.pair_social
    csr = sparse.pair_social_csr(small_timik_instance)
    assert np.allclose(np.asarray(csr.todense()), dense)


def test_adjacency_csr_symmetric(small_timik_instance):
    adj = sparse.adjacency_csr(small_timik_instance)
    dense = np.asarray(adj.todense())
    assert np.allclose(dense, dense.T)
    assert dense.shape == (small_timik_instance.num_users,) * 2


def test_memory_report_compresses_truncated_instance():
    instance = datasets.make_instance(
        "timik",
        num_users=40,
        num_items=60,
        num_slots=4,
        seed=5,
        preference_top_k=6,
        social_top_k=6,
    )
    report = instance.memory_footprint()
    assert report["sparse_bytes"] < report["dense_bytes"]
    assert report["compression"] > 1.0


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
# Evaluator equivalence (the 1e-9 pin)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fill", [1.0, 0.6])
def test_evaluate_sparse_matches_dense(seed, fill):
    instance = datasets.make_instance(
        "epinions", num_users=25, num_items=30, num_slots=3, seed=seed
    )
    config = _random_config(instance, ensure_rng(seed + 100), fill=fill)
    dense = evaluate(instance, config)
    sparse_bd = evaluate_sparse(instance, config)
    assert sparse_bd.total == pytest.approx(dense.total, abs=1e-9)
    assert sparse_bd.preference == pytest.approx(dense.preference, abs=1e-9)
    assert sparse_bd.social == pytest.approx(dense.social, abs=1e-9)


@pytest.mark.parametrize("seed", [3, 4])
def test_evaluate_st_sparse_matches_dense(seed):
    instance = datasets.make_st_instance(
        "timik", num_users=20, num_items=25, num_slots=3, seed=seed, max_subgroup_size=5
    )
    config = _random_config(instance, ensure_rng(seed + 50))
    dense = evaluate_st(instance, config)
    sparse_bd = evaluate_st_sparse(instance, config)
    assert sparse_bd.total == pytest.approx(dense.total, abs=1e-9)
    assert sparse_bd.indirect_social == pytest.approx(dense.indirect_social, abs=1e-9)


def test_delta_evaluator_sparse_pairs_matches_dense(small_st_instance):
    rng = ensure_rng(7)
    config = _random_config(small_st_instance, rng)
    dense_eval = DeltaEvaluator(small_st_instance, config)
    sparse_eval = DeltaEvaluator(small_st_instance, config, sparse_pairs=True)
    assert sparse_eval.total == pytest.approx(dense_eval.total, abs=1e-9)
    for _ in range(40):
        user = int(rng.integers(small_st_instance.num_users))
        slot = int(rng.integers(small_st_instance.num_slots))
        item = int(rng.integers(small_st_instance.num_items))
        candidates = rng.choice(small_st_instance.num_items, size=5, replace=False)
        assert np.allclose(
            sparse_eval.probe_many((user, slot), candidates),
            dense_eval.probe_many((user, slot), candidates),
            atol=1e-9,
        )
        assert sparse_eval.set_cell(user, slot, item) == pytest.approx(
            dense_eval.set_cell(user, slot, item), abs=1e-9
        )


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
    view = instance.sparse_view(preference_top_k=top_k)
    assert view.preference.nnz <= instance.num_users * top_k


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
