"""Equivalence tests: batched model assembly vs the loop-built reference oracle.

The batched builders in :mod:`repro.core.lp` / :mod:`repro.core.ip` must
produce *identical* models to the original per-(pair, item, slot) loop
builders preserved in ``tests/oracles/assembly_reference.py`` — exact triplet
equality after canonicalization (CSR with sorted indices and summed
duplicates), identical objective vectors and bounds, and identical solver
objectives.  LP_SIMP and the IP are built over CSR candidate lists (every
user gets the same item set here) and lay out no empty column, so they are
compared with the oracle minus its empty columns
(:func:`~oracles.assembly_reference.drop_empty_columns`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ip import _build_program_sparse
from repro.core.lp import _build_full, _build_sparse, candidate_items
from repro.core.problem import SVGICSTInstance
from repro.core.sparse import uniform_candidate_lists
from repro.data.adversarial import group_gap_instance

from oracles import assembly_reference as oracle


def _all_items(instance) -> np.ndarray:
    return np.arange(instance.num_items, dtype=np.int64)


def _csr_lp_simp(instance, items, enforce_size_constraint):
    """LP_SIMP with every user's list set to ``items``."""
    lists = uniform_candidate_lists(instance.num_users, items)
    return _build_sparse(instance, *lists, enforce_size_constraint)


def _csr_ip(instance, items):
    """The IP with every user's list set to ``items``."""
    return _build_program_sparse(instance, *uniform_candidate_lists(instance.num_users, items))


def _simplified_reference(instance, items, enforce_size_constraint):
    """The loop-built LP_SIMP minus its empty columns."""
    return oracle.drop_empty_columns(
        oracle.build_simplified_lp_reference(instance, items, enforce_size_constraint)
    )


def _ip_reference(instance, items):
    """The loop-built IP minus its empty columns."""
    return oracle.drop_empty_columns(oracle.build_ip_reference(instance, items))


@pytest.fixture(scope="module")
def edgeless_instance():
    """An instance with an empty social network (no coupling rows at all)."""
    return group_gap_instance(3, 2)


class TestSimplifiedLPEquivalence:
    def test_tiny_instance(self, tiny_instance):
        # tiny_instance has zero pair-social cells, exercising the w > 0 mask.
        items = _all_items(tiny_instance)
        assert oracle.same_model(
            _csr_lp_simp(tiny_instance, items, True),
            _simplified_reference(tiny_instance, items, True),
        )

    def test_pruned_candidate_items(self, small_timik_instance):
        items = candidate_items(small_timik_instance, max_items=10)
        assert oracle.same_model(
            _csr_lp_simp(small_timik_instance, items, True),
            _simplified_reference(small_timik_instance, items, True),
        )

    def test_st_with_active_aggregate_cap(self, small_st_instance):
        items = _all_items(small_st_instance)
        assert oracle.same_model(
            _csr_lp_simp(small_st_instance, items, True),
            _simplified_reference(small_st_instance, items, True),
        )

    def test_st_with_vacuous_cap(self, tiny_instance):
        st = SVGICSTInstance.from_instance(tiny_instance, max_subgroup_size=5)
        items = _all_items(st)
        assert oracle.same_model(
            _csr_lp_simp(st, items, True),
            _simplified_reference(st, items, True),
        )

    def test_empty_social_network(self, edgeless_instance):
        items = _all_items(edgeless_instance)
        assert oracle.same_model(
            _csr_lp_simp(edgeless_instance, items, True),
            _simplified_reference(edgeless_instance, items, True),
        )

    def test_same_solver_objective(self, tiny_instance):
        items = _all_items(tiny_instance)
        batched = _csr_lp_simp(tiny_instance, items, True).solve()
        reference = oracle.build_simplified_lp_reference(tiny_instance, items, True).solve()
        assert batched.objective == pytest.approx(reference.objective, abs=1e-9)


class TestFullLPEquivalence:
    def test_tiny_instance(self, tiny_instance):
        items = _all_items(tiny_instance)
        assert oracle.same_model(
            _build_full(tiny_instance, items, True),
            oracle.build_full_lp_reference(tiny_instance, items, True),
        )

    def test_pruned_candidate_items(self, small_timik_instance):
        items = candidate_items(small_timik_instance, max_items=10)
        assert oracle.same_model(
            _build_full(small_timik_instance, items, True),
            oracle.build_full_lp_reference(small_timik_instance, items, True),
        )

    def test_st_with_active_per_slot_cap(self, small_st_instance):
        items = _all_items(small_st_instance)
        assert oracle.same_model(
            _build_full(small_st_instance, items, True),
            oracle.build_full_lp_reference(small_st_instance, items, True),
        )

    def test_empty_social_network(self, edgeless_instance):
        items = _all_items(edgeless_instance)
        assert oracle.same_model(
            _build_full(edgeless_instance, items, True),
            oracle.build_full_lp_reference(edgeless_instance, items, True),
        )

    def test_same_solver_objective(self, tiny_instance):
        items = _all_items(tiny_instance)
        batched = _build_full(tiny_instance, items, True).solve()
        reference = oracle.build_full_lp_reference(tiny_instance, items, True).solve()
        assert batched.objective == pytest.approx(reference.objective, abs=1e-9)


class TestIPEquivalence:
    def test_tiny_instance(self, tiny_instance):
        items = _all_items(tiny_instance)
        assert oracle.same_model(
            _csr_ip(tiny_instance, items),
            _ip_reference(tiny_instance, items),
        )

    def test_pruned_candidate_items(self, small_timik_instance):
        items = candidate_items(small_timik_instance, max_items=8)
        assert oracle.same_model(
            _csr_ip(small_timik_instance, items),
            _ip_reference(small_timik_instance, items),
        )

    def test_st_with_z_variables_and_caps(self, small_st_instance):
        items = _all_items(small_st_instance)
        assert oracle.same_model(
            _csr_ip(small_st_instance, items),
            _ip_reference(small_st_instance, items),
        )

    def test_st_with_vacuous_cap(self, tiny_instance):
        st = SVGICSTInstance.from_instance(
            tiny_instance, teleport_discount=0.3, max_subgroup_size=5
        )
        items = _all_items(st)
        assert oracle.same_model(
            _csr_ip(st, items),
            _ip_reference(st, items),
        )

    def test_empty_social_network(self, edgeless_instance):
        items = _all_items(edgeless_instance)
        assert oracle.same_model(
            _csr_ip(edgeless_instance, items),
            _ip_reference(edgeless_instance, items),
        )

    def test_same_solver_objective(self, tiny_instance):
        items = _all_items(tiny_instance)
        batched = _csr_ip(tiny_instance, items).solve()
        reference = oracle.build_ip_reference(tiny_instance, items).solve()
        assert batched.objective == pytest.approx(reference.objective, abs=1e-9)

    def test_same_solver_objective_st(self, tiny_instance):
        st = SVGICSTInstance.from_instance(
            tiny_instance, teleport_discount=0.4, max_subgroup_size=2
        )
        items = _all_items(st)
        batched = _csr_ip(st, items).solve()
        reference = oracle.build_ip_reference(st, items).solve()
        assert batched.objective == pytest.approx(reference.objective, abs=1e-9)
