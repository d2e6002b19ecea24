"""Tests for the LP relaxations (LP_SVGIC, LP_SIMP) and candidate-item pruning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ip import solve_exact
from repro.core.lp import candidate_items, solve_lp_relaxation, solve_lp_relaxations_stacked
from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.core.registry import run_registered
from repro.core.svgic_st import size_violation_report
from repro.data import datasets
from repro.data.example_paper import paper_example_instance
from repro.solvers import linprog as linprog_module


@pytest.fixture(scope="module")
def instance():
    return paper_example_instance()


@pytest.fixture(scope="module")
def crowded_st_instance():
    """Four users who all rank items 0-2 on top, one slot, subgroup cap 1.

    Every user's top ``k + 2`` items are the same three, but four users under
    a cap of one need four distinct items.
    """
    base = SVGICInstance(
        num_users=4,
        num_items=4,
        num_slots=1,
        social_weight=0.5,
        preference=np.tile([0.9, 0.8, 0.7, 0.1], (4, 1)),
        edges=np.empty((0, 2), dtype=np.int64),
        social=np.empty((0, 4)),
        name="crowded",
    )
    return SVGICSTInstance.from_instance(base, max_subgroup_size=1)


class TestCandidateItems:
    def test_contains_every_users_top_items(self, small_timik_instance):
        items = set(candidate_items(small_timik_instance).tolist())
        k = small_timik_instance.num_slots
        for u in range(small_timik_instance.num_users):
            top = np.argsort(-small_timik_instance.preference[u])[:1]
            # The single most preferred item of each user should survive pruning
            # (it appears in the user's top k + extra list by construction).
            assert int(top[0]) in items or len(items) == small_timik_instance.num_items

    def test_respects_max_items(self, small_timik_instance):
        items = candidate_items(small_timik_instance, max_items=8)
        assert len(items) <= max(8, small_timik_instance.num_slots)

    def test_at_least_k_items(self, tiny_instance):
        items = candidate_items(tiny_instance, max_items=1)
        assert len(items) >= tiny_instance.num_slots

    def test_sorted_unique(self, small_timik_instance):
        items = candidate_items(small_timik_instance)
        assert np.all(np.diff(items) > 0)

    def test_st_keeps_enough_items_for_the_subgroup_cap(self, crowded_st_instance):
        assert candidate_items(crowded_st_instance).tolist() == [0, 1, 2, 3]
        assert candidate_items(crowded_st_instance, max_items=2).tolist() == [0, 1, 2, 3]


class TestSimplifiedRelaxation:
    def test_row_sums_equal_k(self, instance):
        frac = solve_lp_relaxation(instance, prune_items=False)
        np.testing.assert_allclose(
            frac.compact_factors.sum(axis=1), instance.num_slots, atol=1e-6
        )

    def test_factors_within_unit_interval(self, instance):
        frac = solve_lp_relaxation(instance, prune_items=False)
        assert frac.compact_factors.min() >= -1e-9
        assert frac.compact_factors.max() <= 1.0 + 1e-9

    def test_slot_factors_are_compact_over_k(self, instance):
        frac = solve_lp_relaxation(instance, prune_items=False)
        np.testing.assert_allclose(
            frac.slot_factors[:, :, 0], frac.compact_factors / instance.num_slots, atol=1e-9
        )
        assert frac.slot_factors.shape == (4, 5, 3)

    def test_upper_bounds_exact_optimum(self, instance):
        frac = solve_lp_relaxation(instance, prune_items=False)
        exact = solve_exact(instance, prune_items=False)
        assert frac.objective >= exact.objective - 1e-8

    def test_pruning_keeps_bound_above_optimum(self, small_timik_instance):
        frac = solve_lp_relaxation(small_timik_instance, prune_items=True)
        exact = solve_exact(small_timik_instance, prune_items=True, time_limit=20)
        assert frac.objective >= exact.objective - 1e-6

    def test_pruned_items_have_zero_mass(self, small_timik_instance):
        frac = solve_lp_relaxation(small_timik_instance, prune_items=True, max_candidate_items=10)
        pruned = np.setdiff1d(
            np.arange(small_timik_instance.num_items), frac.candidate_item_ids
        )
        if pruned.size:
            assert np.all(frac.compact_factors[:, pruned] == 0)

    def test_objective_scale_conversion(self, instance):
        frac = solve_lp_relaxation(instance, prune_items=False)
        assert frac.scaled_objective(instance) == pytest.approx(
            frac.objective / instance.social_weight
        )


class TestFullRelaxation:
    def test_observation2_same_objective(self, instance):
        """Observation 2: LP_SIMP and LP_SVGIC have identical optima."""
        simplified = solve_lp_relaxation(instance, formulation="simplified", prune_items=False)
        full = solve_lp_relaxation(instance, formulation="full", prune_items=False)
        assert simplified.objective == pytest.approx(full.objective, rel=1e-6)

    def test_full_per_slot_constraints(self, instance):
        full = solve_lp_relaxation(instance, formulation="full", prune_items=False)
        # sum_c x[u,c,s] == 1 for every display unit.
        sums = full.slot_factors.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        # no-duplication: sum_s x[u,c,s] <= 1.
        assert full.slot_factors.sum(axis=2).max() <= 1.0 + 1e-6

    def test_unknown_formulation_rejected(self, instance):
        with pytest.raises(ValueError):
            solve_lp_relaxation(instance, formulation="quadratic")


class TestSTRelaxation:
    def test_aggregate_size_constraint_simplified(self, tiny_instance):
        st = SVGICSTInstance.from_instance(tiny_instance, max_subgroup_size=2)
        frac = solve_lp_relaxation(st, prune_items=False)
        cap = st.max_subgroup_size * st.num_slots
        assert frac.compact_factors.sum(axis=0).max() <= cap + 1e-6

    def test_per_slot_size_constraint_full(self, tiny_instance):
        st = SVGICSTInstance.from_instance(tiny_instance, max_subgroup_size=2)
        frac = solve_lp_relaxation(st, formulation="full", prune_items=False)
        per_cell = frac.slot_factors.sum(axis=0)  # (m, k)
        assert per_cell.max() <= st.max_subgroup_size + 1e-6

    def test_st_bound_not_below_unconstrained_solution_value(self, tiny_instance):
        st = SVGICSTInstance.from_instance(tiny_instance, max_subgroup_size=3)
        unconstrained = solve_lp_relaxation(tiny_instance, prune_items=False)
        constrained = solve_lp_relaxation(st, prune_items=False)
        # With M = n the constraint is vacuous; objectives match.
        assert constrained.objective == pytest.approx(unconstrained.objective, rel=1e-6)

    @pytest.mark.parametrize("formulation", ["simplified", "full"])
    def test_pruned_relaxation_feasible_under_tight_cap(self, crowded_st_instance, formulation):
        pruned = solve_lp_relaxation(crowded_st_instance, formulation=formulation)
        unpruned = solve_lp_relaxation(
            crowded_st_instance, formulation=formulation, prune_items=False
        )
        assert pruned.objective == pytest.approx(unpruned.objective, rel=1e-9)

    def test_pruned_ip_feasible_under_tight_cap(self, crowded_st_instance):
        result = solve_exact(crowded_st_instance)
        assert result.optimal
        assert size_violation_report(crowded_st_instance, result.configuration).feasible
        assert sorted(result.configuration.assignment[:, 0].tolist()) == [0, 1, 2, 3]

    def test_avg_d_default_lp_on_st_instance_needing_more_candidates(self):
        # The candidate union here holds 33 items, but the aggregate cap
        # sum_u x̄[u,c] <= M·k needs ceil(100 / 3) = 34 of them.
        instance = datasets.make_st_instance(
            "timik", num_users=100, num_items=40, num_slots=3, max_subgroup_size=3, seed=0
        )
        result = run_registered("AVG-D", instance)
        assert result.configuration.is_valid(instance)
        assert result.objective > 0


@pytest.mark.skipif(linprog_module._highs is None, reason="SciPy's HiGHS binding is not in use")
class TestLinprogFallback:
    """``scipy.optimize.linprog`` (no binding) solves every model as the direct HiGHS call does."""

    @staticmethod
    def _assert_same(direct, fallback):
        assert len(direct) == len(fallback)
        for ours, theirs in zip(direct, fallback):
            assert ours.objective == theirs.objective
            assert np.array_equal(ours.compact_factors, theirs.compact_factors)
            assert np.array_equal(ours.slot_factors, theirs.slot_factors)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "formulation, capped",
        [("simplified", False), ("sparse", False), ("full", False),
         ("simplified", True), ("sparse", True)],
        ids=["simplified", "sparse", "full", "st-capped-simplified", "st-capped-sparse"],
    )
    def test_same_solution(self, monkeypatch, seed, formulation, capped):
        shape = dict(num_users=12, num_items=20, num_slots=3, seed=seed)
        if capped:  # M * k = 9 < n = 12: LP_SIMP gets the aggregate cap rows
            instance = datasets.make_st_instance("timik", max_subgroup_size=3, **shape)
        else:
            instance = datasets.make_instance("timik", **shape)
        direct = solve_lp_relaxation(instance, formulation=formulation)
        monkeypatch.setattr(linprog_module, "_highs", None)
        fallback = solve_lp_relaxation(instance, formulation=formulation)
        self._assert_same([direct], [fallback])

    def test_same_block_diagonal_batch(self, monkeypatch):
        instances = [
            datasets.make_instance("timik", num_users=n, num_items=15, num_slots=3, seed=seed)
            for seed, n in enumerate((8, 10, 12))
        ]
        direct = solve_lp_relaxations_stacked(instances)
        monkeypatch.setattr(linprog_module, "_highs", None)
        self._assert_same(direct, solve_lp_relaxations_stacked(instances))
