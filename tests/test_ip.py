"""Tests for the exact integer program (SVGIC and SVGIC-ST)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.configuration import SAVGConfiguration
from repro.core.ip import _decode_configuration_sparse, solve_exact
from repro.core.objective import total_utility
from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.core.sparse import uniform_candidate_lists
from repro.core.svgic_st import size_violation_report
from repro.data import datasets


def brute_force_optimum(instance: SVGICInstance) -> float:
    """Enumerate all SAVG k-Configurations (tiny instances only)."""
    n, m, k = instance.num_users, instance.num_items, instance.num_slots
    per_user_options = list(itertools.permutations(range(m), k))
    best = -np.inf
    for combo in itertools.product(per_user_options, repeat=n):
        assignment = np.array(combo, dtype=np.int64)
        config = SAVGConfiguration(assignment=assignment, num_items=m)
        best = max(best, total_utility(instance, config))
    return best


class TestExactSolver:
    def test_matches_brute_force_on_tiny_instance(self, tiny_instance):
        # 3 users, 4 items, 2 slots -> 12^3 = 1728 configurations.
        expected = brute_force_optimum(tiny_instance)
        result = solve_exact(tiny_instance, prune_items=False)
        assert result.optimal
        assert result.objective == pytest.approx(expected, rel=1e-9)

    def test_result_configuration_is_valid(self, tiny_instance):
        result = solve_exact(tiny_instance, prune_items=False)
        assert result.configuration.is_valid(tiny_instance)

    def test_breakdown_matches_configuration(self, tiny_instance):
        result = solve_exact(tiny_instance, prune_items=False)
        assert result.objective == pytest.approx(
            total_utility(tiny_instance, result.configuration)
        )

    def test_bnb_solvers_match_highs(self, tiny_instance):
        reference = solve_exact(tiny_instance, prune_items=False).objective
        for solver in ("bnb-best", "bnb-depth"):
            result = solve_exact(tiny_instance, prune_items=False, solver=solver, time_limit=60)
            assert result.objective == pytest.approx(reference, rel=1e-6)

    def test_unknown_solver_rejected(self, tiny_instance):
        with pytest.raises(ValueError):
            solve_exact(tiny_instance, solver="gurobi")

    def test_pruned_ip_close_to_unpruned(self, small_timik_instance):
        pruned = solve_exact(small_timik_instance, prune_items=True, time_limit=30)
        assert pruned.configuration.is_valid(small_timik_instance)
        assert pruned.objective > 0

    def test_lambda_zero_prefers_top_items(self, tiny_instance):
        instance = tiny_instance.with_social_weight(0.0)
        result = solve_exact(instance, prune_items=False)
        # With lambda=0 the optimum is each user's top-k items by preference.
        expected = sum(
            np.sort(instance.preference[u])[-instance.num_slots:].sum()
            for u in range(instance.num_users)
        )
        assert result.objective == pytest.approx(expected)


class TestDecodeRepair:
    """The duplicate-repair path of ``_decode_configuration_sparse``.

    Crafted x blocks over a candidate list shared by every user make the
    per-slot argmax decode the same item twice; the repair must pick the
    *best* unused candidate item — highest decoded x mass at the offending
    slot, ties broken by preference.
    """

    @staticmethod
    def _single_user_instance(preference):
        preference = np.asarray(preference, dtype=float)
        return SVGICInstance(
            num_users=1,
            num_items=preference.shape[0],
            num_slots=2,
            social_weight=0.5,
            preference=preference[None, :],
            edges=np.empty((0, 2), dtype=np.int64),
            social=np.empty((0, preference.shape[0])),
            name="decode-repair",
        )

    @staticmethod
    def _decode(instance, items, x_block):
        lists = uniform_candidate_lists(instance.num_users, items)
        return _decode_configuration_sparse(instance, *lists, x_block.ravel())

    def test_repair_picks_highest_mass_unused_item(self):
        instance = self._single_user_instance([0.1, 0.9, 0.5])
        items = np.arange(3, dtype=np.int64)
        x_block = np.zeros((1, 3, 2))
        x_block[0, :, 0] = [1.0, 0.0, 0.0]  # slot 0 decodes item 0
        x_block[0, :, 1] = [0.9, 0.4, 0.6]  # argmax duplicates item 0
        config = self._decode(instance, items, x_block)
        # Unused candidates at slot 1 are {1, 2}; item 2 carries more mass
        # (0.6 > 0.4).  The old first-unused rule would have picked item 1.
        assert config.assignment[0, 0] == 0
        assert config.assignment[0, 1] == 2
        assert config.is_valid(instance)

    def test_repair_breaks_mass_ties_by_preference(self):
        instance = self._single_user_instance([0.1, 0.9, 0.5])
        items = np.arange(3, dtype=np.int64)
        x_block = np.zeros((1, 3, 2))
        x_block[0, :, 0] = [1.0, 0.0, 0.0]
        x_block[0, :, 1] = [0.9, 0.5, 0.5]  # items 1 and 2 tie on mass
        config = self._decode(instance, items, x_block)
        assert config.assignment[0, 1] == 1  # preference 0.9 > 0.5
        assert config.is_valid(instance)

    def test_repair_maps_back_to_original_item_ids(self):
        # With a pruned candidate set, the repair must return original ids.
        instance = self._single_user_instance([0.1, 0.2, 0.9, 0.5, 0.3])
        items = np.array([1, 2, 4], dtype=np.int64)
        x_block = np.zeros((1, 3, 2))
        x_block[0, :, 0] = [1.0, 0.0, 0.0]  # slot 0 decodes original item 1
        x_block[0, :, 1] = [0.9, 0.1, 0.8]  # duplicate; best unused is ci=2
        config = self._decode(instance, items, x_block)
        assert config.assignment[0, 0] == 1
        assert config.assignment[0, 1] == 4

    def test_clean_decode_untouched(self):
        instance = self._single_user_instance([0.1, 0.9, 0.5])
        items = np.arange(3, dtype=np.int64)
        x_block = np.zeros((1, 3, 2))
        x_block[0, :, 0] = [1.0, 0.0, 0.0]
        x_block[0, :, 1] = [0.0, 1.0, 0.0]
        config = self._decode(instance, items, x_block)
        assert config.assignment[0].tolist() == [0, 1]


class TestExactSolverST:
    def test_respects_size_constraint(self):
        instance = datasets.make_st_instance(
            "timik", num_users=6, num_items=10, num_slots=2,
            max_subgroup_size=2, seed=5,
        )
        result = solve_exact(instance, prune_items=False, time_limit=60)
        report = size_violation_report(instance, result.configuration)
        assert report.feasible

    def test_st_objective_not_below_svgic_objective_of_same_config(self, tiny_instance):
        st = SVGICSTInstance.from_instance(tiny_instance, teleport_discount=0.5, max_subgroup_size=3)
        result = solve_exact(st, prune_items=False)
        plain_value = total_utility(tiny_instance, result.configuration)
        assert result.objective >= plain_value - 1e-9

    def test_tight_cap_reduces_objective(self):
        base = datasets.make_instance("timik", num_users=6, num_items=10, num_slots=2, seed=6)
        loose = SVGICSTInstance.from_instance(base, max_subgroup_size=6)
        tight = SVGICSTInstance.from_instance(base, max_subgroup_size=2)
        loose_result = solve_exact(loose, prune_items=False, time_limit=60)
        tight_result = solve_exact(tight, prune_items=False, time_limit=60)
        assert tight_result.objective <= loose_result.objective + 1e-6
