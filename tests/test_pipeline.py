"""Tests for the solver pipeline: SolveContext caching, stages, LocalSearchImprover."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.greedy import top_k_preference_configuration
from repro.core.objective import total_utility
from repro.core.pipeline import (
    DuplicateRepairStage,
    GreedyCompletionStage,
    LocalSearchImprover,
    SolveContext,
    apply_stages,
)
from repro.core.problem import SVGICSTInstance
from repro.core.svgic_st import size_violation_report
from repro.data import datasets


def _random_valid_configuration(instance, rng) -> SAVGConfiguration:
    """A uniformly random duplication-free complete configuration."""
    config = SAVGConfiguration.for_instance(instance)
    for user in range(instance.num_users):
        items = rng.choice(instance.num_items, size=instance.num_slots, replace=False)
        config.assignment[user, :] = items
    return config


class TestSolveContext:
    def test_fractional_is_cached_per_key(self, small_timik_instance):
        ctx = SolveContext(small_timik_instance)
        first = ctx.fractional()
        second = ctx.fractional()
        assert first is second
        assert ctx.lp_solves == 1 and ctx.lp_requests == 2 and ctx.lp_hits == 1

    def test_distinct_parameters_solve_separately(self, small_timik_instance):
        ctx = SolveContext(small_timik_instance)
        simplified = ctx.fractional(formulation="simplified")
        full = ctx.fractional(formulation="full")
        assert simplified is not full
        assert ctx.lp_solves == 2
        # Observation 2: both formulations share the optimal objective.
        assert simplified.objective == pytest.approx(full.objective, rel=1e-6)

    def test_hit_flag_tracks_last_request(self, small_timik_instance):
        ctx = SolveContext(small_timik_instance)
        ctx.fractional()
        assert ctx.last_fractional_was_hit is False
        ctx.fractional()
        assert ctx.last_fractional_was_hit is True

    def test_lp_upper_bound_bounds_every_configuration(self, small_timik_instance):
        ctx = SolveContext(small_timik_instance)
        bound = ctx.lp_upper_bound()
        config = top_k_preference_configuration(small_timik_instance)
        assert bound >= total_utility(small_timik_instance, config) - 1e-9

    def test_candidate_items_cached(self, small_timik_instance):
        ctx = SolveContext(small_timik_instance)
        first = ctx.candidate_item_ids()
        second = ctx.candidate_item_ids()
        assert first is second


class TestBasicStages:
    def test_greedy_completion_fills_partial_configuration(self, tiny_instance):
        config = SAVGConfiguration.for_instance(tiny_instance)
        config.assignment[0, 0] = 1
        outcome = GreedyCompletionStage().apply(tiny_instance, config)
        assert outcome.configuration.is_valid(tiny_instance)
        assert outcome.info["filled_units"] == tiny_instance.num_users * tiny_instance.num_slots - 1

    def test_greedy_completion_noop_on_complete(self, tiny_instance):
        config = top_k_preference_configuration(tiny_instance)
        outcome = GreedyCompletionStage().apply(tiny_instance, config)
        assert outcome.configuration is config
        assert outcome.info["filled_units"] == 0

    def test_duplicate_repair_restores_validity(self, tiny_instance):
        config = top_k_preference_configuration(tiny_instance)
        config.assignment[1, 1] = config.assignment[1, 0]  # force a duplicate
        assert not config.satisfies_no_duplication()
        outcome = DuplicateRepairStage().apply(tiny_instance, config)
        assert outcome.configuration.is_valid(tiny_instance)
        assert outcome.info["repaired_units"] == 1

    def test_apply_stages_chains_and_reports(self, tiny_instance):
        config = SAVGConfiguration.for_instance(tiny_instance)
        config.assignment[0, 0] = 1
        final, applied, info = apply_stages(
            tiny_instance,
            config,
            [GreedyCompletionStage(), DuplicateRepairStage(), LocalSearchImprover()],
        )
        assert applied == ("greedy_completion", "duplicate_repair", "local_search")
        assert final.is_valid(tiny_instance)
        assert set(info) == set(applied)


class TestLocalSearchImprover:
    def test_never_decreases_utility_paper_example(self, paper_instance):
        config = top_k_preference_configuration(paper_instance)
        before = total_utility(paper_instance, config)
        outcome = LocalSearchImprover().apply(paper_instance, config)
        after = total_utility(paper_instance, outcome.configuration)
        assert after >= before - 1e-12
        assert outcome.configuration.is_valid(paper_instance)

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_instances_monotone_and_delta_consistent(self, seed):
        """Property sweep: monotone trace, final >= input, delta == rescratch."""
        rng = np.random.default_rng(seed)
        instance = datasets.make_instance(
            "timik",
            num_users=int(rng.integers(4, 10)),
            num_items=int(rng.integers(6, 16)),
            num_slots=int(rng.integers(2, 4)),
            seed=seed,
        )
        config = _random_valid_configuration(instance, rng)
        before = total_utility(instance, config)
        outcome = LocalSearchImprover().apply(instance, config, rng=rng)

        # Final utility >= input utility.
        assert outcome.info["final_utility"] >= before - 1e-12
        # Utility is monotonically non-decreasing per accepted move.
        trace = outcome.info["utility_trace"]
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        # Delta-evaluated objective matches full re-evaluation within 1e-9.
        rescratch = total_utility(instance, outcome.configuration)
        assert outcome.info["final_utility"] == pytest.approx(rescratch, abs=1e-9)
        assert outcome.info["delta_drift"] <= 1e-9
        assert outcome.configuration.is_valid(instance)

    @pytest.mark.parametrize("seed", range(4))
    def test_st_instances_stay_feasible_and_monotone(self, seed):
        rng = np.random.default_rng(100 + seed)
        instance = datasets.make_st_instance(
            "timik",
            num_users=9,
            num_items=12,
            num_slots=3,
            max_subgroup_size=3,
            seed=seed,
        )
        config = _random_valid_configuration(instance, rng)
        # Random configurations may violate the cap; start from a feasible one.
        if not size_violation_report(instance, config).feasible:
            from repro.core.greedy import greedy_complete

            config = SAVGConfiguration.for_instance(instance)
            greedy_complete(instance, config, size_limit=instance.max_subgroup_size)
        before = total_utility(instance, config)
        outcome = LocalSearchImprover().apply(instance, config, rng=rng)
        assert outcome.info["final_utility"] >= before - 1e-12
        assert size_violation_report(instance, outcome.configuration).feasible
        rescratch = total_utility(instance, outcome.configuration)
        assert outcome.info["final_utility"] == pytest.approx(rescratch, abs=1e-9)

    def test_improves_deliberately_bad_configuration(self, small_timik_instance):
        """Starting from each user's *worst* items, local search must find gains."""
        instance = small_timik_instance
        order = np.argsort(instance.preference, axis=1, kind="stable")
        config = SAVGConfiguration.for_instance(instance)
        config.assignment[:, :] = order[:, : instance.num_slots]
        before = total_utility(instance, config)
        outcome = LocalSearchImprover().apply(instance, config)
        assert outcome.info["moves"] > 0
        assert outcome.info["final_utility"] > before

    def test_completes_partial_configurations(self, tiny_instance):
        config = SAVGConfiguration.for_instance(tiny_instance)
        config.assignment[0, 0] = 0
        outcome = LocalSearchImprover().apply(tiny_instance, config)
        # Utilities are non-negative, so filling empty units is always a
        # (weakly) improving single-cell move.
        assert outcome.configuration.is_valid(tiny_instance)

    def test_terminates_with_no_gain_sweep(self, paper_instance):
        config = top_k_preference_configuration(paper_instance)
        first = LocalSearchImprover().apply(paper_instance, config)
        second = LocalSearchImprover().apply(paper_instance, first.configuration)
        assert second.info["moves"] == 0
        assert second.info["passes"] == 1

    def test_max_items_restriction(self, small_timik_instance):
        config = top_k_preference_configuration(small_timik_instance)
        outcome = LocalSearchImprover(max_items=5).apply(small_timik_instance, config)
        assert outcome.configuration.is_valid(small_timik_instance)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LocalSearchImprover(max_passes=0)
        with pytest.raises(ValueError):
            LocalSearchImprover(tolerance=-1.0)

    def test_pairwise_search_rejects_rows_that_repeat_an_item(self, tiny_instance):
        config = SAVGConfiguration(
            assignment=np.array([[0, 1], [2, 2], [3, UNASSIGNED]]), num_items=4
        )
        with pytest.raises(ValueError, match="user 1"):
            LocalSearchImprover().apply(tiny_instance, config)
        # Rows the search never changes, or a search without exchanges, may repeat.
        LocalSearchImprover(users=[0, 2]).apply(tiny_instance, config)
        LocalSearchImprover(pairwise=False).apply(tiny_instance, config)


class TestProbeMany:
    """DeltaEvaluator.probe_many is pinned to the scalar set_cell probe."""

    def _scalar_probes(self, evaluator, user, slot, candidates):
        old = int(evaluator.assignment[user, slot])
        base = evaluator.total
        gains = []
        for item in candidates:
            item = int(item)
            if item == old:
                gains.append(0.0)
                continue
            gains.append(evaluator.set_cell(user, slot, item) - base)
            evaluator.set_cell(user, slot, old)
        return np.asarray(gains)

    @pytest.mark.parametrize("fixture_name", ["small_timik_instance", "small_st_instance"])
    def test_matches_scalar_probe_on_every_unit(self, fixture_name, request):
        from repro.core.objective import DeltaEvaluator

        instance = request.getfixturevalue(fixture_name)
        rng = np.random.default_rng(17)
        config = _random_valid_configuration(instance, rng)
        evaluator = DeltaEvaluator(instance, config)
        candidates = np.arange(instance.num_items, dtype=np.int64)
        for user in range(instance.num_users):
            for slot in range(instance.num_slots):
                batched = evaluator.probe_many((user, slot), candidates)
                scalar = self._scalar_probes(evaluator, user, slot, candidates)
                np.testing.assert_allclose(batched, scalar, atol=1e-9)

    def test_probe_does_not_mutate_state(self, small_timik_instance):
        from repro.core.objective import DeltaEvaluator

        rng = np.random.default_rng(3)
        config = _random_valid_configuration(small_timik_instance, rng)
        evaluator = DeltaEvaluator(small_timik_instance, config)
        before_total = evaluator.total
        before_assignment = evaluator.assignment.copy()
        evaluator.probe_many((0, 0), np.arange(small_timik_instance.num_items))
        assert evaluator.total == before_total
        np.testing.assert_array_equal(evaluator.assignment, before_assignment)

    def test_probe_on_partial_configuration(self, tiny_instance):
        from repro.core.objective import DeltaEvaluator

        config = SAVGConfiguration.for_instance(tiny_instance)
        config.assignment[0, 0] = 1  # user 0: one assigned, one empty unit
        evaluator = DeltaEvaluator(tiny_instance, config)
        candidates = np.arange(tiny_instance.num_items, dtype=np.int64)
        batched = evaluator.probe_many((0, 1), candidates)
        scalar = self._scalar_probes(evaluator, 0, 1, candidates)
        np.testing.assert_allclose(batched, scalar, atol=1e-9)

    def test_rejects_out_of_range_candidates(self, tiny_instance):
        from repro.core.objective import DeltaEvaluator

        evaluator = DeltaEvaluator(tiny_instance)
        with pytest.raises(ValueError, match="candidate item"):
            evaluator.probe_many((0, 0), np.array([tiny_instance.num_items]))

    def test_empty_candidate_list(self, tiny_instance):
        from repro.core.objective import DeltaEvaluator

        evaluator = DeltaEvaluator(tiny_instance)
        assert evaluator.probe_many((0, 0), np.array([], dtype=np.int64)).size == 0

    @pytest.mark.parametrize("teleport_discount", [0.0, 0.3, 0.9])
    def test_st_vectorized_path_matches_scalar_probe(self, teleport_discount):
        """Satellite pin: the vectorized SVGIC-ST path equals probe/revert pairs."""
        from repro.core.objective import DeltaEvaluator

        instance = datasets.make_st_instance(
            "timik", num_users=10, num_items=24, num_slots=3,
            max_subgroup_size=3, teleport_discount=teleport_discount, seed=29,
        )
        rng = np.random.default_rng(5)
        config = _random_valid_configuration(instance, rng)
        evaluator = DeltaEvaluator(instance, config)
        candidates = np.arange(instance.num_items, dtype=np.int64)
        for user in range(instance.num_users):
            for slot in range(instance.num_slots):
                batched = evaluator.probe_many((user, slot), candidates)
                scalar = self._scalar_probes(evaluator, user, slot, candidates)
                np.testing.assert_allclose(batched, scalar, atol=1e-9)

    def test_st_probe_on_partial_configuration(self, small_st_instance):
        from repro.core.objective import DeltaEvaluator

        config = SAVGConfiguration.for_instance(small_st_instance)
        config.assignment[0, 0] = 2  # one assigned unit, the rest empty
        config.assignment[1, 1] = 2  # a friend may share the item indirectly
        evaluator = DeltaEvaluator(small_st_instance, config)
        candidates = np.arange(small_st_instance.num_items, dtype=np.int64)
        for user in range(3):
            for slot in range(small_st_instance.num_slots):
                batched = evaluator.probe_many((user, slot), candidates)
                scalar = self._scalar_probes(evaluator, user, slot, candidates)
                np.testing.assert_allclose(batched, scalar, atol=1e-9)

    def test_st_probe_tolerates_duplicate_rows(self, small_st_instance):
        """Intermediate local-search states may duplicate an item within a row."""
        from repro.core.objective import DeltaEvaluator

        rng = np.random.default_rng(11)
        config = _random_valid_configuration(small_st_instance, rng)
        evaluator = DeltaEvaluator(small_st_instance, config)
        # Force duplicates: user 0 shows item of slot 1 at slot 0 as well.
        evaluator.set_cell(0, 0, int(evaluator.assignment[0, 1]))
        candidates = np.arange(small_st_instance.num_items, dtype=np.int64)
        for user in (0, 1):
            for slot in range(small_st_instance.num_slots):
                batched = evaluator.probe_many((user, slot), candidates)
                scalar = self._scalar_probes(evaluator, user, slot, candidates)
                np.testing.assert_allclose(batched, scalar, atol=1e-9)

    def test_st_probe_does_not_mutate_state(self, small_st_instance):
        from repro.core.objective import DeltaEvaluator

        rng = np.random.default_rng(7)
        config = _random_valid_configuration(small_st_instance, rng)
        evaluator = DeltaEvaluator(small_st_instance, config)
        before_total = evaluator.total
        before_breakdown = evaluator.breakdown
        before_assignment = evaluator.assignment.copy()
        evaluator.probe_many((2, 1), np.arange(small_st_instance.num_items))
        assert evaluator.total == before_total
        assert evaluator.breakdown == before_breakdown
        np.testing.assert_array_equal(evaluator.assignment, before_assignment)

    def test_improver_batched_moves_match_scratch_evaluation(self, small_timik_instance):
        """End-to-end: the batched improver still only makes true improvements."""
        config = top_k_preference_configuration(small_timik_instance)
        outcome = LocalSearchImprover().apply(small_timik_instance, config)
        trace = outcome.info["utility_trace"]
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
        assert outcome.info["final_utility"] == pytest.approx(
            total_utility(small_timik_instance, outcome.configuration), abs=1e-9
        )


class TestExchangeKernels:
    """Input checks of the closed-form exchange kernels (gains: test_properties)."""

    def test_reject_exchanges_outside_their_closed_forms(self, tiny_instance):
        from repro.core.objective import DeltaEvaluator

        config = SAVGConfiguration(
            assignment=np.array([[0, 1], [1, UNASSIGNED], [2, 2]]), num_items=4
        )
        evaluator = DeltaEvaluator(tiny_instance, config)
        before = evaluator.total
        first_pair = tiny_instance.pair_index[(0, 1)]
        second_pair = tiny_instance.pair_index[(1, 2)]
        with pytest.raises(ValueError, match="user 1"):
            evaluator.slot_swap_gains([0, 1], [0, 0], [1, 1])  # unassigned cell
        with pytest.raises(ValueError, match="user 2"):
            evaluator.slot_swap_gains([2], [0], [1])  # item shown twice
        with pytest.raises(ValueError, match=f"pair {first_pair}"):
            evaluator.pair_exchange_gains([first_pair], [0])  # would show 1 twice
        with pytest.raises(ValueError, match=f"pair {second_pair}"):
            evaluator.pair_exchange_gains([second_pair], [1])  # unassigned cell
        assert evaluator.total == before
        np.testing.assert_array_equal(evaluator.assignment, config.assignment)

    def test_empty_batches(self, tiny_instance):
        from repro.core.objective import DeltaEvaluator

        evaluator = DeltaEvaluator(
            tiny_instance, _random_valid_configuration(tiny_instance, np.random.default_rng(1))
        )
        assert evaluator.slot_swap_gains([], [], []).shape == (0,)
        assert evaluator.pair_exchange_gains([], []).shape == (0,)
