"""Tests for the randomized AVG algorithm (CSF rounding)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.avg import csf_rounding, run_avg
from repro.core.greedy import top_k_preference_configuration
from repro.core.lp import solve_lp_relaxation
from repro.core.objective import total_utility
from repro.core.svgic_st import size_violation_report
from repro.data import adversarial, datasets
from repro.data.example_paper import paper_example_instance


@pytest.fixture(scope="module")
def instance():
    return paper_example_instance()


@pytest.fixture(scope="module")
def fractional(instance):
    return solve_lp_relaxation(instance, prune_items=False)


class TestCSFRounding:
    def test_produces_valid_configuration(self, instance, fractional):
        config, stats = csf_rounding(instance, fractional, rng=0)
        assert config.is_valid(instance)
        assert stats.iterations > 0

    def test_every_iteration_progresses_with_advanced_sampling(self, instance, fractional):
        _config, stats = csf_rounding(instance, fractional, rng=1, advanced_sampling=True)
        assert stats.iterations <= instance.num_users * instance.num_slots
        assert stats.idle_iterations == 0

    def test_uniform_sampling_also_terminates(self, instance, fractional):
        config, stats = csf_rounding(instance, fractional, rng=2, advanced_sampling=False)
        assert config.is_valid(instance)

    def test_size_limit_respected(self, small_st_instance):
        fractional = solve_lp_relaxation(small_st_instance)
        config, _stats = csf_rounding(small_st_instance, fractional, rng=3)
        assert config.max_subgroup_size() <= small_st_instance.max_subgroup_size

    def test_seeded_reproducibility(self, instance, fractional):
        config_a, _ = csf_rounding(instance, fractional, rng=42)
        config_b, _ = csf_rounding(instance, fractional, rng=42)
        assert config_a == config_b

    def test_different_seeds_usually_differ(self, instance, fractional):
        configs = [csf_rounding(instance, fractional, rng=seed)[0] for seed in range(6)]
        assert any(configs[0] != other for other in configs[1:])


class TestRunAVG:
    def test_returns_valid_result(self, instance, fractional):
        result = run_avg(instance, fractional, rng=0)
        assert result.configuration.is_valid(instance)
        assert result.algorithm == "AVG"
        assert result.objective == pytest.approx(
            total_utility(instance, result.configuration)
        )

    def test_info_records_lp_data(self, instance, fractional):
        result = run_avg(instance, fractional, rng=0)
        assert result.info["lp_objective"] == pytest.approx(fractional.objective)
        assert result.info["lp_formulation"] == "simplified"

    def test_repetitions_never_hurt(self, instance, fractional):
        single = run_avg(instance, fractional, rng=11, repetitions=1)
        many = run_avg(instance, fractional, rng=11, repetitions=10)
        assert many.objective >= single.objective - 1e-9

    def test_rejects_zero_repetitions(self, instance, fractional):
        with pytest.raises(ValueError):
            run_avg(instance, fractional, repetitions=0)

    def test_lambda_zero_special_case_is_top_k(self):
        instance = paper_example_instance(social_weight=0.0)
        result = run_avg(instance)
        assert result.optimal
        assert result.configuration == top_k_preference_configuration(instance)

    def test_expected_quality_on_random_instances(self):
        """Empirical check of the 4-approximation: best of a few runs is far above LP/4."""
        instance = datasets.make_instance("timik", num_users=10, num_items=25, num_slots=3, seed=9)
        fractional = solve_lp_relaxation(instance)
        result = run_avg(instance, fractional, rng=5, repetitions=5)
        assert result.objective >= fractional.objective / 4.0

    def test_solves_without_precomputed_fractional(self, small_timik_instance):
        result = run_avg(small_timik_instance, rng=1)
        assert result.configuration.is_valid(small_timik_instance)

    def test_st_instance_feasible(self, small_st_instance):
        result = run_avg(small_st_instance, rng=2)
        report = size_violation_report(small_st_instance, result.configuration)
        assert report.feasible
        assert result.configuration.is_valid(small_st_instance)

    def test_full_lp_formulation_variant(self, instance):
        result = run_avg(instance, rng=3, lp_formulation="full", prune_items=False)
        assert result.configuration.is_valid(instance)
        assert result.info["lp_formulation"] == "full"

    def test_recovers_optimum_on_indifferent_instance(self):
        """Lemma 3 counterpart: CSF co-displays one item to everyone per slot."""
        instance = adversarial.indifferent_instance(5, 6, num_slots=2)
        fractional = solve_lp_relaxation(instance, prune_items=False)
        result = run_avg(instance, fractional, rng=0, repetitions=3)
        optimum = instance.social_weight * 5 * 4 * 2  # all directed pairs, both slots
        assert result.objective >= 0.9 * optimum

    def test_custom_algorithm_name(self, instance, fractional):
        result = run_avg(instance, fractional, rng=0, algorithm_name="AVG-X")
        assert result.algorithm == "AVG-X"
