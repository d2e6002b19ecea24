"""Tests for the SVGIC-ST helpers (feasibility, co-display accounting)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.configuration import SAVGConfiguration
from repro.core.greedy import greedy_complete
from repro.core.problem import SVGICSTInstance
from repro.core.registry import run_registered
from repro.core.svgic_st import (
    co_display_events,
    is_feasible,
    size_violation_report,
    subgroup_size_histogram,
)
from repro.data import datasets
from repro.data.example_paper import group_configuration, optimal_configuration, paper_example_instance


@pytest.fixture(scope="module")
def st_instance():
    return SVGICSTInstance.from_instance(
        paper_example_instance(), teleport_discount=0.5, max_subgroup_size=3
    )


class TestSizeViolations:
    def test_group_configuration_violates_cap_of_three(self, st_instance):
        report = size_violation_report(st_instance, group_configuration(st_instance))
        assert not report.feasible
        assert report.largest_subgroup == 4
        assert report.oversized_subgroups == 3  # one oversized subgroup per slot
        assert report.excess_users == 3

    def test_optimal_configuration_feasible_under_cap_three(self, st_instance):
        report = size_violation_report(st_instance, optimal_configuration(st_instance))
        assert report.feasible
        assert report.excess_users == 0

    def test_is_feasible_requires_valid_configuration(self, st_instance):
        incomplete = SAVGConfiguration.for_instance(st_instance)
        assert not is_feasible(st_instance, incomplete)

    def test_is_feasible_true_case(self, st_instance):
        assert is_feasible(st_instance, optimal_configuration(st_instance))


class TestCoDisplayEvents:
    def test_events_partition_shared_items(self, st_instance):
        config = optimal_configuration(st_instance)
        direct, indirect = co_display_events(st_instance, config)
        assert direct  # the SAVG configuration has plenty of shared views
        for u, v, item in direct:
            assert config.co_displayed(u, v, item)
        for u, v, item in indirect:
            assert config.indirectly_co_displayed(u, v, item)

    def test_no_overlap_between_direct_and_indirect(self, st_instance):
        config = optimal_configuration(st_instance)
        direct, indirect = co_display_events(st_instance, config)
        assert set(direct).isdisjoint(set(indirect))


class TestHistogram:
    def test_histogram_counts_match_subgroups(self, st_instance):
        config = group_configuration(st_instance)
        histogram = subgroup_size_histogram(config)
        assert histogram == {4: 3}

    def test_histogram_total_equals_display_units(self, st_instance):
        config = optimal_configuration(st_instance)
        histogram = subgroup_size_histogram(config)
        total_users = sum(size * count for size, count in histogram.items())
        assert total_users == st_instance.num_users * st_instance.num_slots


class TestTightCapCompletion:
    """``make_st_instance`` accepts ``M * m == n``; completion must still fit the cap."""

    @pytest.mark.parametrize("algorithm", ["AVG-D", "AVG"])
    @pytest.mark.parametrize(
        "num_users,num_items,cap,seed", [(40, 10, 4, 1), (60, 12, 5, 1), (30, 10, 3, 4)]
    )
    def test_rounding_completes_within_cap(
        self, algorithm, num_users, num_items, cap, seed
    ):
        instance = datasets.make_st_instance(
            "timik", num_users=num_users, num_items=num_items, num_slots=3,
            max_subgroup_size=cap, seed=seed,
        )
        result = run_registered(algorithm, instance, rng=0)
        result.configuration.validate(instance)
        assert result.configuration.max_subgroup_size() <= cap

    def test_greedy_complete_moves_a_member_to_free_a_place(self):
        """User 2 can take only items 1 and 2 at slot 1, both full; item 0 has room."""
        instance = datasets.make_st_instance(
            "timik", num_users=3, num_items=3, num_slots=2, max_subgroup_size=1, seed=0
        )
        config = SAVGConfiguration(
            assignment=np.array([[2, 1], [1, 2], [0, -1]]), num_items=3
        )
        greedy_complete(instance, config, size_limit=1)
        config.validate(instance)
        assert config.max_subgroup_size() <= 1
        assert config.assignment[:, 0].tolist() == [2, 1, 0]  # only slot 1 moved
        assert sorted(config.assignment[:, 1].tolist()) == [0, 1, 2]

    def test_greedy_complete_names_the_unit_when_no_move_helps(self):
        """User 1 can take only item 2 at slot 2, and its holder has every other item."""
        instance = datasets.make_st_instance(
            "timik", num_users=3, num_items=3, num_slots=3, max_subgroup_size=1, seed=0
        )
        config = SAVGConfiguration(
            assignment=np.array([[1, 0, 2], [0, 1, -1], [-1, -1, -1]]), num_items=3
        )
        with pytest.raises(RuntimeError, match=r"user 1, slot 2"):
            greedy_complete(instance, config, size_limit=1)
