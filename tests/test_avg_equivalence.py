"""AVG's CSF rounding on the shared dense state, pinned to the per-user oracle.

The oracle (``tests/oracles/avg_reference.py``) is AVG's rounding as it was on
per-user ``set`` s and ``(item, slot)`` dicts.  Every pin asserts the same
configuration, the same :class:`~repro.core.avg.CSFStatistics` fields and the
same final generator state, so AVG's random draws are unchanged too.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest

from oracles.avg_reference import reference_csf_rounding
from repro.core.avg import CSFStatistics, csf_rounding, run_avg
from repro.core.lp import solve_lp_relaxation
from repro.core.objective import total_utility
from repro.core.pipeline import instance_size_limit
from repro.data import adversarial, datasets
from repro.data.example_paper import paper_example_instance


def _instance(kind: str, seed: int):
    if kind == "svgic":
        return datasets.make_instance(
            "timik", num_users=14 + seed, num_items=16, num_slots=3, seed=seed
        )
    if kind == "st":
        return datasets.make_st_instance(
            "timik", num_users=16 + seed, num_items=14, num_slots=3,
            max_subgroup_size=3, seed=seed,
        )
    if kind == "tight":  # M * m = n: greedy completion and make_room run
        return datasets.make_st_instance(
            "timik", num_users=12, num_items=4, num_slots=3, max_subgroup_size=3, seed=seed
        )
    if kind == "ties":
        return adversarial.indifferent_instance(6, 5, num_slots=2)
    return paper_example_instance()


@lru_cache(maxsize=None)
def _case(kind: str, seed: int, formulation: str):
    instance = _instance(kind, seed)
    prune = kind not in {"paper", "ties"}
    return instance, solve_lp_relaxation(instance, formulation=formulation, prune_items=prune)


def _assert_same_pass(instance, fractional, seed: int, advanced_sampling: bool) -> CSFStatistics:
    generator = np.random.default_rng(seed)
    expected_generator = np.random.default_rng(seed)
    config, stats = csf_rounding(
        instance, fractional, rng=generator, advanced_sampling=advanced_sampling
    )
    expected, expected_stats = reference_csf_rounding(
        instance, fractional, rng=expected_generator, advanced_sampling=advanced_sampling,
        size_limit=instance_size_limit(instance),
    )
    assert np.array_equal(config.assignment, expected.assignment)
    for stat in fields(CSFStatistics):
        assert getattr(stats, stat.name) == getattr(expected_stats, stat.name), stat.name
    assert generator.bit_generator.state == expected_generator.bit_generator.state
    return stats


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("advanced_sampling", [True, False], ids=["as", "uniform"])
@pytest.mark.parametrize("formulation", ["simplified", "sparse", "full"])
@pytest.mark.parametrize("kind,instance_seed", [("svgic", 0), ("svgic", 1), ("st", 0), ("st", 1)])
def test_matches_reference(kind, instance_seed, formulation, advanced_sampling, seed):
    instance, fractional = _case(kind, instance_seed, formulation)
    _assert_same_pass(instance, fractional, seed, advanced_sampling)


@pytest.mark.parametrize("kind", ["paper", "ties"])
@pytest.mark.parametrize("advanced_sampling", [True, False], ids=["as", "uniform"])
@pytest.mark.parametrize("formulation", ["simplified", "full"])
def test_matches_reference_on_paper_example_and_ties(kind, formulation, advanced_sampling):
    instance, fractional = _case(kind, 0, formulation)
    for seed in range(4):
        _assert_same_pass(instance, fractional, seed, advanced_sampling)


@pytest.mark.parametrize("formulation", ["simplified", "sparse", "full"])
def test_matches_reference_on_tight_caps(formulation):
    """``M * m = n``: the pass often ends in greedy completion with ``make_room``."""
    fallbacks = 0
    for instance_seed in range(3):
        instance, fractional = _case("tight", instance_seed, formulation)
        for seed in range(4):
            for advanced_sampling in (True, False):
                stats = _assert_same_pass(instance, fractional, seed, advanced_sampling)
                fallbacks += stats.fallback_assignments
    assert fallbacks > 0


@pytest.mark.parametrize("kind", ["svgic", "st", "ties"])
def test_repetitions_match_reference(kind):
    """``run_avg(repetitions=5)`` keeps the best of five oracle passes on one stream."""
    instance, fractional = _case(kind, 0, "simplified")
    generator = np.random.default_rng(9)
    result = run_avg(instance, fractional, rng=generator, repetitions=5)
    reference = np.random.default_rng(9)
    best, best_value, iterations = None, -np.inf, 0
    for _ in range(5):
        config, stats = reference_csf_rounding(
            instance, fractional, rng=reference, size_limit=instance_size_limit(instance)
        )
        iterations += stats.iterations
        value = total_utility(instance, config)
        if value > best_value:
            best, best_value = config, value
    assert np.array_equal(result.configuration.assignment, best.assignment)
    assert result.info["iterations"] == iterations
    assert generator.bit_generator.state == reference.bit_generator.state
