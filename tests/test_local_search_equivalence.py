"""LocalSearchImprover pinned to the apply/revert reference improver.

The production improver scores pairwise exchanges in closed form, a batch
per NumPy pass; the reference in ``tests/oracles`` probes each exchange by
applying and reverting cells.  Both visit candidates in the same order and
accept the same moves, so the final configuration, the move count and the
pass count must be identical — in the default mode, restricted to a user
subset with a capped item list (the sharding repair), in place on a dynamic
session with live subgroup counts (the churn repair), and from partial rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.local_search_reference import ReferenceLocalSearchImprover
from repro.core.avg_d import run_avg_d
from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.pipeline import LocalSearchImprover
from repro.data import datasets
from repro.extensions.dynamic import DynamicSession

SEEDS = range(4)


def _instance(kind: str, seed: int):
    if kind == "st":
        return datasets.make_st_instance(
            "timik",
            num_users=12,
            num_items=20,
            num_slots=3,
            max_subgroup_size=3,
            teleport_discount=0.5,
            seed=seed,
        )
    return datasets.make_instance(
        "timik", num_users=12, num_items=20, num_slots=3, seed=seed
    )


def _starts(instance, seed: int):
    """The AVG-D output and a random duplicate-free configuration."""
    rng = np.random.default_rng(seed)
    random_rows = np.stack(
        [
            rng.permutation(instance.num_items)[: instance.num_slots]
            for _ in range(instance.num_users)
        ]
    )
    return [
        run_avg_d(instance).configuration,
        SAVGConfiguration(assignment=random_rows, num_items=instance.num_items),
    ]


def _assert_same_search(fast, reference):
    np.testing.assert_array_equal(
        fast.configuration.assignment, reference.configuration.assignment
    )
    assert fast.info["moves"] == reference.info["moves"]
    assert fast.info["passes"] == reference.info["passes"]


@pytest.mark.parametrize("kind", ["svgic", "st"])
@pytest.mark.parametrize("seed", SEEDS)
class TestMatchesReference:
    def test_default_mode(self, kind, seed):
        instance = _instance(kind, seed)
        for config in _starts(instance, seed):
            _assert_same_search(
                LocalSearchImprover().apply(instance, config),
                ReferenceLocalSearchImprover().apply(instance, config),
            )

    def test_user_subset_over_sparse_pairs(self, kind, seed):
        instance = _instance(kind, seed)
        users = np.random.default_rng(seed).choice(
            instance.num_users, size=instance.num_users // 2, replace=False
        )
        params = dict(max_passes=3, users=users, max_items=12)
        for config in _starts(instance, seed):
            _assert_same_search(
                LocalSearchImprover(**params).apply(instance, config),
                ReferenceLocalSearchImprover(**params).apply(instance, config),
            )

    def test_in_place_on_a_dynamic_session(self, kind, seed):
        instance = _instance(kind, seed)
        active = np.random.default_rng(seed).random(instance.num_users) < 0.75
        users = np.flatnonzero(active)
        for config in _starts(instance, seed):
            fast = DynamicSession(instance, config, active=active)
            reference = DynamicSession(instance, config, active=active)
            params = dict(max_passes=3, users=users, max_items=6)
            fast_info = fast.apply_improver(LocalSearchImprover(**params))
            reference_info = reference.apply_improver(ReferenceLocalSearchImprover(**params))
            np.testing.assert_array_equal(
                fast.evaluator.assignment, reference.evaluator.assignment
            )
            np.testing.assert_array_equal(fast.counts, reference.counts)
            assert fast_info["moves"] == reference_info["moves"]
            assert fast_info["passes"] == reference_info["passes"]

    def test_partial_rows(self, kind, seed):
        # Cleared cells outside the searched subset stay unassigned through
        # every exchange phase; those inside are refilled by single-cell
        # moves.  A short candidate list leaves more gain to the exchanges.
        instance = _instance(kind, seed)
        rng = np.random.default_rng(seed)
        users = np.flatnonzero(rng.random(instance.num_users) < 0.6)
        for config in _starts(instance, seed):
            partial = config.copy()
            partial.assignment[rng.random(partial.assignment.shape) < 0.3] = UNASSIGNED
            for params in ({"max_items": 6}, {"max_items": 6, "users": users}):
                _assert_same_search(
                    LocalSearchImprover(**params).apply(instance, partial),
                    ReferenceLocalSearchImprover(**params).apply(instance, partial),
                )
