"""LocalSearchImprover pinned to the apply/revert reference improver.

The production improver scores pairwise exchanges in closed form, a batch
per NumPy pass; the reference in ``tests/oracles`` probes each exchange by
applying and reverting cells.  Both visit candidates in the same order and
accept the same moves, so the final configuration, the move count and the
pass count must be identical — in the default mode, restricted to a user
subset with a capped item list (the sharding repair), in place on a dynamic
session with live subgroup counts (the churn repair), and from partial rows.

The single-cell phase re-scores only the units its don't-look worklist
marked dirty, so every case also runs with ``pairwise=False`` (single-cell
moves alone, as the churn repair runs), and a tight SVGIC-ST shape
(``M * m = n``) makes moves fill and free subgroup caps.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.local_search_reference import ReferenceLocalSearchImprover
from repro.core.avg_d import run_avg_d
from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.pipeline import LocalSearchImprover
from repro.core.problem import SVGICSTInstance
from repro.data import datasets
from repro.extensions.dynamic import DynamicSession

SEEDS = range(4)


def _instance(kind: str, seed: int):
    if kind in ("st", "st-tight"):
        tight = kind == "st-tight"
        return datasets.make_st_instance(
            "timik",
            num_users=12,
            num_items=4 if tight else 20,
            num_slots=3,
            max_subgroup_size=3,
            teleport_discount=0.5,
            seed=seed,
        )
    return datasets.make_instance(
        "timik", num_users=12, num_items=20, num_slots=3, seed=seed
    )


def _starts(instance, seed: int):
    """The AVG-D output and a random duplicate-free configuration.

    On a tight instance the random rows are dealt so that every
    ``(item, slot)`` subgroup is exactly full.
    """
    rng = np.random.default_rng(seed)
    n, m, k = instance.num_users, instance.num_items, instance.num_slots
    if getattr(instance, "max_subgroup_size", n) * m == n:
        random_rows = (rng.permutation(n)[:, None] + np.arange(k)) % m
    else:
        random_rows = np.stack([rng.permutation(m)[:k] for _ in range(n)])
    return [
        run_avg_d(instance).configuration,
        SAVGConfiguration(assignment=random_rows, num_items=m),
    ]


def _assert_same_search(fast, reference):
    np.testing.assert_array_equal(
        fast.configuration.assignment, reference.configuration.assignment
    )
    assert fast.info["moves"] == reference.info["moves"]
    assert fast.info["passes"] == reference.info["passes"]


#: (instance kind, pairwise): the default search, then single-cell moves
#: alone; "st-tight" has ``M * m = n``.
CASES = [
    pytest.param(kind, pairwise, id=kind if pairwise else f"{kind}-single-cell")
    for pairwise in (True, False)
    for kind in ("svgic", "st", "st-tight")
]


@pytest.mark.parametrize("kind, pairwise", CASES)
@pytest.mark.parametrize("seed", SEEDS)
class TestMatchesReference:
    def test_default_mode(self, kind, seed, pairwise):
        instance = _instance(kind, seed)
        for config in _starts(instance, seed):
            _assert_same_search(
                LocalSearchImprover(pairwise=pairwise).apply(instance, config),
                ReferenceLocalSearchImprover(pairwise=pairwise).apply(instance, config),
            )

    def test_user_subset_over_sparse_pairs(self, kind, seed, pairwise):
        instance = _instance(kind, seed)
        users = np.random.default_rng(seed).choice(
            instance.num_users, size=instance.num_users // 2, replace=False
        )
        params = dict(max_passes=3, users=users, max_items=12, pairwise=pairwise)
        for config in _starts(instance, seed):
            _assert_same_search(
                LocalSearchImprover(**params).apply(instance, config),
                ReferenceLocalSearchImprover(**params).apply(instance, config),
            )

    def test_in_place_on_a_dynamic_session(self, kind, seed, pairwise):
        instance = _instance(kind, seed)
        active = np.random.default_rng(seed).random(instance.num_users) < 0.75
        users = np.flatnonzero(active)
        for config in _starts(instance, seed):
            fast = DynamicSession(instance, config, active=active)
            reference = DynamicSession(instance, config, active=active)
            params = dict(max_passes=3, users=users, max_items=6, pairwise=pairwise)
            fast_info = fast.apply_improver(LocalSearchImprover(**params))
            reference_info = reference.apply_improver(ReferenceLocalSearchImprover(**params))
            np.testing.assert_array_equal(
                fast.evaluator.assignment, reference.evaluator.assignment
            )
            np.testing.assert_array_equal(fast.counts, reference.counts)
            assert fast_info["moves"] == reference_info["moves"]
            assert fast_info["passes"] == reference_info["passes"]

    def test_partial_rows(self, kind, seed, pairwise):
        # Cleared cells outside the searched subset stay unassigned through
        # every exchange phase; those inside are refilled by single-cell
        # moves.  A short candidate list leaves more gain to the exchanges.
        instance = _instance(kind, seed)
        rng = np.random.default_rng(seed)
        users = np.flatnonzero(rng.random(instance.num_users) < 0.6)
        for config in _starts(instance, seed):
            partial = config.copy()
            partial.assignment[rng.random(partial.assignment.shape) < 0.3] = UNASSIGNED
            for params in (
                {"max_items": 6, "pairwise": pairwise},
                {"max_items": 6, "users": users, "pairwise": pairwise},
            ):
                _assert_same_search(
                    LocalSearchImprover(**params).apply(instance, partial),
                    ReferenceLocalSearchImprover(**params).apply(instance, partial),
                )


def test_a_freed_subgroup_wakes_an_earlier_clean_unit():
    """A count freed from the cap must re-open a unit the scan already passed.

    One slot, items 0-2, cap 2.  Item 0 is full, so user 0 (scored first,
    clean) keeps item 1.  User 2 then leaves item 0 for item 1, freeing a
    place: the reference's second pass moves user 0 to item 0.  Nothing else
    touches user 0 — no friend wrote a cell and its row is unchanged — so
    only the freed-count wake puts it back on the worklist.
    """
    preference = np.array(
        [
            [1.0, 0.5, 0.1],  # user 0 wants the full item 0
            [0.9, 0.1, 0.2],
            [0.2, 0.9, 0.1],  # user 2 leaves item 0
            [0.1, 0.2, 0.9],
        ]
    )
    instance = SVGICSTInstance(
        num_users=4,
        num_items=3,
        num_slots=1,
        social_weight=0.5,
        preference=preference,
        edges=np.array([[1, 3], [3, 1]]),
        social=np.full((2, 3), 0.05),
        teleport_discount=0.5,
        max_subgroup_size=2,
    )
    config = SAVGConfiguration(assignment=np.array([[1], [0], [0], [2]]), num_items=3)
    fast = LocalSearchImprover(pairwise=False).apply(instance, config)
    reference = ReferenceLocalSearchImprover(pairwise=False).apply(instance, config)
    _assert_same_search(fast, reference)
    np.testing.assert_array_equal(reference.configuration.assignment[:, 0], [0, 0, 1, 2])
    assert reference.info["moves"] == 2 and reference.info["passes"] == 3
