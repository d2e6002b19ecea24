"""Community-sharded solving: partitioning, stitching, and boundary repair.

Covers the satellite guarantees of the sharding engine:

* the deterministic social-aware BFS ordering is stable across calls and
  seeds (seed-stability regression for ``balanced_prepartition``);
* shards always partition the user set and respect the size bound;
* the stitched configuration is always valid, and on SVGIC-ST the repaired
  configuration never violates the subgroup-size cap;
* repair never decreases total utility relative to the raw shard union when
  the union is already feasible (pure local-search path), and never
  decreases it relative to the post-eviction total otherwise;
* per-shard solves reuse LP artifacts through a shared persistent store;
* the batched cap eviction makes the moves of the per-member loop kept in
  ``tests/oracles/sharding_reference.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.sharding_reference import evict_overfull_reference
from repro.baselines.prepartition import balanced_prepartition, social_bfs_order
from repro.core.configuration import SAVGConfiguration, cell_counts
from repro.core.objective import DeltaEvaluator
from repro.core.problem import SVGICSTInstance
from repro.core.sharding import (
    _evict_overfull,
    boundary_users,
    community_shards,
    cut_pair_ids,
    solve_sharded,
    _shard_labels,
)
from repro.core.svgic_st import size_violation_report
from repro.data import datasets


@pytest.fixture(scope="module")
def medium_instance():
    return datasets.make_instance(
        "epinions", num_users=80, num_items=25, num_slots=3, seed=17
    )


@pytest.fixture(scope="module")
def medium_st_instance():
    return datasets.make_st_instance(
        "epinions",
        num_users=72,
        num_items=24,
        num_slots=3,
        seed=19,
        max_subgroup_size=6,
    )


# --------------------------------------------------------------------------- #
# Deterministic partitioning (satellite: seed stability)
# --------------------------------------------------------------------------- #
def test_social_bfs_order_is_seed_independent(medium_instance):
    order_a = social_bfs_order(medium_instance)
    order_b = social_bfs_order(medium_instance)
    assert order_a == order_b
    assert sorted(order_a) == list(range(medium_instance.num_users))


def test_balanced_prepartition_stable_across_seeds(medium_instance):
    parts = [
        balanced_prepartition(medium_instance, 20, rng=seed, social_aware=True)
        for seed in (None, 0, 1, 12345)
    ]
    for other in parts[1:]:
        assert other == parts[0]


def test_balanced_prepartition_random_path_still_seeded(medium_instance):
    a = balanced_prepartition(medium_instance, 20, rng=7, social_aware=False)
    b = balanced_prepartition(medium_instance, 20, rng=7, social_aware=False)
    c = balanced_prepartition(medium_instance, 20, rng=8, social_aware=False)
    assert a == b
    assert a != c


def test_community_shards_partition_and_bound(medium_instance):
    shards = community_shards(medium_instance, 24)
    labels = _shard_labels(medium_instance, shards)
    assert labels.min() >= 0
    sizes = [s.size for s in shards]
    assert sum(sizes) == medium_instance.num_users
    assert max(sizes) <= 24
    assert max(sizes) - min(sizes) <= 1


def test_cut_pairs_and_boundary(medium_instance):
    shards = community_shards(medium_instance, 24)
    labels = _shard_labels(medium_instance, shards)
    cut = cut_pair_ids(medium_instance, labels)
    boundary = boundary_users(medium_instance, labels)
    pairs = medium_instance.pairs
    for pid in cut:
        u, v = pairs[int(pid)]
        assert labels[u] != labels[v]
        assert u in boundary and v in boundary
    # Social-aware BFS blocks should leave most pairs intact.
    assert cut.size < pairs.shape[0]


# --------------------------------------------------------------------------- #
# Stitched validity and repair guarantees
# --------------------------------------------------------------------------- #
def test_sharded_solve_valid_and_monotone_svgic(medium_instance):
    result = solve_sharded(
        medium_instance, algorithm="AVG-D", max_shard_users=24, seed=3
    )
    assert result.configuration.is_valid(medium_instance)
    assert result.feasible
    assert result.evictions == 0  # no size cap on plain SVGIC
    # Union always feasible here, so repair is pure local search: monotone.
    assert result.total >= result.union_total - 1e-9


def test_sharded_solve_st_always_feasible(medium_st_instance):
    result = solve_sharded(
        medium_st_instance, algorithm="AVG-D", max_shard_users=18, seed=5
    )
    assert result.configuration.is_valid(medium_st_instance)
    report = size_violation_report(medium_st_instance, result.configuration)
    assert report.feasible
    assert result.feasible
    # Local search after eviction is monotone from the post-eviction state.
    assert result.total >= result.post_eviction_total - 1e-9


def test_sharded_solve_st_reports_raw_union_when_repair_off(medium_st_instance):
    raw = solve_sharded(
        medium_st_instance, algorithm="AVG-D", max_shard_users=18, seed=5, repair=False
    )
    repaired = solve_sharded(
        medium_st_instance, algorithm="AVG-D", max_shard_users=18, seed=5
    )
    assert raw.union_total == pytest.approx(repaired.union_total, abs=1e-9)
    assert raw.evictions == 0 and raw.repair_moves == 0
    # The raw union overfills subgroups (that is what repair exists for).
    if not raw.feasible:
        assert repaired.evictions > 0


def _assert_same_eviction(instance, configuration):
    fast = DeltaEvaluator(instance, configuration)
    reference = DeltaEvaluator(instance, configuration)
    moved, evictions = _evict_overfull(instance, fast)
    assert (moved, evictions) == evict_overfull_reference(instance, reference)
    np.testing.assert_array_equal(fast.assignment, reference.assignment)
    return moved, evictions, fast


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", [(45, 18, 3, 5), (40, 8, 3, 5)])
def test_eviction_matches_the_per_member_oracle(shape, seed):
    """Seeded SVGIC-ST shard unions; the second shape is tight (``M * m = n``),
    where the sweep budget may run out before every cell fits."""
    n, m, k, cap = shape
    instance = datasets.make_st_instance(
        "timik", num_users=n, num_items=m, num_slots=k, max_subgroup_size=cap, seed=seed
    )
    union = solve_sharded(instance, max_shard_users=12, seed=seed, repair=False).configuration
    assert (cell_counts(union.assignment, m) > cap).any()
    _moved, evictions, _evaluator = _assert_same_eviction(instance, union)
    assert evictions > 0


def test_eviction_reprobes_only_the_movers_friends():
    """A cell's members are probed once; after a move only the mover's friends are.

    Logs every ``probe_many`` call and move of the eviction on a seeded
    stitched state: each call probes either a whole overfull cell or
    members of the last mover's cell who are its friends, and there are
    fewer calls than moves.
    """
    instance = datasets.make_st_instance(
        "timik", num_users=45, num_items=18, num_slots=3, max_subgroup_size=5, seed=1
    )
    union = solve_sharded(instance, max_shard_users=12, seed=1, repair=False).configuration
    evaluator = DeltaEvaluator(instance, union)
    log = []
    probe_many, set_cell = evaluator.probe_many, evaluator.set_cell

    def logged_probe(units, candidates):
        users, slots = np.asarray(units).T
        item = evaluator.assignment[users[0], slots[0]]
        cell = np.flatnonzero(evaluator.assignment[:, slots[0]] == item)
        log.append(("probe", users, slots[0], item, cell))
        return probe_many(units, candidates)

    def logged_move(user, slot, item):
        log.append(("move", user, slot, evaluator.assignment[user, slot]))
        return set_cell(user, slot, item)

    evaluator.probe_many, evaluator.set_cell = logged_probe, logged_move
    moved, evictions = _evict_overfull(instance, evaluator)
    ptr, _, others = instance.pair_incidence
    probes = [event for event in log if event[0] == "probe"]
    last_move = None
    reprobes = 0
    for event in log:
        if event[0] == "move":
            last_move = event
            continue
        _, users, slot, item, cell = event
        if np.array_equal(users, cell):
            continue  # a cell's first probe
        _, mover, mover_slot, mover_item = last_move
        assert (slot, item) == (mover_slot, mover_item)
        assert np.isin(users, others[ptr[mover] : ptr[mover + 1]]).all()
        reprobes += 1
    assert reprobes > 0
    assert len(probes) < evictions == len(moved)
    reference = DeltaEvaluator(instance, union)
    assert (moved, evictions) == evict_overfull_reference(instance, reference)


def test_eviction_falls_back_to_the_least_loaded_item_like_the_oracle():
    """Every item outside users 0 and 1's rows is full at slot 0.

    Item 0 holds users 0-2 at slot 0 under a cap of 2.  Users 0 and 1 show
    item 3 at slot 1, so items 1 and 2, both full, are all they could take:
    each offers item 1, the first least-loaded, though it prefers item 2.
    Their offers tie exactly (same preferences, no friends), so the lower
    user moves; user 2's under-cap item 3 loses.
    """
    preference = np.array(
        [
            [0.5, 0.6, 0.9, 0.1],
            [0.5, 0.6, 0.9, 0.1],
            [0.5, 0.1, 0.2, 0.0],
            [0.3, 0.6, 0.5, 0.2],
            [0.3, 0.6, 0.2, 0.5],
            [0.2, 0.3, 0.7, 0.4],
            [0.2, 0.3, 0.6, 0.1],
            [0.1, 0.2, 0.3, 0.8],
        ]
    )
    edges = np.array([[2, 6], [6, 2], [3, 5], [5, 3], [4, 7], [7, 4]])
    instance = SVGICSTInstance(
        num_users=8,
        num_items=4,
        num_slots=2,
        social_weight=0.5,
        preference=preference,
        edges=edges,
        social=np.full((edges.shape[0], 4), 0.05),
        teleport_discount=0.5,
        max_subgroup_size=2,
    )
    union = SAVGConfiguration(
        assignment=np.array(
            [[0, 3], [0, 3], [0, 1], [1, 0], [1, 2], [2, 0], [2, 1], [3, 2]]
        ),
        num_items=4,
    )
    first = DeltaEvaluator(instance, union)
    assert _evict_overfull(instance, first, max_sweeps=1) == ([0], 1)
    assert first.assignment[0, 0] == 1
    moved, evictions, _evaluator = _assert_same_eviction(instance, union)
    assert moved[0] == 0 and evictions > 1


def test_sharded_solve_deterministic(medium_st_instance):
    a = solve_sharded(medium_st_instance, algorithm="AVG-D", max_shard_users=18, seed=9)
    b = solve_sharded(medium_st_instance, algorithm="AVG-D", max_shard_users=18, seed=9)
    assert np.array_equal(a.configuration.assignment, b.configuration.assignment)
    assert a.total == pytest.approx(b.total, abs=1e-12)


def test_sharded_solve_single_shard_matches_monolithic(medium_instance):
    from repro.core.registry import run_registered

    sharded = solve_sharded(
        medium_instance,
        algorithm="AVG-D",
        max_shard_users=medium_instance.num_users,
        seed=2,
        repair=False,
    )
    mono = run_registered("AVG-D", medium_instance)
    assert sharded.num_shards == 1
    assert sharded.union_total == pytest.approx(mono.breakdown.total, abs=1e-9)


def test_sharded_solve_reuses_store(tmp_path, medium_instance):
    from repro.store import ArtifactStore

    store = ArtifactStore(tmp_path)
    cold = solve_sharded(
        medium_instance, algorithm="AVG-D", max_shard_users=24, seed=4, store=store
    )
    warm = solve_sharded(
        medium_instance, algorithm="AVG-D", max_shard_users=24, seed=4, store=store
    )
    assert sum(s.lp_solves for s in cold.shards) > 0
    assert sum(s.lp_solves for s in warm.shards) == 0
    assert sum(s.lp_store_hits for s in warm.shards) > 0
    assert warm.total == pytest.approx(cold.total, abs=1e-9)


def test_sharded_solve_sparse_overrides(medium_instance):
    result = solve_sharded(
        medium_instance,
        algorithm="AVG-D",
        max_shard_users=24,
        seed=6,
        algorithm_overrides={"lp_formulation": "sparse", "prune_items": False},
    )
    assert result.configuration.is_valid(medium_instance)
    assert result.total >= result.union_total - 1e-9
    assert result.info["algorithm_overrides"]["lp_formulation"] == "sparse"


def test_shard_worker_is_picklable(medium_instance):
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.sharding import _shard_seed, _solve_shard_task

    sub, _ids = medium_instance.subgroup_instance(list(range(20)))
    payload = (0, sub, "AVG-D", {}, _shard_seed(1, 0), None)
    with ProcessPoolExecutor(max_workers=1) as pool:
        shard_id, assignment, stats = list(pool.map(_solve_shard_task, [payload]))[0]
    assert shard_id == 0
    assert assignment.shape == (20, medium_instance.num_slots)
    assert stats.local_total > 0


# --------------------------------------------------------------------------- #
# Worker-count hygiene and per-shard timing
# --------------------------------------------------------------------------- #
def test_sharded_solve_rejects_zero_workers(medium_instance):
    with pytest.raises(ValueError, match="workers"):
        solve_sharded(
            medium_instance, algorithm="AVG-D", max_shard_users=24, workers=0
        )


def test_sharded_solve_clamps_oversubscribed_workers(medium_instance):
    import os

    available = os.cpu_count() or 1
    with pytest.warns(RuntimeWarning, match="clamping"):
        result = solve_sharded(
            medium_instance,
            algorithm="AVG-D",
            max_shard_users=24,
            seed=3,
            workers=available + 7,
        )
    assert result.configuration.is_valid(medium_instance)
    assert result.info["workers"] <= available


def test_sharded_solve_clamps_to_the_affinity_mask(medium_instance, monkeypatch):
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with pytest.warns(RuntimeWarning, match="clamping to 1"):
        result = solve_sharded(
            medium_instance, algorithm="AVG-D", max_shard_users=24, seed=3, workers=2
        )
    assert result.configuration.is_valid(medium_instance)
    assert result.info["workers"] == 1


def test_sharded_solve_parallel_matches_serial(medium_instance):
    import warnings

    serial = solve_sharded(
        medium_instance, algorithm="AVG-D", max_shard_users=24, seed=3, workers=1
    )
    with warnings.catch_warnings():
        # On a 1-CPU host the width is clamped (with a RuntimeWarning); the
        # result must be identical either way.
        warnings.simplefilter("ignore", RuntimeWarning)
        parallel = solve_sharded(
            medium_instance, algorithm="AVG-D", max_shard_users=24, seed=3, workers=2
        )
    assert np.array_equal(
        serial.configuration.assignment, parallel.configuration.assignment
    )
    assert serial.total == pytest.approx(parallel.total, abs=1e-12)


def test_shard_solves_report_lp_seconds(medium_instance):
    result = solve_sharded(
        medium_instance, algorithm="AVG-D", max_shard_users=24, seed=3
    )
    assert all(s.lp_seconds >= 0.0 for s in result.shards)
    # A cold AVG-D shard solve runs the LP, so some time must be attributed.
    assert sum(s.lp_seconds for s in result.shards) > 0.0
