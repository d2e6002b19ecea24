"""Equivalence tests for AVG-D's prefix sweeps and its batched rounder.

The per-cell rounder lives on as a test oracle
(``tests/oracles/avg_d_reference.py``): its vectorized ``_scan_prefixes`` is
pinned to the scalar per-member ``_scan_prefixes_reference`` over random
instances, mid-run rounder states, tie-heavy fractional solutions and both
sampling modes.  The production rounder
(:class:`repro.core.avg_d._DeterministicRounder`) rescans only the cells a
move touched, in one batched pass, and is pinned to the oracle's exact
per-iteration choices: the same ``f``, item, slot and members, the same
running ``opt_cur``, and the same final assignment.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from oracles.avg_d_reference import ReferenceDeterministicRounder
from repro.core.avg_d import _DeterministicRounder, run_avg_d
from repro.core.lp import solve_lp_relaxation
from repro.data import datasets


def _compare_all_candidates(
    rounder: ReferenceDeterministicRounder, atol: float = 1e-9
) -> int:
    """Compare vectorized vs scalar sweeps for every (item, slot); return #compared."""
    compared = 0
    for item in rounder.candidate_items:
        for slot in range(rounder.instance.num_slots):
            if (item, slot) in rounder.locked_cells:
                continue
            capacity = rounder.cell_capacity(item, slot)
            if capacity <= 0:
                continue
            ranked = rounder.ranked_users(item, slot)
            if not ranked:
                continue
            fast = rounder._scan_prefixes(item, slot, ranked, capacity)
            slow = rounder._scan_prefixes_reference(item, slot, ranked, capacity)
            if slow is None:
                assert fast is None
                continue
            assert fast is not None
            assert fast[0] == pytest.approx(slow[0], abs=atol)
            assert fast[1] == slow[1] and fast[2] == slow[2]
            assert fast[3] == slow[3], (item, slot)
            compared += 1
    return compared


def _uniform_instance():
    """Uniform preferences and social weights: maximal utility-factor ties."""
    n, m, k = 6, 8, 2
    instance = datasets.make_instance("timik", num_users=n, num_items=m, num_slots=k, seed=0)
    return replace(
        instance,
        preference=np.full((n, m), 0.5),
        social=np.full((instance.num_edges, m), 0.25),
    )


@pytest.mark.parametrize("seed", range(6))
def test_equivalence_on_random_instances(seed):
    instance = datasets.make_instance(
        "timik",
        num_users=int(6 + seed),
        num_items=int(12 + 2 * seed),
        num_slots=3,
        seed=seed,
    )
    fractional = solve_lp_relaxation(instance)
    rounder = ReferenceDeterministicRounder(
        instance, fractional, 0.25 + 0.25 * (seed % 3), True
    )
    assert _compare_all_candidates(rounder) > 0


def test_equivalence_mid_run_states(small_timik_instance):
    """The sweeps must agree in every intermediate state of a full AVG-D run."""
    fractional = solve_lp_relaxation(small_timik_instance)
    rounder = ReferenceDeterministicRounder(small_timik_instance, fractional, 1.0, True)
    steps = 0
    while rounder.remaining_units > 0 and steps < 12:
        _compare_all_candidates(rounder)
        candidate = rounder.best_candidate()
        if candidate is None:
            break
        _, item, slot, members = candidate
        rounder.execute(item, slot, members)
        steps += 1


def test_equivalence_without_advanced_sampling(paper_instance):
    fractional = solve_lp_relaxation(paper_instance, prune_items=False)
    rounder = ReferenceDeterministicRounder(paper_instance, fractional, 0.7, False)
    assert _compare_all_candidates(rounder) > 0


def test_equivalence_with_ties():
    """Uniform preferences produce maximal utility-factor ties (tie-block logic)."""
    uniform = _uniform_instance()
    fractional = solve_lp_relaxation(uniform, prune_items=False)
    rounder = ReferenceDeterministicRounder(uniform, fractional, 0.25, True)
    assert _compare_all_candidates(rounder) > 0


def test_equivalence_on_st_instance(small_st_instance):
    fractional = solve_lp_relaxation(small_st_instance)
    rounder = ReferenceDeterministicRounder(small_st_instance, fractional, 0.5, True)
    # Execute a move so some cells carry partial counts against the cap.
    candidate = rounder.best_candidate()
    assert candidate is not None
    _, item, slot, members = candidate
    rounder.execute(item, slot, members)
    assert _compare_all_candidates(rounder) > 0


def test_full_runs_unchanged_by_vectorization(small_timik_instance):
    """End-to-end AVG-D output equals a run of the per-cell reference rounder."""
    fractional = solve_lp_relaxation(small_timik_instance)
    fast = run_avg_d(small_timik_instance, fractional, balancing_ratio=1.0)
    slow = ReferenceDeterministicRounder(small_timik_instance, fractional, 1.0, True).run()
    assert np.array_equal(fast.configuration.assignment, slow.assignment)


# --------------------------------------------------------------------------- #
# The batched rounder against the per-cell oracle, iteration by iteration
# --------------------------------------------------------------------------- #
def _assert_same_choices(instance, fractional, ratio, advanced_sampling) -> int:
    """Step both rounders in lockstep; return the number of iterations compared."""
    batched = _DeterministicRounder(instance, fractional, ratio, advanced_sampling)
    reference = ReferenceDeterministicRounder(instance, fractional, ratio, advanced_sampling)
    assert batched.opt_cur == reference.opt_cur
    iterations = 0
    while reference.remaining_units > 0:
        expected = reference.best_candidate()
        chosen = batched.best_candidate()
        if expected is None:
            assert chosen is None
            break
        assert chosen == expected, iterations
        batched.execute(*chosen[1:])
        reference.execute(*expected[1:])
        assert batched.opt_cur == reference.opt_cur, iterations
        assert batched.remaining_units == reference.remaining_units
        iterations += 1
    assert np.array_equal(batched.run().assignment, reference.run().assignment)
    return iterations


@lru_cache(maxsize=None)
def _instance_and_fractional(kind: str, seed: int, formulation: str):
    if kind == "svgic":
        instance = datasets.make_instance(
            "timik", num_users=14 + seed, num_items=16, num_slots=3, seed=seed
        )
    else:
        instance = datasets.make_st_instance(
            "timik", num_users=16 + seed, num_items=14, num_slots=3,
            max_subgroup_size=3, seed=seed,
        )
    return instance, solve_lp_relaxation(instance, formulation=formulation)


@pytest.mark.parametrize("ratio", [0.25, 1.0])
@pytest.mark.parametrize("advanced_sampling", [True, False], ids=["as", "no-as"])
@pytest.mark.parametrize("formulation", ["simplified", "sparse", "full"])
@pytest.mark.parametrize("kind,seed", [("svgic", 0), ("svgic", 1), ("st", 0), ("st", 1)])
def test_batched_rounder_matches_reference(kind, seed, formulation, advanced_sampling, ratio):
    instance, fractional = _instance_and_fractional(kind, seed, formulation)
    assert _assert_same_choices(instance, fractional, ratio, advanced_sampling) > 0


@pytest.mark.parametrize("ratio", [0.25, 1.0])
def test_batched_rounder_matches_reference_with_ties(ratio):
    uniform = _uniform_instance()
    fractional = solve_lp_relaxation(uniform, prune_items=False)
    assert _assert_same_choices(uniform, fractional, ratio, True) > 0


def test_batched_rounder_matches_reference_from_capped_mid_run(small_st_instance):
    """Both rounders continue identically from a state with partial cell counts."""
    fractional = solve_lp_relaxation(small_st_instance)
    batched = _DeterministicRounder(small_st_instance, fractional, 0.5, True)
    reference = ReferenceDeterministicRounder(small_st_instance, fractional, 0.5, True)
    first = reference.best_candidate()
    assert first is not None
    _, item, slot, members = first
    batched.execute(item, slot, members)
    reference.execute(item, slot, members)
    assert batched.counts[item, slot] == reference.cell_counts[(item, slot)] > 0
    while reference.remaining_units > 0:
        expected = reference.best_candidate()
        if expected is None:
            break
        assert batched.best_candidate() == expected
        batched.execute(*expected[1:])
        reference.execute(*expected[1:])
        assert batched.opt_cur == reference.opt_cur
    assert np.array_equal(batched.run().assignment, reference.run().assignment)
    assert batched.config.max_subgroup_size() <= small_st_instance.max_subgroup_size
