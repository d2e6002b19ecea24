"""Batched-vs-independent LP equivalence (the serving layer's core property).

A batch solve over B instances must be indistinguishable — objectives,
fractional factors, decoded configurations, stored artifacts — from B
independent solves, bit for bit, for B = 1, homogeneous batches and
mixed-size batches alike: every batch member is its own HiGHS solve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lp import solve_lp_relaxation, solve_lp_relaxations_stacked
from repro.core.pipeline import SolveContext, instance_fingerprint, lp_cache_key
from repro.core.registry import run_registered
from repro.data import datasets
from repro.serving import LPParameters, SolverService
from repro.solvers import linprog as linprog_module
from repro.store import ArtifactStore
from repro.utils.rng import derive_seed

TOL = 1e-9


def make_batch(count: int, *, base_users: int = 8, base_items: int = 20, step: int = 0):
    """``count`` seeded instances; ``step`` > 0 varies the sizes per member."""
    return [
        datasets.make_instance(
            "timik",
            num_users=base_users + step * index,
            num_items=base_items + 2 * step * index,
            num_slots=3,
            seed=500 + index,
        )
        for index in range(count)
    ]


def make_capped_batch():
    """Two SVGIC-ST instances whose cap binds: M * k = 9 < n."""
    return [
        datasets.make_st_instance(
            "timik", num_users=n, num_items=20, num_slots=3,
            max_subgroup_size=3, seed=600 + n,
        )
        for n in (10, 12)
    ]


def assert_same_solution(batched, solo):
    """``batched`` is ``solo`` bit for bit (solve times aside)."""
    assert batched.objective == solo.objective
    assert np.array_equal(batched.compact_factors, solo.compact_factors)
    assert np.array_equal(batched.slot_factors, solo.slot_factors)
    assert np.array_equal(batched.candidate_item_ids, solo.candidate_item_ids)


class TestStackedProgramEquivalence:
    def test_singleton_batch_is_exact(self, small_timik_instance):
        [stacked] = solve_lp_relaxations_stacked([small_timik_instance])
        assert_same_solution(stacked, solve_lp_relaxation(small_timik_instance))

    @pytest.mark.parametrize("step", [0, 1], ids=["same-size", "mixed-size"])
    def test_stacked_relaxations_match_independent(self, step):
        instances = make_batch(3, step=step)
        stacked = solve_lp_relaxations_stacked(instances)
        for instance, batched in zip(instances, stacked):
            assert_same_solution(batched, solve_lp_relaxation(instance))

    @pytest.mark.parametrize(
        "formulation, capped",
        [("simplified", False), ("sparse", False), ("full", False),
         ("simplified", True), ("sparse", True), ("full", True)],
        ids=["simplified", "sparse", "full",
             "st-capped-simplified", "st-capped-sparse", "st-capped-full"],
    )
    def test_every_formulation_matches_independent(self, formulation, capped):
        instances = make_capped_batch() if capped else make_batch(2, step=2)
        stacked = solve_lp_relaxations_stacked(instances, formulation=formulation)
        assert len(stacked) == len(instances)
        for instance, batched in zip(instances, stacked):
            assert_same_solution(
                batched, solve_lp_relaxation(instance, formulation=formulation)
            )

    @pytest.mark.parametrize(
        "settings",
        [dict(max_candidate_items=10), dict(prune_items=False),
         dict(enforce_size_constraint=False)],
        ids=["max-candidates", "unpruned", "no-size-cap"],
    )
    def test_settings_reach_every_member(self, settings):
        instances = make_capped_batch()
        stacked = solve_lp_relaxations_stacked(instances, **settings)
        changed = []
        for instance, batched in zip(instances, stacked):
            tuned = solve_lp_relaxation(instance, **settings)
            assert_same_solution(batched, tuned)
            default = solve_lp_relaxation(instance)
            changed.append(
                tuned.objective != default.objective
                or not np.array_equal(tuned.candidate_item_ids, default.candidate_item_ids)
            )
        assert all(changed)  # the setting moves every member's solve

    def test_member_independent_of_batch_order(self):
        instances = make_batch(3, step=1)
        forward = solve_lp_relaxations_stacked(instances)
        backward = solve_lp_relaxations_stacked(instances[::-1])
        for batched, reordered in zip(forward, reversed(backward)):
            assert_same_solution(batched, reordered)

    def test_empty_batch_returns_empty(self):
        assert solve_lp_relaxations_stacked([]) == []

    def test_unknown_formulation_rejected_on_an_empty_batch(self):
        with pytest.raises(ValueError, match="unknown formulation"):
            solve_lp_relaxations_stacked([], formulation="dense")

    def test_one_solve_per_instance(self, monkeypatch):
        """Each member is its own HiGHS call over its own program's columns."""
        instances = make_batch(3, step=1)
        columns = []
        solve = linprog_module.linprog

        def counting_linprog(**kwargs):
            columns.append(len(kwargs["c"]))
            return solve(**kwargs)

        monkeypatch.setattr(linprog_module, "linprog", counting_linprog)
        stacked = solve_lp_relaxations_stacked(instances)
        batched, columns[:] = list(columns), []
        for instance in instances:
            solve_lp_relaxation(instance)
        assert len(batched) == len(instances) and batched == columns
        assert all(solution.lp_seconds > 0 for solution in stacked)


class TestServedBatchEquivalence:
    def test_batched_service_matches_independent_decodes(self, tmp_path):
        """Objectives AND configurations match a solo run, request by request."""
        instances = make_batch(3, step=1)
        reference = {}
        for index, instance in enumerate(instances):
            result = run_registered(
                "AVG-D",
                instance,
                context=SolveContext(instance),
                rng=derive_seed(index, "AVG-D"),
            )
            reference[index] = result

        with SolverService(
            tmp_path / "store", batch_window=0.2, max_batch_size=len(instances)
        ) as service:
            tickets = [
                service.submit(instance, algorithm="AVG-D", seed=index)
                for index, instance in enumerate(instances)
            ]
            served = [ticket.result(timeout=60) for ticket in tickets]

        assert {r.batch_id for r in served} == {served[0].batch_id}
        assert all(r.batch_size == len(instances) for r in served)
        for index, serve in enumerate(served):
            solo = reference[index]
            assert serve.objective == pytest.approx(solo.objective, abs=TOL)
            np.testing.assert_array_equal(
                serve.result.configuration.assignment,
                solo.configuration.assignment,
            )

    def test_batch_artifacts_stored_under_own_fingerprints(self, tmp_path):
        """Each batch member's LP lands in the store under its own fingerprint."""
        instances = make_batch(3, step=1)
        key = LPParameters().cache_key()
        assert key == lp_cache_key()
        with SolverService(
            tmp_path / "store", batch_window=0.2, max_batch_size=len(instances)
        ) as service:
            tickets = [service.submit(instance) for instance in instances]
            served = [ticket.result(timeout=60) for ticket in tickets]
            store = service.store
            for instance, serve in zip(instances, served):
                fingerprint = instance_fingerprint(instance)
                assert serve.fingerprint == fingerprint
                stored = store.load_lp(fingerprint, key)
                assert stored is not None
                assert stored.objective == solve_lp_relaxation(instance).objective

    def test_solve_seconds_are_each_members_own(self, tmp_path):
        """A co-batched miss reports its own LP's solve time, as stored."""
        instances = make_batch(3, step=1)
        key = LPParameters().cache_key()
        with SolverService(
            tmp_path / "store", batch_window=0.2, max_batch_size=len(instances)
        ) as service:
            tickets = [service.submit(instance) for instance in instances]
            served = [ticket.result(timeout=60) for ticket in tickets]
            stored = [service.store.load_lp(serve.fingerprint, key) for serve in served]
        assert all(serve.batch_size == len(instances) for serve in served)
        for serve, solution in zip(served, stored):
            assert not serve.cache_hit
            assert serve.solve_seconds == solution.lp_seconds > 0

    def test_served_singleton_matches_solo(self, small_timik_instance, tmp_path):
        solo = run_registered(
            "AVG-D",
            small_timik_instance,
            context=SolveContext(small_timik_instance),
            rng=derive_seed(3, "AVG-D"),
        )
        with SolverService(tmp_path / "store", batch_window=0.0) as service:
            serve = service.solve(small_timik_instance, seed=3, timeout=60)
        assert serve.batch_size == 1
        assert serve.objective == pytest.approx(solo.objective, abs=TOL)
        np.testing.assert_array_equal(
            serve.result.configuration.assignment, solo.configuration.assignment
        )
