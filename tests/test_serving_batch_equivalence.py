"""Batched-vs-independent LP equivalence (the serving layer's core property).

A block-diagonal stacked solve over B instances must be indistinguishable —
objectives, fractional factors, decoded configurations, stored artifacts —
from B independent solves, for B = 1, homogeneous batches and mixed-size
batches alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lp import solve_lp_relaxation, solve_lp_relaxations_stacked
from repro.core.pipeline import SolveContext, instance_fingerprint, lp_cache_key
from repro.core.registry import run_registered
from repro.data import datasets
from repro.serving import LPParameters, SolverService
from repro.solvers.linprog import LinearProgram, solve_block_diagonal
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


class TestStackedProgramEquivalence:
    def test_block_diagonal_matches_independent_solves(self):
        """Random LPs: stacked objectives/values equal per-program solves."""
        rng = np.random.default_rng(11)
        programs = []
        for _ in range(4):
            n = int(rng.integers(3, 7))
            lp = LinearProgram(
                rng.uniform(0.1, 1.0, size=n), a_ub=np.ones((1, n)), b_ub=[float(n) / 2.0]
            )
            programs.append(lp)
        stacked = solve_block_diagonal(programs)
        for program, block_result in zip(programs, stacked):
            solo = program.solve()
            assert block_result.objective == pytest.approx(solo.objective, abs=TOL)
            assert block_result.values.shape == solo.values.shape

    def test_singleton_batch_is_exact(self, small_timik_instance):
        [stacked] = solve_lp_relaxations_stacked([small_timik_instance])
        solo = solve_lp_relaxation(small_timik_instance)
        assert stacked.objective == pytest.approx(solo.objective, abs=TOL)
        np.testing.assert_allclose(
            stacked.compact_factors, solo.compact_factors, atol=TOL
        )

    @pytest.mark.parametrize("step", [0, 1], ids=["same-size", "mixed-size"])
    def test_stacked_relaxations_match_independent(self, step):
        instances = make_batch(3, step=step)
        stacked = solve_lp_relaxations_stacked(instances)
        for instance, batched in zip(instances, stacked):
            solo = solve_lp_relaxation(instance)
            assert batched.objective == pytest.approx(solo.objective, abs=TOL)
            np.testing.assert_allclose(
                batched.compact_factors, solo.compact_factors, atol=TOL
            )
            np.testing.assert_allclose(
                batched.slot_factors, solo.slot_factors, atol=TOL
            )
            np.testing.assert_array_equal(
                batched.candidate_item_ids, solo.candidate_item_ids
            )

    def test_empty_batch_returns_empty(self):
        assert solve_lp_relaxations_stacked([]) == []

    def test_amortized_seconds_sum_to_one_solve(self):
        instances = make_batch(3)
        stacked = solve_lp_relaxations_stacked(instances)
        shares = [solution.lp_seconds for solution in stacked]
        assert len(set(shares)) == 1  # equal amortized shares
        assert all(share >= 0 for share in shares)


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
                solo = solve_lp_relaxation(instance)
                assert stored.objective == pytest.approx(solo.objective, abs=TOL)

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
