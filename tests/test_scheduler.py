"""Tests for the cost-model-aware work-stealing sweep scheduler.

Covers the acceptance properties of :mod:`repro.experiments.scheduler`:
cost-model estimates monotone in instance size on every calibration path
(analytic cold start, rescaled-analytic, fitted power law); LPT affinity
grouping (heaviest group first, repetitions split into separately claimable
groups, fixed-instance factories collapsing to one group); and the
:class:`WorkStealingExecutor` reproducing the serial table exactly — one LP
solve per instance under stealing, checkpoint resume after a mid-sweep
kill, and observed timings recorded into the store for the next schedule.
"""

from __future__ import annotations

import pytest

from repro.core.registry import build_runners
from repro.experiments.executor import (
    SerialExecutor,
    compile_sweep,
    job_timing_signature,
    plan_signature,
)
from repro.experiments.figures import FixedInstanceFactory, InstanceSweepFactory
from repro.experiments.harness import run_plan
from repro.experiments.scheduler import (
    CostModel,
    JobFeatures,
    WorkStealingExecutor,
    affinity_key,
    job_features,
    payload_cost_profile,
    schedule_groups,
)
from repro.store import ArtifactStore

SWEEP_FACTORY = InstanceSweepFactory(
    dataset="timik", vary="n", num_items=15, num_slots=2
)


def _make_plan(values=(5, 8), repetitions=2, algorithms=("AVG-D", "PER"), seed=0):
    return compile_sweep(
        "sched-test", "d", list(values), SWEEP_FACTORY,
        build_runners(list(algorithms)), seed=seed, repetitions=repetitions,
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _features(signature, n, m=15, k=2, profiles=((8.0, 1.2),)):
    return JobFeatures(signature=signature, n=n, m=m, k=k, profiles=profiles)


class TestCostModel:
    def test_analytic_estimates_monotone_in_n(self):
        model = CostModel()
        estimates = [model.estimate(_features("cold", n)) for n in (4, 16, 64, 256)]
        assert estimates == sorted(estimates)
        assert estimates[0] < estimates[-1]

    def test_registry_tags_drive_the_analytic_profile(self):
        # exact >> LP rounding >> untagged baseline, at identical sizes.
        ip = payload_cost_profile("IP")
        avg_d = payload_cost_profile("AVG-D")
        per = payload_cost_profile("PER")
        model = CostModel()
        costs = [
            model.estimate(_features("p", 50, profiles=(profile,)))
            for profile in (ip, avg_d, per)
        ]
        assert costs[0] > costs[1] > costs[2]

    def test_power_law_fit_is_monotone_and_reported(self):
        rows = [
            ("sig", n, 15, 2, seconds, 0.0, 1)
            for n, seconds in ((5, 0.02), (10, 0.09), (20, 0.4), (40, 1.7))
        ]
        model = CostModel(rows, min_samples=3)
        assert model.calibration("sig")["kind"] == "power-law"
        estimates = [model.estimate(_features("sig", n)) for n in (5, 10, 20, 40, 80)]
        assert estimates == sorted(estimates)
        # Calibrated predictions pass through the observed magnitude range.
        assert 0.005 < estimates[0] < 0.1
        assert estimates[3] > 0.5

    def test_few_samples_rescale_the_analytic_curve(self):
        # Two rows at one size: not fittable, but the magnitude is adopted.
        rows = [("sig", 10, 15, 2, 4.0, 0.0, 1), ("sig", 10, 15, 2, 4.0, 0.0, 1)]
        model = CostModel(rows)
        assert model.calibration("sig")["kind"] == "rescaled-analytic"
        at_observed = model.estimate(_features("sig", 10))
        assert at_observed == pytest.approx(4.0, rel=0.5)
        # Monotone shape survives the rescale.
        assert model.estimate(_features("sig", 40)) > at_observed

    def test_cold_signature_falls_back_to_analytic(self):
        rows = [("other", 10, 15, 2, 4.0, 0.0, 1)]
        model = CostModel(rows)
        assert model.calibration("never-seen")["kind"] == "analytic"
        assert model.estimate(_features("never-seen", 10)) == pytest.approx(
            CostModel().estimate(_features("never-seen", 10))
        )

    def test_from_store_trains_on_recorded_timings(self, store):
        store.record_timing("sig", 10, 15, 2, 1.5)
        model = CostModel.from_store(store)
        assert model.calibrated_signatures == ["sig"]
        assert CostModel.from_store(None).calibrated_signatures == []
        assert CostModel.from_store({}).calibrated_signatures == []

    def test_min_samples_validation(self):
        with pytest.raises(ValueError, match="min_samples"):
            CostModel(min_samples=1)

    def test_job_features_resolve_dimensions_from_the_plan(self):
        plan = _make_plan(values=(5, 8))
        features = job_features(plan, plan.jobs[0])
        assert (features.n, features.m, features.k) == (5, 15, 2)
        assert features.signature == job_timing_signature(plan.jobs[0])


class TestScheduleGroups:
    def test_heaviest_group_first(self):
        plan = _make_plan(values=(5, 20), repetitions=1)
        groups = schedule_groups(plan)
        assert [group.jobs[0].value for group in groups] == [20, 5]
        assert groups[0].estimated_cost >= groups[-1].estimated_cost

    def test_repetitions_become_separate_groups(self):
        # Distinct rep seeds build distinct instances, so every rep is its
        # own claimable group — the lever the chunked executor lacks.
        plan = _make_plan(values=(5, 8), repetitions=2)
        groups = schedule_groups(plan)
        assert len(groups) == len(plan.jobs)
        assert all(len(group) == 1 for group in groups)

    def test_fixed_instance_factory_collapses_into_one_group(self):
        fixed = FixedInstanceFactory(dataset="timik", num_users=6, num_items=15, num_slots=2)
        plan = compile_sweep(
            "fixed", "d", [0.1, 0.2, 0.3], fixed,
            build_runners(["AVG-D"]), seed=0, repetitions=2,
        )
        groups = schedule_groups(plan)
        assert len(groups) == 1
        assert len(groups[0]) == len(plan.jobs)
        assert affinity_key(plan, plan.jobs[0])[0] == "factory"

    def test_groups_keep_plan_order_inside(self):
        fixed = FixedInstanceFactory(dataset="timik", num_users=6, num_items=15, num_slots=2)
        plan = compile_sweep(
            "fixed", "d", [0.1, 0.2], fixed,
            build_runners(["AVG-D"]), seed=0, repetitions=2,
        )
        (group,) = schedule_groups(plan)
        assert [job.index for job in group.jobs] == list(range(len(plan.jobs)))

    def test_calibrated_model_reorders_the_schedule(self):
        plan = _make_plan(values=(5, 8), repetitions=1)
        signature = job_timing_signature(plan.jobs[0])
        # History claiming the *small* value is slower flips the LPT order.
        rows = [
            (signature, 5, 15, 2, 9.0, 0.0, 1),
            (signature, 5, 15, 2, 9.1, 0.0, 1),
            (signature, 8, 15, 2, 0.01, 0.0, 1),
        ]
        groups = schedule_groups(plan, cost_model=CostModel(rows, min_samples=3))
        assert groups[0].jobs[0].value == 5


class TestWorkStealingExecutor:
    def test_rejects_invalid_worker_counts(self):
        with pytest.raises(ValueError, match="workers"):
            WorkStealingExecutor(workers=0)

    def test_matches_serial_table_with_one_lp_solve_per_job(self):
        plan = _make_plan()
        baseline = run_plan(plan, SerialExecutor())
        executor = WorkStealingExecutor(workers=2)
        stolen = run_plan(plan, executor)
        assert stolen.comparable_rows() == baseline.comparable_rows()
        assert executor.jobs_executed == len(plan)
        for provenance in stolen.parameters["job_provenance"]:
            assert provenance["lp_solves"] == 1
            assert provenance["job_seconds"] >= 0.0
            assert provenance["lp_seconds"] >= 0.0

    def test_run_returns_results_in_job_index_order(self):
        plan = _make_plan(values=(5, 8, 11), repetitions=1)
        results = WorkStealingExecutor(workers=2).run(plan)
        assert [result.job_index for result in results] == list(range(len(plan)))

    def test_last_schedule_exposes_the_lpt_order(self):
        plan = _make_plan(values=(5, 20), repetitions=1)
        executor = WorkStealingExecutor(workers=2)
        executor.run(plan)
        assert executor.last_schedule
        costs = [group.estimated_cost for group in executor.last_schedule]
        assert costs == sorted(costs, reverse=True)

    def test_full_rerun_resumes_every_job(self, store):
        plan = _make_plan()
        baseline = run_plan(plan, SerialExecutor())
        run_plan(plan, WorkStealingExecutor(workers=2, store=store))

        resumed_executor = WorkStealingExecutor(workers=2, store=store)
        resumed = run_plan(plan, resumed_executor)
        assert resumed_executor.jobs_resumed == len(plan)
        assert resumed_executor.jobs_executed == 0
        assert resumed.comparable_rows() == baseline.comparable_rows()

    def test_killed_run_completes_only_unfinished_jobs(self, store):
        """Acceptance: a run that died mid-sweep leaves a strict prefix of
        checkpoints; re-running with the same store resumes them instead of
        re-solving.  The interrupted run is reproduced deterministically by
        executing a subset plan to completion (subset plans share checkpoint
        keys with their parent), not by racing a live worker with
        ``stream.close()`` — with fast jobs the worker can drain the whole
        queue before the close lands, which made this test flaky."""
        plan = _make_plan(values=(5, 6, 7, 8), repetitions=1, algorithms=("PER",))
        baseline = run_plan(plan, SerialExecutor())

        interrupted = WorkStealingExecutor(workers=1, store=store)
        run_plan(plan.subset([job.index for job in plan.jobs[:2]]), interrupted)
        checkpointed = len(store.job_indices(plan_signature(plan)))
        assert 1 <= checkpointed < len(plan)

        finisher = WorkStealingExecutor(workers=2, store=store)
        finished = run_plan(plan, finisher)
        assert finisher.jobs_resumed == checkpointed
        assert finisher.jobs_resumed + finisher.jobs_executed == len(plan)
        assert finished.comparable_rows() == baseline.comparable_rows()

    def test_store_backed_run_records_timings(self, store):
        plan = _make_plan()
        run_plan(plan, WorkStealingExecutor(workers=2, store=store))
        rows = store.load_timings()
        assert rows, "no timings recorded by the store-backed run"
        signature = job_timing_signature(plan.jobs[0])
        assert signature in store.timing_signatures()
        # The next executor's default model trains on exactly this history.
        assert CostModel.from_store(store).calibrated_signatures

    def test_serial_store_run_also_records_timings(self, store):
        plan = _make_plan(values=(5,), repetitions=1)
        run_plan(plan, SerialExecutor(store=store))
        assert store.load_timings()

    def test_explicit_cost_model_wins_over_store(self, store):
        model = CostModel()
        executor = WorkStealingExecutor(workers=1, cost_model=model, store=store)
        assert executor._resolve_model() is model
