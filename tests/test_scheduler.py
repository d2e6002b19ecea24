"""Tests for the size-ordered work-stealing sweep scheduler.

Covers the acceptance properties of :mod:`repro.experiments.scheduler`:
job sizes predicted from the plan without building instances; LPT affinity
grouping (largest group first, equal sizes in plan order, repetitions split
into separately claimable groups, fixed-instance factories collapsing to one
group); and the :class:`WorkStealingExecutor` reproducing the serial table
exactly — one LP solve per instance under stealing, checkpoint resume after
an interrupted sweep, and a worker killed mid-sweep failing the run at once
and leaving checkpoints a re-run resumes.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.registry import build_runners
from repro.experiments.executor import (
    SerialExecutor,
    compile_grid,
    compile_sweep,
    plan_signature,
)
from repro.experiments.figures import FixedInstanceFactory, InstanceSweepFactory
from repro.experiments.harness import run_plan
from repro.experiments.scheduler import (
    WorkStealingExecutor,
    affinity_key,
    job_size,
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


@dataclass(frozen=True)
class KillOnFirstBuild:
    """Sweep factory whose process SIGKILLs itself the first time it builds ``value``.

    Creating ``marker`` is atomic, so exactly one build dies; every later
    build, in any process, is normal.
    """

    marker: str
    value: int

    def __call__(self, value, rep_seed):
        if value == self.value:
            try:
                open(self.marker, "x").close()
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return SWEEP_FACTORY(value, rep_seed)


def _never_built(value, rep_seed):
    raise AssertionError("sizing or scheduling a plan built an instance")


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestJobSize:
    """Sizes come from the plan alone: columns, then ``vary``, then base fields."""

    @pytest.mark.parametrize("vary", ["n", "m", "k"])
    def test_size_scales_with_the_swept_dimension(self, vary):
        factory = InstanceSweepFactory(
            dataset="timik", vary=vary, num_users=6, num_items=15, num_slots=2
        )
        plan = compile_sweep("size", "d", [2, 3, 5, 9], factory, build_runners(["PER"]))
        fixed = {"n": 6, "m": 15, "k": 2}
        fixed.pop(vary)
        (a, b) = fixed.values()
        assert [job_size(plan, job) for job in plan.jobs] == [
            value * a * b for value in (2, 3, 5, 9)
        ]

    def test_grid_columns_name_two_dimensions(self):
        plan = compile_grid(
            "grid", "d", [4, 8], [10, 20], _never_built,
            build_runners(["PER"]), x_label="n", y_label="m",
        )
        assert [job_size(plan, job) for job in plan.jobs] == [
            4 * 10 * 3, 4 * 20 * 3, 8 * 10 * 3, 8 * 20 * 3,
        ]

    def test_a_labelled_column_wins_over_base_fields(self):
        fixed = FixedInstanceFactory(dataset="timik", num_users=6, num_items=15, num_slots=2)
        plan = compile_sweep("col", "d", [40], fixed, build_runners(["PER"]), x_label="n")
        assert job_size(plan, plan.jobs[0]) == 40 * 15 * 2

    def test_a_numeric_value_with_no_hint_is_taken_as_n(self):
        plan = compile_sweep("bare", "d", [2, 7], _never_built, build_runners(["PER"]))
        assert [job_size(plan, job) for job in plan.jobs] == [2 * 32 * 3, 7 * 32 * 3]

    def test_unnamed_dimensions_take_the_defaults(self):
        plan = compile_sweep(
            "ds", "d", ["timik", "yelp"], _never_built, build_runners(["PER"])
        )
        assert [job_size(plan, job) for job in plan.jobs] == [64 * 32 * 3] * 2

    def test_bools_are_not_dimensions(self):
        plan = compile_sweep(
            "flag", "d", [True, False], _never_built, build_runners(["PER"]), x_label="n"
        )
        assert [job_size(plan, job) for job in plan.jobs] == [64 * 32 * 3] * 2

    def test_numpy_scalar_values_are_dimensions(self):
        plan = compile_sweep(
            "np", "d", np.array([5, 8]), SWEEP_FACTORY, build_runners(["PER"])
        )
        assert [job_size(plan, job) for job in plan.jobs] == [5 * 15 * 2, 8 * 15 * 2]

    def test_size_is_at_least_one(self):
        # The ETA divides by the finished jobs' summed size, so no job
        # may weigh zero, even at a degenerate dimension.
        factory = InstanceSweepFactory(
            dataset="timik", vary="k", num_users=6, num_items=15, num_slots=2
        )
        plan = compile_sweep("zero", "d", [0, -1], factory, build_runners(["PER"]))
        assert [job_size(plan, job) for job in plan.jobs] == [6 * 15, 6 * 15]

    def test_scheduling_builds_no_instance(self):
        plan = compile_sweep(
            "lazy", "d", [5, 8], _never_built, build_runners(["PER"]),
            x_label="n", repetitions=2,
        )
        assert [group.jobs[0].value for group in schedule_groups(plan)] == [8, 8, 5, 5]


class TestScheduleGroups:
    def test_heaviest_group_first(self):
        cases = [
            ("n", [5, 20], [20, 5]),
            ("m", [10, 30, 20], [30, 20, 10]),
            ("k", [2, 4, 3], [4, 3, 2]),
            # Equal sizes keep plan order.
            ("dataset", ["timik", "epinions", "yelp"], ["timik", "epinions", "yelp"]),
        ]
        for vary, values, expected in cases:
            factory = InstanceSweepFactory(
                dataset="timik", vary=vary, num_users=6, num_items=15, num_slots=2
            )
            plan = compile_sweep(
                "sched-test", "d", values, factory,
                build_runners(["AVG-D", "PER"]), seed=0,
            )
            groups = schedule_groups(plan)
            assert [group.jobs[0].value for group in groups] == expected, vary
            sizes = [group.size for group in groups]
            assert sizes == sorted(sizes, reverse=True)

    def test_job_size_resolves_dimensions_from_the_plan(self):
        # The factory's vary hint binds the value; base fields fill the rest.
        plan = _make_plan(values=(5, 8))
        assert job_size(plan, plan.jobs[0]) == 5 * 15 * 2
        # A labelled sweep column wins; unnamed dimensions take the defaults.
        bare = compile_sweep(
            "bare", "d", [7], lambda value, rep_seed: None,
            build_runners(["PER"]), x_label="n",
        )
        assert job_size(bare, bare.jobs[0]) == 7 * 32 * 3
        fixed = compile_sweep(
            "fixed", "d", [0.1],
            FixedInstanceFactory(dataset="timik", num_users=6, num_items=15, num_slots=2),
            build_runners(["PER"]),
        )
        assert job_size(fixed, fixed.jobs[0]) == 6 * 15 * 2

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

    def test_group_size_is_the_sum_of_its_jobs(self):
        fixed = FixedInstanceFactory(dataset="timik", num_users=6, num_items=15, num_slots=2)
        plan = compile_sweep(
            "fixed", "d", [0.1, 0.2, 0.3], fixed,
            build_runners(["AVG-D"]), seed=0, repetitions=2,
        )
        (group,) = schedule_groups(plan)
        assert group.size == len(plan.jobs) * 6 * 15 * 2

    def test_equal_sizes_keep_first_job_order(self):
        # Each value's two repetitions tie on size, so they keep plan order.
        plan = _make_plan(values=(5, 8), repetitions=2)
        groups = schedule_groups(plan)
        assert [group.jobs[0].index for group in groups] == [2, 3, 0, 1]

    def test_only_the_given_jobs_are_scheduled(self):
        plan = _make_plan(values=(5, 8, 11), repetitions=1)
        groups = schedule_groups(plan, plan.jobs[:2])
        assert [group.jobs[0].index for group in groups] == [1, 0]
        assert schedule_groups(plan, []) == []


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
            assert provenance["seconds"] >= 0.0
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
        sizes = [group.size for group in executor.last_schedule]
        assert sizes == sorted(sizes, reverse=True)

    def test_full_rerun_resumes_every_job(self, store):
        plan = _make_plan()
        baseline = run_plan(plan, SerialExecutor())
        run_plan(plan, WorkStealingExecutor(workers=2, store=store))

        resumed_executor = WorkStealingExecutor(workers=2, store=store)
        resumed = run_plan(plan, resumed_executor)
        assert resumed_executor.jobs_resumed == len(plan)
        assert resumed_executor.jobs_executed == 0
        assert resumed.comparable_rows() == baseline.comparable_rows()

    def test_resumed_jobs_are_not_scheduled(self, store):
        plan = _make_plan(values=(5, 8), repetitions=1)
        run_plan(plan.subset([0]), WorkStealingExecutor(workers=1, store=store))

        executor = WorkStealingExecutor(workers=2, store=store)
        executor.run(plan)
        assert executor.jobs_resumed == 1
        scheduled = [job.index for group in executor.last_schedule for job in group.jobs]
        assert scheduled == [1]

        executor.run(plan)
        assert executor.jobs_resumed == len(plan)
        assert executor.last_schedule == []

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

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_dead_worker_fails_the_run_and_a_rerun_resumes(self, store, tmp_path):
        values = (5, 6, 7, 8)
        baseline = run_plan(_make_plan(values=values), SerialExecutor())
        # Same name, values and seed as the baseline's plan, so the same
        # instances; n=5 is the smallest value, so its groups are claimed last.
        plan = compile_sweep(
            "sched-test", "d", list(values),
            KillOnFirstBuild(str(tmp_path / "killed"), 5),
            build_runners(["AVG-D", "PER"]), seed=0, repetitions=2,
        )

        crashed = WorkStealingExecutor(workers=2, store=store)
        started = time.perf_counter()
        with pytest.raises(BrokenProcessPool):
            run_plan(plan, crashed)
        assert time.perf_counter() - started < 30.0
        assert crashed.last_schedule[-1].jobs[0].value == 5
        checkpointed = len(store.job_indices(plan_signature(plan)))
        assert 1 <= checkpointed < len(plan)

        rerun = WorkStealingExecutor(workers=2, store=store)
        finished = run_plan(plan, rerun)
        assert rerun.jobs_resumed == checkpointed
        assert rerun.jobs_executed == len(plan) - checkpointed
        assert finished.comparable_rows() == baseline.comparable_rows()
