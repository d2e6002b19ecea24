"""Tests for streaming sweep progress: aggregation, ETA, rendering, harness hook.

Covers :mod:`repro.experiments.progress`: incremental tables that converge
to the :func:`run_plan` output row for row, per-sweep-value completion
counts, the size-weighted ETA (None before data, positive mid-sweep, zero
at the end), and the ``progress=`` callback threading through
:func:`run_plan` / :func:`sweep` / :func:`grid`.
"""

from __future__ import annotations

import pytest

from repro.core.registry import build_runners
from repro.experiments.executor import JobResult, SerialExecutor, compile_sweep
from repro.experiments.figures import InstanceSweepFactory
from repro.experiments.harness import grid, run_plan, sweep
from repro.experiments.progress import ProgressAggregator
from repro.experiments.scheduler import WorkStealingExecutor

SWEEP_FACTORY = InstanceSweepFactory(
    dataset="timik", vary="n", num_items=15, num_slots=2
)


def _make_plan(values=(5, 8), repetitions=2, algorithms=("AVG-D", "PER"), seed=0):
    return compile_sweep(
        "progress-test", "d", list(values), SWEEP_FACTORY,
        build_runners(list(algorithms)), seed=seed, repetitions=repetitions,
    )


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestProgressAggregator:
    def test_counts_and_value_completion(self):
        plan = _make_plan()
        results = SerialExecutor().run(plan)
        agg = ProgressAggregator(plan)
        assert (agg.completed, agg.total, agg.done) == (0, len(plan), False)
        assert agg.value_completion() == [(5, 0, 2), (8, 0, 2)]

        for result in results[:2]:  # both reps of the first value
            agg.update(result)
        assert agg.completed == 2 and not agg.done
        assert agg.value_completion() == [(5, 2, 2), (8, 0, 2)]

        for result in results[2:]:
            agg(result)  # calling the aggregator is update()
        assert agg.done
        assert agg.value_completion() == [(5, 2, 2), (8, 2, 2)]

    def test_duplicates_and_unknown_indices_are_ignored(self):
        plan = _make_plan(values=(5,), repetitions=1, algorithms=("PER",))
        (result,) = SerialExecutor().run(plan)
        agg = ProgressAggregator(plan)
        agg.update(result)
        agg.update(result)  # duplicate
        agg.update(JobResult(job_index=99, reports={}))  # not in this plan
        assert agg.completed == 1

    def test_partial_table_covers_only_finished_points(self):
        plan = _make_plan()
        results = SerialExecutor().run(plan)
        agg = ProgressAggregator(plan)
        agg.update(results[0])  # one of two reps at value 5
        partial = agg.result()
        assert {row["x"] for row in partial.rows} == {5}
        assert all(row["repetitions"] == 1 for row in partial.rows)
        assert partial.parameters["progress"] == {
            "completed_jobs": 1,
            "total_jobs": len(plan),
        }

    def test_final_table_matches_run_plan(self):
        plan = _make_plan()
        agg = ProgressAggregator(plan)
        full = run_plan(plan, SerialExecutor(), progress=agg)
        assert agg.done
        assert agg.result().comparable_rows() == full.comparable_rows()

    def test_track_is_a_recording_passthrough(self):
        plan = _make_plan(values=(5, 8), repetitions=1, algorithms=("PER",))
        agg = ProgressAggregator(plan)
        yielded = list(agg.track(SerialExecutor().iter_run(plan)))
        assert len(yielded) == len(plan)
        assert agg.done

    def test_eta_lifecycle(self):
        plan = _make_plan(values=(5, 8), repetitions=1, algorithms=("PER",))
        results = SerialExecutor().run(plan)
        clock = FakeClock()
        agg = ProgressAggregator(plan, clock=clock)
        assert agg.eta_seconds() is None  # no data yet

        clock.now = 2.0
        agg.update(results[0])
        eta = agg.eta_seconds()
        assert eta is not None and eta > 0.0

        clock.now = 3.0
        agg.update(results[1])
        assert agg.eta_seconds() == 0.0
        # Elapsed freezes once the last job arrived.
        clock.now = 50.0
        assert agg.elapsed == 3.0

    def test_eta_weights_remaining_jobs_by_cost(self):
        # Two jobs left: one at n=5, one at n=40.  After the small one
        # finishes, the size-weighted ETA must exceed the naive
        # equal-weight extrapolation (elapsed * remaining / completed).
        plan = _make_plan(values=(5, 40), repetitions=1, algorithms=("PER",))
        results = SerialExecutor().run(plan)
        clock = FakeClock()
        agg = ProgressAggregator(plan, clock=clock)
        clock.now = 1.0
        agg.update(results[0])
        assert agg.eta_seconds() > 1.0

    def test_eta_is_the_pending_size_at_the_observed_rate(self):
        # Sizes n*m*k: 5*15*2 = 150 and 10*15*2 = 300.
        plan = _make_plan(values=(5, 10), repetitions=1, algorithms=("PER",))
        clock = FakeClock()
        small_first = ProgressAggregator(plan, clock=clock)
        clock.now = 1.0
        small_first.update(JobResult(job_index=0, reports={}))
        # 1 s for 150 units leaves 300 units: 2 s.
        assert small_first.eta_seconds() == pytest.approx(2.0)

        clock = FakeClock()
        big_first = ProgressAggregator(plan, clock=clock)
        clock.now = 3.0
        big_first.update(JobResult(job_index=1, reports={}))
        # 3 s for 300 units leaves 150 units: 1.5 s.
        assert big_first.eta_seconds() == pytest.approx(1.5)

    def test_equal_sizes_give_the_equal_weight_eta(self):
        # A dataset sweep: every job has one size, so the ETA is
        # elapsed * remaining / completed.
        factory = InstanceSweepFactory(
            dataset="timik", vary="dataset", num_users=6, num_items=15, num_slots=2
        )
        plan = compile_sweep(
            "progress-test", "d", ["timik", "epinions", "yelp"], factory,
            build_runners(["PER"]),
        )
        clock = FakeClock()
        agg = ProgressAggregator(plan, clock=clock)
        clock.now = 2.0
        agg.update(JobResult(job_index=0, reports={}))
        assert agg.eta_seconds() == pytest.approx(4.0)

    def test_render_mentions_progress_and_values(self):
        plan = _make_plan()
        results = SerialExecutor().run(plan)
        agg = ProgressAggregator(plan)
        for result in results[:2]:
            agg.update(result)
        text = agg.render()
        assert "2/4 jobs" in text
        assert "5" in text and "8" in text


class TestHarnessProgressPassthrough:
    def test_run_plan_invokes_callback_once_per_job(self):
        plan = _make_plan()
        seen = []
        run_plan(plan, SerialExecutor(), progress=seen.append)
        assert len(seen) == len(plan)
        assert {result.job_index for result in seen} == set(range(len(plan)))
        assert all(isinstance(result, JobResult) for result in seen)

    def test_default_executor_also_streams_progress(self):
        plan = _make_plan(values=(5,), repetitions=1, algorithms=("PER",))
        seen = []
        run_plan(plan, progress=seen.append)
        assert len(seen) == 1

    def test_sweep_and_grid_pass_progress_through(self):
        algorithms = build_runners(["PER"])
        seen = []
        sweep(
            "progress-sweep", "d", [5, 8], SWEEP_FACTORY, algorithms,
            seed=0, repetitions=2, progress=seen.append,
        )
        assert len(seen) == 4

        class GridFactory:
            def __call__(self, value, rep_seed):
                from repro.data import datasets

                n, k = value
                return datasets.make_instance(
                    "timik", num_users=int(n), num_items=15,
                    num_slots=int(k), seed=rep_seed,
                )

        seen = []
        grid(
            "progress-grid", "d", [5, 6], [2], GridFactory(), algorithms,
            seed=0, progress=seen.append,
        )
        assert len(seen) == 2

    def test_progress_with_work_stealing_executor(self):
        plan = _make_plan(values=(5, 8), repetitions=1, algorithms=("PER",))
        agg = ProgressAggregator(plan)
        result = run_plan(plan, WorkStealingExecutor(workers=2), progress=agg)
        assert agg.done
        assert agg.result().comparable_rows() == result.comparable_rows()

    def test_executor_without_iter_run_still_reports(self):
        class BatchOnly:
            store = None

            def run(self, plan):
                return SerialExecutor().run(plan)

        plan = _make_plan(values=(5,), repetitions=1, algorithms=("PER",))
        seen = []
        run_plan(plan, BatchOnly(), progress=seen.append)
        assert len(seen) == 1
