"""Tests for sweep plans, executors and LP reuse across a sweep's jobs."""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.core.pipeline import instance_fingerprint
from repro.core.registry import build_runners, runner_payloads
from repro.data import datasets
from repro.experiments.executor import (
    SerialExecutor,
    compile_grid,
    compile_sweep,
    resolve_worker_count,
    run_job,
)
from repro.experiments.figures import FixedInstanceFactory, InstanceSweepFactory
from repro.experiments.harness import grid, run_algorithms, run_plan, sweep
from repro.experiments.scheduler import WorkStealingExecutor
from repro.store import ArtifactStore


#: Module-level factories pickle under every multiprocessing start method.
SWEEP_FACTORY = InstanceSweepFactory(
    dataset="timik", vary="n", num_items=15, num_slots=2
)


class ConstantFactory:
    """Factory ignoring the repetition seed: every rep shares one instance."""

    def __call__(self, value, rep_seed):
        return datasets.make_instance(
            "timik", num_users=int(value), num_items=15, num_slots=2, seed=123
        )


class GridFactory:
    """2-D factory: value is an ``(n, k)`` pair."""

    def __call__(self, value, rep_seed):
        n, k = value
        return datasets.make_instance(
            "timik", num_users=int(n), num_items=15, num_slots=int(k), seed=rep_seed
        )


def _comparable_rows(result):
    """Row dicts without the wall-clock columns (never reproducible)."""
    return result.comparable_rows()


class TestPlanCompilation:
    def test_jobs_cover_values_times_repetitions(self):
        plan = compile_sweep(
            "p", "d", [5, 6, 7], SWEEP_FACTORY, build_runners(["PER"]),
            seed=0, repetitions=2,
        )
        assert len(plan) == 6
        assert [job.value for job in plan.jobs] == [5, 5, 6, 6, 7, 7]
        assert [job.index for job in plan.jobs] == list(range(6))
        assert plan.algorithm_names == ("PER",)

    def test_seed_derivation_matches_historical_sweep_loop(self):
        from repro.utils.rng import derive_seed

        plan = compile_sweep(
            "p", "d", [5], SWEEP_FACTORY, build_runners(["PER"]), seed=9, repetitions=2
        )
        assert plan.jobs[0].rep_seed == derive_seed(9, "p", str(5), 0)
        assert plan.jobs[1].rep_seed == derive_seed(9, "p", str(5), 1)

    def test_payloads_are_names_not_closures(self):
        payloads = runner_payloads(build_runners(["AVG"], {"AVG": {"repetitions": 2}}))
        assert payloads[0].registry_name == "AVG"
        assert payloads[0].overrides == {"repetitions": 2}
        assert payloads[0].runner is None

    def test_plan_is_picklable(self):
        import pickle

        plan = compile_sweep(
            "p", "d", [5], SWEEP_FACTORY, build_runners(["AVG", "PER"]), seed=0
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert [job.rep_seed for job in clone.jobs] == [
            job.rep_seed for job in plan.jobs
        ]

    def test_subset_and_describe(self):
        plan = compile_sweep(
            "p", "d", [5, 6], SWEEP_FACTORY, build_runners(["PER"]),
            seed=0, repetitions=2,
        )
        sliced = plan.subset([2, 3])
        assert [job.value for job in sliced.jobs] == [6, 6]
        assert sliced.values == [6]
        text = plan.describe()
        assert "4 job(s)" in text and "PER" in text

    def test_compile_rejects_bad_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            compile_sweep("p", "d", [5], SWEEP_FACTORY, {}, repetitions=0)

    def test_subset_of_non_prefix_values_still_produces_rows(self):
        """Regression: sliced plans keep original value indices; rows survive."""
        plan = compile_sweep(
            "p", "d", [5, 6, 7], SWEEP_FACTORY, build_runners(["PER"]),
            seed=0, repetitions=1,
        )
        last_only = plan.subset([2])  # value 7, original value_index 2
        result = run_plan(last_only)
        assert [row["x"] for row in result.rows] == [7]
        middle_and_last = plan.subset([1, 2])
        result = run_plan(middle_and_last)
        assert [row["x"] for row in result.rows] == [6, 7]
        # Subset metadata describes what is actually left, not the parent.
        assert middle_and_last.parameters["values"] == [6, 7]
        assert result.parameters["values"] == [6, 7]
        assert middle_and_last.parameters["subset_of_jobs"] == 3

    def test_subsets_compose(self):
        plan = compile_sweep(
            "p", "d", [5, 6, 7], SWEEP_FACTORY, build_runners(["PER"]),
            seed=0, repetitions=1,
        )
        nested = plan.subset([2]).subset([2])  # value 7, twice
        assert nested.values == [7]
        assert nested.parameters["values"] == [7]
        assert "1 job(s) over 1 value(s)" in nested.describe()
        result = run_plan(nested)
        assert [row["x"] for row in result.rows] == [7]

    def test_grid_subset_rebuilds_coordinate_metadata(self):
        plan = compile_grid(
            "g", "d", [4, 5], [2, 3], GridFactory(), build_runners(["PER"]),
            seed=0, x_label="n", y_label="k",
        )
        first_point = plan.subset([0])  # (4, 2) only
        assert first_point.parameters["x_values"] == [4]
        assert first_point.parameters["y_values"] == [2]
        text = first_point.describe()
        assert "n=4 k=2" in text


class TestSerialParallelEquivalence:
    def test_fig3_style_sweep_identical_tables(self):
        """Acceptance: WorkStealingExecutor(2) row table == SerialExecutor's."""
        algorithms = build_runners(["AVG", "PER", "GRF"])
        common = dict(seed=0, repetitions=2, x_label="n")
        serial = sweep(
            "equiv", "serial/parallel equivalence", [5, 6], SWEEP_FACTORY,
            algorithms, executor=SerialExecutor(), **common,
        )
        parallel = sweep(
            "equiv", "serial/parallel equivalence", [5, 6], SWEEP_FACTORY,
            algorithms, executor=WorkStealingExecutor(workers=2), **common,
        )
        assert _comparable_rows(serial) == _comparable_rows(parallel)
        # The parallel run really crossed process boundaries.
        import os

        pids = {p["pid"] for p in parallel.parameters["job_provenance"]}
        assert os.getpid() not in pids

    def test_single_worker_pool_matches_serial(self):
        algorithms = build_runners(["AVG-D"])
        serial = sweep("one", "d", [5], SWEEP_FACTORY, algorithms, seed=3)
        pooled = sweep(
            "one", "d", [5], SWEEP_FACTORY, algorithms, seed=3,
            executor=WorkStealingExecutor(workers=1),
        )
        assert _comparable_rows(serial) == _comparable_rows(pooled)

    def test_shared_instance_scan_stays_on_one_worker_with_one_lp_solve(self):
        """Jobs declaring one instance affinity run in one worker, one LP."""
        fixed = FixedInstanceFactory(
            dataset="timik", num_users=6, num_items=15, num_slots=2
        )
        args = ("scan", "d", [0.1, 0.2, 0.3], fixed, build_runners(["AVG-D", "PER"]))
        serial = sweep(*args, seed=0, repetitions=2)
        pooled = sweep(
            *args, seed=0, repetitions=2, executor=WorkStealingExecutor(workers=2)
        )
        assert _comparable_rows(serial) == _comparable_rows(pooled)
        provenance = pooled.parameters["job_provenance"]
        assert len(provenance) == 6
        pids = {p["pid"] for p in provenance}
        assert len(pids) == 1 and os.getpid() not in pids
        assert sum(p["lp_solves"] for p in provenance) == 1

    def test_run_algorithms_is_order_independent(self, small_timik_instance):
        """Satellite regression: results no longer depend on dict insertion order."""
        forward = build_runners(["AVG", "GRF", "PER"])
        backward = dict(reversed(list(build_runners(["AVG", "GRF", "PER"]).items())))
        assert list(forward) != list(backward)
        reports_fwd = run_algorithms(small_timik_instance, forward, seed=7)
        reports_bwd = run_algorithms(small_timik_instance, backward, seed=7)
        for name in forward:
            assert reports_fwd[name].total_utility == reports_bwd[name].total_utility
            np.testing.assert_array_equal(
                reports_fwd[name].regrets, reports_bwd[name].regrets
            )


class TestGrid:
    def test_grid_rows_carry_both_coordinates(self):
        result = grid(
            "g", "2-D sweep", [4, 5], [2, 3], GridFactory(), build_runners(["PER"]),
            seed=0, x_label="n", y_label="k",
        )
        assert len(result.rows) == 4
        assert {(row["n"], row["k"]) for row in result.rows} == {
            (4, 2), (4, 3), (5, 2), (5, 3),
        }
        assert all(row["x"] == row["n"] and row["y"] == row["k"] for row in result.rows)

    def test_grid_serial_parallel_equivalence(self):
        args = ("g", "d", [4, 5], [2, 3], GridFactory(), build_runners(["AVG"]))
        serial = grid(*args, seed=1)
        parallel = grid(*args, seed=1, executor=WorkStealingExecutor(workers=2))
        assert _comparable_rows(serial) == _comparable_rows(parallel)

    def test_compile_grid_enumerates_the_product(self):
        plan = compile_grid(
            "g", "d", [4, 5], [2, 3], GridFactory(), build_runners(["PER"]), seed=0
        )
        assert [job.value for job in plan.jobs] == [(4, 2), (4, 3), (5, 2), (5, 3)]


class TestLPReuse:
    def test_fingerprint_is_content_based(self):
        a = datasets.make_instance("timik", num_users=6, num_items=12, num_slots=2, seed=5)
        b = datasets.make_instance("timik", num_users=6, num_items=12, num_slots=2, seed=5)
        c = datasets.make_instance("timik", num_users=6, num_items=12, num_slots=2, seed=6)
        assert a is not b
        assert instance_fingerprint(a) == instance_fingerprint(b)
        assert instance_fingerprint(a) != instance_fingerprint(c)

    @pytest.mark.parametrize("backing", ["memory", "persistent"])
    def test_artifacts_reused_across_repetitions_sharing_an_instance(
        self, backing, tmp_path
    ):
        """Reps rebuilding an identical instance skip the LP solve entirely.

        The executor's in-memory LP store and a persistent store serve the
        reuse through the same ``load_lp``/``save_lp`` surface, so both
        backings report the same counters.
        """
        plan = compile_sweep(
            "shared", "d", [6], ConstantFactory(), build_runners(["AVG", "AVG-D"]),
            seed=0, repetitions=3,
        )
        if backing == "memory":
            executor = SerialExecutor()
        else:
            executor = SerialExecutor(store=ArtifactStore(tmp_path / "store"))
        results = executor.run(plan)
        counters = [
            (p["lp_solves"], p["lp_requests"], p["lp_hits"], p["lp_store_hits"])
            for p in (result.provenance for result in results)
        ]
        # AVG solves (or loads) the LP; AVG-D hits the same in-memory entry.
        assert counters == [(1, 2, 1, 0), (0, 2, 2, 2), (0, 2, 2, 2)]
        if backing == "memory":
            assert len(executor.artifact_store) == 1
        else:
            assert len(executor.artifact_store) == 0
            assert executor.store.index.count("lp") == 1

    def test_run_job_without_store_still_counts(self):
        plan = compile_sweep(
            "nostore", "d", [5], SWEEP_FACTORY, build_runners(["AVG"]), seed=0
        )
        result = run_job(plan.instance_factory, plan.jobs[0], None)
        assert result.provenance["lp_solves"] == 1
        assert result.provenance["lp_store_hits"] == 0


class TestLegacyRunners:
    def test_serial_executor_accepts_plain_callables(self):
        from repro.baselines.personalized import run_per

        def legacy(instance, rng=None):
            return run_per(instance)

        result = sweep("legacy", "d", [5], SWEEP_FACTORY, {"PER": legacy}, seed=0)
        assert len(result.rows) == 1
        assert result.rows[0]["algorithm"] == "PER"

    def test_parallel_executor_rejects_unpicklable_closures(self):
        from repro.baselines.personalized import run_per

        result_lambda = {"PER": lambda instance, rng=None: run_per(instance)}
        with pytest.raises(Exception):  # pickling error from the pool
            sweep(
                "legacy", "d", [5], SWEEP_FACTORY, result_lambda, seed=0,
                executor=WorkStealingExecutor(workers=1),
            )


class TestWorkerResolution:
    def test_oversubscription_clamps_with_a_warning(self):
        with pytest.warns(RuntimeWarning, match="clamping to 2"):
            assert resolve_worker_count(4, available=2) == 2

    def test_within_budget_is_untouched_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_worker_count(2, available=4) == 2

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError):
            resolve_worker_count(0)
        with pytest.raises(ValueError):
            resolve_worker_count(-3, available=8)

    def test_unknown_cpu_count_trusts_the_request(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_worker_count(16) == 16

    def test_affinity_mask_bounds_the_pool(self, monkeypatch):
        # One usable CPU on a multi-core host: the mask wins over cpu_count.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        with pytest.warns(RuntimeWarning, match="clamping to 1"):
            assert resolve_worker_count(2) == 1

    def test_a_wider_affinity_mask_keeps_the_request(self, monkeypatch):
        # cpu_count says 1, but the mask is what this process may use.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_worker_count(4) == 4

    def test_cpu_count_bounds_the_pool_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="clamping to 2"):
            assert resolve_worker_count(5) == 2

    def test_explicit_available_overrides_the_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_worker_count(4, available=8) == 4

    def test_work_stealing_executor_clamps_to_the_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with pytest.warns(RuntimeWarning, match="clamping to 1"):
            executor = WorkStealingExecutor(workers=2)
        assert executor.workers == 1

    def test_parallel_executor_clamps_on_construction(self):
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count() or 1
        with pytest.warns(RuntimeWarning):
            executor = WorkStealingExecutor(workers=cores + 1)
        assert executor.workers == cores


class TestServingPoolReuse:
    def test_service_worker_pid_is_stable_across_waves(self, tmp_path):
        """The serving pool spawns once; later batches reuse the same worker."""
        from repro.serving import SolverService

        instances = [
            datasets.make_instance(
                "timik", num_users=8, num_items=20, num_slots=3, seed=800 + i
            )
            for i in range(4)
        ]
        with SolverService(
            tmp_path / "store", workers=1, batch_window=0.0
        ) as service:
            first_wave = [service.solve(inst, timeout=60) for inst in instances[:2]]
            second_wave = [service.solve(inst, timeout=60) for inst in instances[2:]]
        pids = {serve.solver_pid for serve in first_wave + second_wave}
        assert len(pids) == 1
        assert os.getpid() not in pids
