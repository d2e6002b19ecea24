"""Smoke/integration tests for the experiment harness and every figure experiment."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.avg_d import run_avg_d
from repro.core.pipeline import SolveContext, lp_cache_key
from repro.core.result import AlgorithmResult
from repro.data import datasets
from repro.experiments import figures
from repro.experiments.case_study import describe_case_study
from repro.experiments.harness import ExperimentResult, default_algorithms, run_algorithms, sweep


class TestHarness:
    def test_default_algorithm_lineup(self):
        algorithms = default_algorithms()
        assert set(algorithms) == {"AVG", "AVG-D", "PER", "FMG", "SDP", "GRF"}
        assert "IP" in default_algorithms(include_ip=True)

    def test_run_algorithms_returns_reports(self, small_timik_instance):
        reports = run_algorithms(
            small_timik_instance, default_algorithms(), seed=0
        )
        assert set(reports) == {"AVG", "AVG-D", "PER", "FMG", "SDP", "GRF"}
        for report in reports.values():
            assert report.total_utility > 0

    def test_rows_are_charged_for_a_shared_lp_solve(self, small_timik_instance):
        # Every row that used the line-up's one LP reports that solve's
        # seconds, whichever runner happened to pay for it.
        context = SolveContext(small_timik_instance)
        solution = replace(context.fractional(), lp_seconds=5.0)
        context.install_lp_solution(lp_cache_key(), solution)
        reports = run_algorithms(
            small_timik_instance, default_algorithms(), seed=0, context=context
        )
        assert reports["AVG"].seconds >= 5.0
        assert reports["AVG-D"].seconds >= 5.0
        assert reports["PER"].seconds < 5.0

    def test_sweep_produces_rows_per_value_and_algorithm(self):
        algorithms = {"PER": lambda instance, rng=None: __import__("repro").run_per(instance)}

        def factory(value, seed):
            return datasets.make_instance(
                "timik", num_users=value, num_items=15, num_slots=2, seed=seed
            )

        result = sweep("demo", "demo sweep", [5, 7], factory, algorithms, seed=0)
        assert len(result.rows) == 2
        assert result.column("x") == [5, 7]

    def test_experiment_result_helpers(self):
        result = ExperimentResult("t", "test")
        result.add_row(algorithm="A", x=1, total_utility=2.0)
        result.add_row(algorithm="B", x=1, total_utility=3.0)
        assert result.best_algorithm() == "B"
        assert result.filter(algorithm="A")[0]["total_utility"] == 2.0
        pivot = result.pivot("algorithm", "x", "total_utility")
        assert pivot["B"][1] == 3.0
        text = result.to_text()
        assert "t" in text and "A" in text

    def test_best_algorithm_raises_on_empty(self):
        with pytest.raises(ValueError):
            ExperimentResult("t", "test").best_algorithm()


class TestFigureExperiments:
    """Each figure experiment runs end-to-end at a tiny scale and keeps the paper's shape."""

    def test_figure3(self):
        result = figures.figure3_small_datasets(
            "n", values=[5], base_items=12, base_slots=2, include_ip=True, ip_time_limit=10
        )
        algorithms = {row["algorithm"] for row in result.rows}
        assert {"AVG", "AVG-D", "IP", "PER"} <= algorithms
        ip_rows = result.filter(algorithm="IP")
        avg_rows = result.filter(algorithm="AVG")
        assert avg_rows[0]["total_utility"] <= ip_rows[0]["total_utility"] + 1e-6

    def test_figure4(self):
        result = figures.figure4_lambda(lambdas=(0.5,), num_users=6, num_items=12, num_slots=2)
        for row in result.rows:
            assert 0.0 <= row["normalized_utility"] <= 1.0 + 1e-9

    def test_figure5(self):
        result = figures.figure5_large_users(values=(10,), num_items=25, num_slots=3)
        best = result.best_algorithm(at={"x": 10})
        assert best in {"AVG", "AVG-D"}

    def test_figure6(self):
        result = figures.figure6_datasets(("timik", "epinions"), num_users=12, num_items=25, num_slots=3)
        datasets_seen = {row["x"] for row in result.rows}
        assert datasets_seen == {"timik", "epinions"}

    def test_figure7(self):
        result = figures.figure7_input_models(("piert", "agree"), num_users=12, num_items=25, num_slots=3)
        assert {row["x"] for row in result.rows} == {"piert", "agree"}

    def test_figure8(self):
        result = figures.figure8_scalability("n", values=[10], base_items=25, num_slots=3)
        assert all(row["seconds"] >= 0 for row in result.rows)

    def test_figure9a(self):
        result = figures.figure9a_ip_strategies(
            num_users=6, num_items=12, num_slots=2, budget_multipliers=(5.0,)
        )
        assert any(row["algorithm"] == "AVG-D" for row in result.rows)
        assert any(row["algorithm"].startswith("IP-") for row in result.rows)

    def test_figure9b(self):
        result = figures.figure9b_speedup_strategies(num_users=8, num_items=16, num_slots=2)
        names = {row["algorithm"] for row in result.rows}
        assert names == {"AVG", "AVG-ALP", "AVG-AS", "AVG-D", "AVG-D-ALP", "AVG-D-AS"}

    def test_figure10(self):
        result = figures.figure10_subgroup_metrics(("timik",), num_users=12, num_items=25, num_slots=3)
        for row in result.rows:
            cdf = row["regret_cdf"]
            assert cdf == sorted(cdf)  # monotone CDF
            assert abs(row["intra_pct"] + row["inter_pct"] - 100.0) < 1e-6

    def test_figure11(self):
        result = figures.figure11_case_study(num_items=20, num_slots=2, max_users=6)
        assert {row["algorithm"] for row in result.rows} == {"AVG", "SDP", "GRF"}

    def test_figure12(self):
        result = figures.figure12_r_sensitivity(
            ratios=(0.0, 1.0), num_users=8, num_items=20, num_slots=2, include_ip=False
        )
        small_r = result.filter(balancing_ratio=0.0)[0]
        large_r = result.filter(balancing_ratio=1.0)[0]
        # r = 0 collapses towards the group approach (bigger subgroups).
        assert small_r["mean_subgroup_size"] >= large_r["mean_subgroup_size"] - 1e-9

    def test_figure13(self):
        result = figures.figure13_st_violations(
            size_limits=(3,), num_users=9, num_items=20, num_slots=2, num_instances=1
        )
        avg_rows = result.filter(algorithm="AVG")
        assert avg_rows[0]["total_violation"] == 0
        assert avg_rows[0]["feasibility_ratio"] == 1.0

    def test_figure14_15(self):
        result = figures.figure14_15_st_utility(
            size_limits=(3,), num_users=9, num_items=20, num_slots=2
        )
        avg_rows = result.filter(algorithm="AVG")
        assert avg_rows and avg_rows[0]["feasible"]

    def test_figure16(self):
        result = figures.figure16_user_study(num_participants=10, num_items=20, num_slots=3)
        assert {row["algorithm"] for row in result.rows} == {"AVG", "PER", "FMG", "GRF"}
        for row in result.rows:
            assert 1.0 <= row["mean_satisfaction"] <= 5.0
        assert "correlations" in result.parameters

    def test_table_paper_example(self):
        result = figures.table_paper_example()
        by_algorithm = {row["algorithm"]: row["scaled_utility"] for row in result.rows}
        assert by_algorithm["IP"] == pytest.approx(10.35)
        assert by_algorithm["PER"] == pytest.approx(8.25)
        assert by_algorithm["FMG"] == pytest.approx(8.35)
        assert by_algorithm["SDP"] == pytest.approx(8.4)
        assert by_algorithm["GRF"] == pytest.approx(8.7)
        assert by_algorithm["AVG-D"] >= 9.0

    def test_theorem1(self):
        result = figures.theorem1_gaps(sizes=(3,), num_slots=2)
        group_row = result.filter(instance="I_G")[0]
        assert group_row["ratio"] == pytest.approx(group_row["expected_ratio"], rel=0.01)
        personalized_row = result.filter(instance="I_P")[0]
        assert personalized_row["ratio"] > 1.0

    def test_lemma3(self):
        result = figures.lemma3_independent_rounding(item_counts=(6,), num_users=5, repetitions=3)
        independent = result.filter(algorithm="independent")[0]
        avg = result.filter(algorithm="AVG")[0]
        assert avg["fraction_of_optimum"] > independent["fraction_of_optimum"]


class TestCaseStudyNarration:
    def test_describe_case_study(self):
        instance = datasets.ego_network_instance(
            "yelp", population_users=50, max_users=6, num_items=15, num_slots=2, seed=17
        )
        results = {
            "AVG-D": run_avg_d(instance),
        }
        study = describe_case_study(instance, results)
        text = study.to_text()
        assert "Focal user" in text
        assert "AVG-D" in text
        assert 0 <= study.focal_user < instance.num_users


class TestResultPersistence:
    """ExperimentResult.to_json / from_json round-trip (satellite task)."""

    def test_round_trip_preserves_rows_and_parameters(self):
        algorithms = {"PER": lambda instance, rng=None: __import__("repro").run_per(instance)}

        def factory(value, seed):
            return datasets.make_instance(
                "timik", num_users=value, num_items=15, num_slots=2, seed=seed
            )

        result = sweep("dump", "json round-trip", [5, 6], factory, algorithms, seed=0)
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.name == result.name
        assert restored.description == result.description
        assert len(restored.rows) == len(result.rows)
        for original, loaded in zip(result.rows, restored.rows):
            assert loaded["algorithm"] == original["algorithm"]
            assert loaded["total_utility"] == original["total_utility"]
            assert loaded["x"] == original["x"]
        assert restored.parameters["values"] == [5, 6]
        # Self-describing: provenance counters survive the dump.
        assert restored.parameters["job_provenance"][0]["lp_requests"] >= 0

    def test_numpy_values_are_converted(self):
        result = ExperimentResult("np", "numpy sanitation")
        result.add_row(
            algorithm="A",
            total_utility=np.float64(1.5),
            count=np.int64(3),
            flag=np.bool_(True),
            series=np.arange(3),
        )
        restored = ExperimentResult.from_json(result.to_json())
        row = restored.rows[0]
        assert row["total_utility"] == 1.5
        assert row["count"] == 3
        assert row["flag"] is True
        assert row["series"] == [0, 1, 2]

    def test_rejects_foreign_payloads(self):
        with pytest.raises(ValueError, match="format"):
            ExperimentResult.from_json('{"format": "something-else"}')


class TestFigureExecutorPassthrough:
    """Figure sweeps run unchanged through an explicit executor."""

    def test_figure3_through_parallel_executor_matches_serial(self):
        from repro.experiments import WorkStealingExecutor

        kwargs = dict(
            values=[5, 6], base_items=12, base_slots=2, include_ip=False, repetitions=1
        )
        serial = figures.figure3_small_datasets("n", **kwargs)
        parallel = figures.figure3_small_datasets(
            "n", executor=WorkStealingExecutor(workers=2), **kwargs
        )
        assert serial.comparable_rows() == parallel.comparable_rows()

    def test_figure_factories_are_picklable(self):
        import pickle

        factory = figures.InstanceSweepFactory(dataset="yelp", vary="m", num_users=7)
        clone = pickle.loads(pickle.dumps(factory))
        instance = clone(12, 4)
        assert instance.num_items == 12 and instance.num_users == 7
