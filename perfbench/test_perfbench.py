"""Tests of the benchmark's own code: statistics, names, seeds, tracing and a smoke run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import metrics
from perfbench.run import END_TO_END, PER_LAYER
from perfbench.trace import Tracer, rollup
from perfbench.workloads import WORKLOADS, Workload, arrival_schedule, closed_loop, subgroup_sizes

ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------- #
# Tail-percentile rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("count", [0, 1, 5, 10])
def test_tail_is_omitted_below_eleven_samples(count):
    assert metrics.tail([float(i) for i in range(count)]) is None


def test_tail_of_eleven_samples_is_the_smallest():
    percentile, value = metrics.tail([float(i) for i in range(11, 0, -1)])
    assert value == 1.0
    assert percentile == pytest.approx(100.0 / 11)


@pytest.mark.parametrize("count", [11, 12, 40, 150, 999, 4000])
def test_tail_leaves_exactly_ten_samples_beyond(count):
    values = np.random.default_rng(count).permutation(count).astype(float).tolist()
    percentile, value = metrics.tail(values)
    assert sum(v > value for v in values) == metrics.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (count - metrics.TAIL_BEYOND) / count)


def test_tail_counts_ties_by_rank():
    percentile, value = metrics.tail([5.0] * 20)
    assert value == 5.0
    assert percentile == pytest.approx(50.0)


# --------------------------------------------------------------------------- #
# Metric names and BENCHMARK.json
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["setup_s", "ls.set_cell_s", "serve-mixed", "trace.overhead_pct", "9a"])
def test_valid_metric_names(name):
    assert metrics.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b", "p99%", "a" * 65])
def test_invalid_metric_names(name):
    assert not metrics.valid_metric_name(name)


def test_every_emitted_name_is_valid_and_unique():
    names = list(END_TO_END) + list(PER_LAYER) + list(WORKLOADS)
    assert all(metrics.valid_metric_name(name) for name in names)
    assert len(set(names)) == len(names)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["paths"] == ["perfbench"]


# --------------------------------------------------------------------------- #
# Seed determinism
# --------------------------------------------------------------------------- #
def _fingerprints(workload) -> list:
    from repro.core.pipeline import instance_fingerprint

    if hasattr(workload, "hot"):
        instances = workload.hot + workload.fresh
    else:
        instances = workload.instances
    return [instance_fingerprint(instance) for instance in instances]


@pytest.mark.parametrize("name", ["sharded", "solve-ls"])
def test_same_seed_same_instances(name, tmp_path):
    built = []
    for index, seed in enumerate((3, 3, 4)):
        workload = WORKLOADS[name](seed, tmp_path / str(index), tiny=True)
        workload.setup()
        built.append(_fingerprints(workload))
        workload.close()
    assert built[0] == built[1]
    assert set(built[0]).isdisjoint(built[2])


def test_served_instances_do_not_depend_on_the_seed(tmp_path):
    built = []
    for index, seed in enumerate((3, 4)):
        workload = WORKLOADS["serve-mixed"](seed, tmp_path / str(index), tiny=True)
        workload.setup()
        built.append(_fingerprints(workload))
        workload.close()
    assert built[0] == built[1]  # the seed varies the traffic (arrival schedule, below)


def test_same_seed_same_churn_trace(tmp_path):
    from repro.core.pipeline import instance_fingerprint

    traces, universes = [], set()
    for index, seed in enumerate((3, 3, 4)):
        workload = WORKLOADS["churn-replay"](seed, tmp_path / str(index), tiny=True)
        workload.setup()
        universes.add(instance_fingerprint(workload.instance))
        trace = workload.trace
        traces.append(
            (
                trace.initial_active.tolist(),
                [(e.kind, e.user, None if e.preference is None else e.preference.tolist()) for e in trace.events],
            )
        )
        workload.close()
    assert traces[0] == traces[1]
    assert traces[0] != traces[2]
    assert len(universes) == 1  # the seed varies the trace, not the user universe


def test_same_seed_same_arrival_schedule():
    first, second, other = (arrival_schedule(seed, 200, 10.0, 0.75) for seed in (3, 3, 4))
    assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])
    assert not np.array_equal(first[0], other[0])
    assert 0.6 < first[1].mean() < 0.9


def test_closed_loop_makes_the_utility_prefix_however_short_the_run(tmp_path):
    class Counting(Workload):
        name = "counting"
        utility_ops = (7, 3)

    for tiny, expected in ((False, 7), (True, 3)):
        workload = Counting(1, tmp_path, tiny=tiny)
        phase = closed_loop(
            workload, 0.0, metrics.HostReference(), lambda i: i, lambda i, result: (float(result), None)
        )
        assert [op.utility for op in phase.ops] == [float(i) for i in range(expected)]


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def test_subgroup_sizes_recounts_cells_and_skips_unassigned():
    assignment = np.array([[0, 1], [0, 2], [2, -1], [0, 1]])
    sizes = subgroup_sizes(assignment, 3)
    assert sizes.shape == (3, 2)
    assert sizes[:, 0].tolist() == [3, 0, 1]
    assert sizes[:, 1].tolist() == [0, 2, 1]


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
def test_rollup_self_time_and_evaluator_attribution():
    spans = [
        (1, "DeltaEvaluator.set_cell", None, 1.0, 3.0, 0, 0, None),
        (2, "lp.candidate_items", "lp.candidates", 4.0, 5.0, 0, 0, None),
        (0, "LocalSearchImprover.apply", "ls.search", 0.0, 10.0, None, 0, {"moves": 2.0}),
        (4, "DeltaEvaluator.set_cell", None, 21.0, 22.5, 3, 1, None),
        (3, "DynamicSession.add_user", "churn.update", 20.0, 24.0, None, 1, None),
        (5, "DeltaEvaluator.probe_many", None, 30.0, 30.5, None, 2, None),
    ]
    rolled = rollup(spans)
    assert rolled.self_s["ls.search"] == pytest.approx(7.0)
    assert rolled.self_s["ls.set_cell"] == pytest.approx(2.0)
    assert rolled.self_s["lp.candidates"] == pytest.approx(1.0)
    assert rolled.self_s["churn.update"] == pytest.approx(4.0)  # 2.5 own + 1.5 of cell writes
    assert rolled.self_s["unattributed"] == pytest.approx(0.5)
    assert rolled.calls["ls.set_cell"] == 1 and rolled.calls["churn.update"] == 2
    assert rolled.attrs["ls.search.moves"] == 2.0
    assert rollup(spans, 19.0, 25.0).self_s.get("ls.search", 0.0) == 0.0


def test_tracer_records_spans_and_restores_originals(tmp_path):
    from repro.core import registry
    from repro.core.objective import DeltaEvaluator
    from repro.solvers import linprog

    original_set_cell = DeltaEvaluator.set_cell
    original_runner = registry.get_algorithm("AVG-D").runner
    original_linprog = linprog.linprog
    workload = WORKLOADS["solve-ls"](1, tmp_path, tiny=True)
    workload.setup()
    tracer = Tracer()
    with tracer.installed():
        assert DeltaEvaluator.set_cell is not original_set_cell
        assert registry.get_algorithm("AVG-D").runner is not original_runner
        phase = workload.run(0.2, metrics.HostReference(), tracer)
    assert DeltaEvaluator.set_cell is original_set_cell
    assert registry.get_algorithm("AVG-D").runner is original_runner
    assert linprog.linprog is original_linprog
    rolled = rollup(tracer.spans, phase.started, phase.ended)
    for bucket in ("lp.highs", "lp.assemble", "round", "ls.search", "ls.cell_probe"):
        assert rolled.calls[bucket] >= len(phase.ops) > 0
    assert {span[6] for span in tracer.spans} >= set(range(len(phase.ops)))
    written = tracer.write(str(tmp_path / "spans.jsonl"))
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert written == len(lines) == len(tracer.spans)
    assert set(json.loads(lines[0])) == {"id", "name", "bucket", "start", "end", "parent", "op", "attrs"}


# --------------------------------------------------------------------------- #
# Smoke runs
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_every_check(name, tmp_path):
    workload = WORKLOADS[name](5, tmp_path, tiny=True)
    ref = metrics.HostReference()
    try:
        workload.setup()
        phase = workload.run(0.3, ref)
        rate, _how = workload.throughput(phase, ref)
        workload.final_checks()
        layers = workload.layer_metrics(phase)
    finally:
        workload.close()
    assert workload.failures == [] and workload.failed_ops == 0
    assert phase.ops and all(op.ok and op.end >= op.start for op in phase.ops)
    assert rate > 0
    assert set(layers) <= set(PER_LAYER)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-ls", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
