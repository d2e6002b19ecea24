#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve-ls --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up 3 to 25 times (``setup_s`` is the median),
measures it for ``--seconds`` of host-normalized time and prints the
end-to-end metrics.  ``--trace 1`` sets up once under tracing, measures half
the time untraced and half traced, writes the spans to
``.bench_out/spans-<workload>-seed<seed>.jsonl`` and prints the per-layer
metrics.  Both print one human-readable line per metric (unit, percentile,
sample count) and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed; without ``src/repro`` next to this
directory the command fails before measuring anything.
"""

from __future__ import annotations

import os

# One process, at most two threads (the load generator and the service's
# batcher): keep BLAS from adding its own.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import argparse
import json
import math
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: ``--trace 0`` sets up at least the first and at most the second number of
#: times, repeating until the set-ups add up to ``SETUP_SECONDS`` (normalized);
#: ``setup_s`` is their median.
SETUP_REPEATS = (3, 25)
SETUP_SECONDS = 4.0

#: End-to-end metrics, in print order: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops": "1/s",
    "utility_mean": "utility",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run, in print order: name -> unit.
PER_LAYER: Dict[str, str] = {
    "data.build_s": "s",
    "lp.solves": "count",
    "lp.candidates_s": "s",
    "lp.assemble_s": "s",
    "lp.highs_s": "s",
    "lp.vars": "count",
    "lp.rows": "count",
    "round.s": "s",
    "round.iterations": "count",
    "ls.s": "s",
    "ls.moves": "count",
    "ls.passes": "count",
    "ls.cell_probes": "count",
    "ls.cell_probe_s": "s",
    "ls.pair_probes": "count",
    "ls.set_cell_calls": "count",
    "ls.set_cell_s": "s",
    "ls.accept_ratio": "ratio",
    "store.loads": "count",
    "store.saves": "count",
    "store.load_s": "s",
    "store.save_s": "s",
    "store.hit_ratio": "ratio",
    "serve.queue_ms": "ms",
    "serve.decode_ms": "ms",
    "serve.solve_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.lp_batches": "count",
    "gen.late_ms": "ms",
    "churn.update_s": "s",
    "churn.repair_s": "s",
    "churn.resolve_s": "s",
    "churn.resolves": "count",
    "churn.repair_moves": "count",
    "shard.partition_s": "s",
    "shard.solve_s": "s",
    "shard.repair_s": "s",
    "shard.count": "count",
    "shard.boundary_users": "count",
    "shard.repair_moves": "count",
    "shard.evictions": "count",
    "host.ref_ms": "ms",
    "trace.overhead_pct": "%",
}


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_rollup(setup, phase, ops: int, scale: float) -> Dict[str, float]:
    """Per-layer metrics from span rollups: times per op (host-normalized), counts per op."""
    per_op = 1.0 / max(1, ops)
    times, calls, attrs = phase.self_s, phase.calls, phase.attrs
    highs = calls["lp.highs"]
    loads = calls["store.load"]
    probes = calls["ls.cell_probe"] + calls["ls.pair_probe"]
    search = ("ls.search", "ls.pair_probe", "ls.set_cell", "ls.cell_probe")
    return {
        "data.build_s": setup.self_s["data.build"] * scale,
        "lp.solves": highs * per_op,
        "lp.candidates_s": times["lp.candidates"] * scale * per_op,
        "lp.assemble_s": times["lp.assemble"] * scale * per_op,
        "lp.highs_s": times["lp.highs"] * scale * per_op,
        "lp.vars": attrs["lp.highs.vars"] / highs if highs else 0.0,
        "lp.rows": attrs["lp.highs.rows"] / highs if highs else 0.0,
        "round.s": times["round"] * scale * per_op,
        "round.iterations": attrs["round.iterations"] * per_op,
        "ls.s": sum(times[bucket] for bucket in search) * scale * per_op,
        "ls.moves": attrs["ls.search.moves"] * per_op,
        "ls.passes": attrs["ls.search.passes"] * per_op,
        "ls.cell_probes": calls["ls.cell_probe"] * per_op,
        "ls.cell_probe_s": times["ls.cell_probe"] * scale * per_op,
        "ls.pair_probes": calls["ls.pair_probe"] * per_op,
        "ls.set_cell_calls": calls["ls.set_cell"] * per_op,
        "ls.set_cell_s": times["ls.set_cell"] * scale * per_op,
        "ls.accept_ratio": attrs["ls.search.moves"] / probes if probes else 0.0,
        "store.loads": loads * per_op,
        "store.saves": calls["store.save"] * per_op,
        "store.load_s": times["store.load"] * scale * per_op,
        "store.save_s": times["store.save"] * scale * per_op,
        "store.hit_ratio": attrs["store.load.hits"] / loads if loads else 0.0,
        "churn.update_s": times["churn.update"] * scale * per_op,
        "churn.repair_s": times["churn.repair"] * scale * per_op,
        "churn.resolve_s": times["churn.resolve"] * scale * per_op,
    }


def normalized_ms(phase, ref) -> List[float]:
    """Host-normalized op latencies of ``phase`` in milliseconds."""
    return [(op.end - op.start) * ref.scale(op.start, op.end) * 1e3 for op in phase.ops]


def measure(
    args: argparse.Namespace, workdir: Path
) -> Tuple[Dict[str, Tuple[float, str, str]], int, int, List[str], List[str]]:
    """Run the workload; returns ``(metrics, attempted, failed, notes, failures)``.

    ``metrics`` maps a name to ``(value, unit, how it was measured)``.
    """
    from perfbench import metrics as stats
    from perfbench.trace import Tracer, rollup
    from perfbench.workloads import WORKLOADS

    ref = stats.HostReference()
    before = [ref.sample() for _ in range(10)]
    workload = WORKLOADS[args.workload](args.seed, workdir)
    notes = [f"loop: {workload.loop}"]
    results: Dict[str, Tuple[float, str, str]] = {}
    try:
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                setup_started = time.perf_counter()
                workload.setup()
                setup_ended = time.perf_counter()
            untraced = workload.run(args.seconds / 2, ref)
            with tracer.installed():
                traced = workload.run(args.seconds / 2, ref, tracer)
            phases = [untraced, traced]
        else:
            setups: List[float] = []
            while len(setups) < SETUP_REPEATS[0] or (
                sum(setups) < SETUP_SECONDS and len(setups) < SETUP_REPEATS[1]
            ):
                for _ in range(3):
                    ref.sample()
                started = time.perf_counter()
                workload.setup()
                ended = time.perf_counter()
                for _ in range(3):
                    ref.sample()
                setups.append(ref.normalized(started, ended))
            phase = workload.run(args.seconds, ref)
            throughput, how = workload.throughput(phase, ref)
            phases = [phase]
        final = workload.final_checks()
    finally:
        workload.close()
    after = [ref.sample() for _ in range(10)]
    attempted = sum(len(p.ops) for p in phases) + final
    notes.append(f"host.ref_ms: {stats.median(before):.3f} before, {stats.median(after):.3f} after (raw)")

    if args.trace:
        out = ROOT / ".bench_out"
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        written = tracer.write(str(spans_path))
        notes.append(f"spans: {written} written to {spans_path.relative_to(ROOT)}")
        in_phase = [
            m for t, m in zip(ref.times, ref.millis) if traced.started <= t <= traced.ended
        ] or ref.millis
        scale = stats.REF_NOMINAL_MS / stats.median(in_phase)
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(
            layer_rollup(
                rollup(tracer.spans, setup_started, setup_ended),
                rollup(tracer.spans, traced.started, traced.ended),
                len(traced.ops),
                scale,
            )
        )
        for name, value in workload.layer_metrics(traced).items():
            layers[name] = value * scale if PER_LAYER[name] in ("s", "ms") else value
        layers["host.ref_ms"] = stats.median(before + after)
        plain, with_spans = stats.median(normalized_ms(untraced, ref)), stats.median(normalized_ms(traced, ref))
        layers["trace.overhead_pct"] = 100.0 * (with_spans / plain - 1.0) if plain else 0.0
        for name, unit in PER_LAYER.items():
            normalized = ", host-normalized" if unit in ("s", "ms") else ""
            results[name] = (layers[name], unit, f"traced phase of {len(traced.ops)} ops{normalized}")
        results["host.ref_ms"] = (layers["host.ref_ms"], "ms", "raw, median of 20 samples around the run")
        results["trace.overhead_pct"] = (
            layers["trace.overhead_pct"],
            "%",
            f"p50 traced {with_spans:.3f} ms vs untraced {plain:.3f} ms",
        )
        return results, attempted, workload.failed_ops, notes, workload.failures

    latencies = normalized_ms(phase, ref)
    count = len(latencies)
    raw = stats.median([(op.end - op.start) * 1e3 for op in phase.ops])
    values = {
        "setup_s": (stats.median(setups), f"median of {len(setups)} set-ups"),
        "latency_p50_ms": (stats.median(latencies), f"p50 of {count} ops (raw p50 {raw:.3f} ms)"),
        "throughput_ops": (throughput, how),
    }
    tail = stats.tail(latencies)
    if tail is not None:
        raw_tail = stats.tail([(op.end - op.start) * 1e3 for op in phase.ops])[1]
        values["latency_tail_ms"] = (
            tail[1],
            f"p{tail[0]:.2f} of {count} ops ({stats.TAIL_BEYOND} samples beyond; raw {raw_tail:.3f} ms)",
        )
    prefix = phase.ops[: workload.prefix_ops]
    if len(prefix) < workload.prefix_ops:
        workload.fail(f"{args.workload}: {len(prefix)} ops made, utility_mean needs {workload.prefix_ops}")
    utilities = [op.utility for op in prefix if op.ok]
    values["utility_mean"] = (stats.mean(utilities), f"mean of the first {len(utilities)} configurations")
    values["peak_rss_mb"] = (stats.peak_rss_mb(), "ru_maxrss of this run")
    for name, unit in END_TO_END.items():
        if name in values:
            results[name] = (values[name][0], unit, values[name][1])
    return results, attempted, workload.failed_ops, notes, workload.failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out"
    workdir = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        results, attempted, failed, notes, failures = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit, how) in results.items():
        print(f"  {name:<22} {value:>14.6f} {unit:<8} {how}")
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)

    report = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit, _how) in results.items()
            if math.isfinite(value)
        },
    }
    print(json.dumps(report))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
