"""Record every output of a fixed, seeded manifest, and diff two recordings.

A change that should not move any result (a refactor, a speed-up) shows it by
recording the manifest on the parent commit and on the change and comparing
the two files.  The manifest covers the library's output-producing paths on
small seeded instances:

* the LP relaxation per formulation (objective and factors), on SVGIC and
  SVGIC-ST, tight ``M * m = n`` shapes included;
* AVG over formulations x sampling modes x seeds (configuration, its CSF
  statistics and the generator's final state), and with ``repetitions > 1``;
* AVG-D with ``r`` in {0.25, 1.0} and sampling on and off, AVG-D+LS with its
  moves and passes, and independent rounding (IND);
* the IP on small instances, one ``solve_lp_relaxations_stacked`` batch,
  ``solve_sharded`` on SVGIC and SVGIC-ST, and a churn-replay prefix
  (per-event utilities and the final assignment).

Each case stores its arrays under ``<case>/<name>``; a case that raises stores
the exception's class name under ``<case>/error`` instead.

Usage::

    PYTHONPATH=src python benchmarks/record_outputs.py --out change.npz
    PYTHONPATH=<parent>/src python benchmarks/record_outputs.py --out parent.npz
    python benchmarks/record_outputs.py --compare parent.npz change.npz

``--compare`` lists every array as identical, changed (with the largest
absolute difference where the shapes agree) or missing from one side, and
exits non-zero on any difference.  The recorder only uses public entry points
whose signatures are stable across commits, so one copy of this script
records any checkout: point ``PYTHONPATH`` at that checkout's ``src``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

Arrays = Dict[str, np.ndarray]

FORMULATIONS = ("simplified", "sparse", "full")
#: Instances too large for a quick ``"full"`` LP (HiGHS takes seconds there).
MID_SIZE = ("svgic-mid", "st-mid")
AVG_SEEDS = (0, 1, 2, 3)


# --------------------------------------------------------------------------- #
# Instances
# --------------------------------------------------------------------------- #
def _svgic(n: int, m: int, k: int, seed: int, dataset: str = "timik"):
    from repro.data import datasets

    return datasets.make_instance(dataset, num_users=n, num_items=m, num_slots=k, seed=seed)


def _st(n: int, m: int, k: int, cap: int, seed: int):
    from repro.data import datasets

    return datasets.make_st_instance(
        "timik", num_users=n, num_items=m, num_slots=k, max_subgroup_size=cap, seed=seed
    )


def _instances() -> Dict[str, Callable[[], object]]:
    """The small instances most cases run on, by name."""
    from repro.data import adversarial
    from repro.data.example_paper import paper_example_instance

    return {
        "paper": paper_example_instance,
        "svgic-a": lambda: _svgic(14, 16, 3, 0),
        "svgic-b": lambda: _svgic(18, 24, 4, 1, dataset="epinions"),
        "st-a": lambda: _st(16, 14, 3, 3, 0),
        "st-b": lambda: _st(20, 18, 3, 5, 2),
        # Tight: M * m = n, so greedy completion and make_room run.
        "st-tight": lambda: _st(12, 4, 3, 3, 3),
        "ties": lambda: adversarial.indifferent_instance(6, 5, num_slots=2),
        "svgic-mid": lambda: _svgic(50, 30, 4, 7),
        "st-mid": lambda: _st(60, 24, 3, 5, 6),
    }


# --------------------------------------------------------------------------- #
# Cases
# --------------------------------------------------------------------------- #
def _config_arrays(result) -> Arrays:
    return {
        "assignment": np.asarray(result.configuration.assignment),
        "objective": np.asarray(result.objective),
    }


def _generator_state(generator: np.random.Generator) -> np.ndarray:
    return np.asarray(repr(generator.bit_generator.state))


def _lp_arrays(fractional) -> Arrays:
    arrays = {
        "objective": np.asarray(fractional.objective),
        "compact_factors": np.asarray(fractional.compact_factors),
        "candidate_item_ids": np.asarray(fractional.candidate_item_ids),
    }
    if fractional.formulation == "full":
        arrays["slot_factors"] = np.asarray(fractional.slot_factors)
    return arrays


def _cases() -> Iterator[Tuple[str, Callable[[], Arrays]]]:
    from repro.core.avg import run_avg
    from repro.core.avg_d import run_avg_d
    from repro.core.ip import solve_exact
    from repro.core.lp import solve_lp_relaxation, solve_lp_relaxations_stacked
    from repro.core.registry import run_registered
    from repro.core.rounding import run_independent_rounding

    builders = _instances()
    cache: Dict[str, object] = {}

    def instance(name: str):
        if name not in cache:
            cache[name] = builders[name]()
        return cache[name]

    lps: Dict[Tuple[str, str], object] = {}

    def lp(name: str, formulation: str):
        key = (name, formulation)
        if key not in lps:
            prune = name not in {"paper", "ties"}
            lps[key] = solve_lp_relaxation(
                instance(name), formulation=formulation, prune_items=prune
            )
        return lps[key]

    lp_names = (
        "paper", "svgic-a", "svgic-b", "st-a", "st-b", "st-tight", "ties", *MID_SIZE,
    )

    def formulations(name: str) -> Tuple[str, ...]:
        return FORMULATIONS[:2] if name in MID_SIZE else FORMULATIONS

    for name in lp_names:
        for formulation in formulations(name):
            yield f"lp/{name}/{formulation}", lambda n=name, f=formulation: _lp_arrays(lp(n, f))

    # Shapes whose per-user top-(k+2) lists alone leave the ST cap rows infeasible.
    for n, m, seed in ((80, 16, 0), (100, 40, 3)):
        def capped(n=n, m=m, seed=seed) -> Arrays:
            inst = _st(n, m, 3, 5, seed)
            fractional = solve_lp_relaxation(inst, formulation="sparse")
            arrays = _lp_arrays(fractional)
            rounded = run_avg_d(inst, fractional)
            arrays.update({f"avg_d_{k}": v for k, v in _config_arrays(rounded).items()})
            return arrays

        yield f"lp-sparse-st/n{n}-m{m}-s{seed}", capped

    for name in lp_names:
        for formulation in formulations(name):
            for advanced in (True, False):
                for seed in AVG_SEEDS:
                    def avg(n=name, f=formulation, a=advanced, s=seed) -> Arrays:
                        generator = np.random.default_rng(s)
                        result = run_avg(
                            instance(n), lp(n, f), rng=generator, advanced_sampling=a
                        )
                        arrays = _config_arrays(result)
                        for stat in (
                            "iterations", "idle_iterations", "subgroups_formed",
                            "fallback_assignments",
                        ):
                            arrays[stat] = np.asarray(result.info[stat])
                        arrays["generator"] = _generator_state(generator)
                        return arrays

                    mode = "as" if advanced else "uniform"
                    yield f"avg/{name}/{formulation}/{mode}/seed{seed}", avg

    for name in ("svgic-a", "st-b", "ties"):
        def avg_repeated(n=name) -> Arrays:
            generator = np.random.default_rng(7)
            result = run_avg(instance(n), lp(n, "simplified"), rng=generator, repetitions=5)
            arrays = _config_arrays(result)
            arrays["iterations"] = np.asarray(result.info["iterations"])
            arrays["generator"] = _generator_state(generator)
            return arrays

        yield f"avg-repeated/{name}", avg_repeated

    for name in lp_names:
        for formulation in formulations(name):
            for ratio in (0.25, 1.0):
                for advanced in (True, False):
                    def avg_d(n=name, f=formulation, r=ratio, a=advanced) -> Arrays:
                        result = run_avg_d(
                            instance(n), lp(n, f), balancing_ratio=r, advanced_sampling=a
                        )
                        arrays = _config_arrays(result)
                        arrays["iterations"] = np.asarray(result.info["iterations"])
                        return arrays

                    mode = "as" if advanced else "all"
                    yield f"avg-d/{name}/{formulation}/r{ratio}/{mode}", avg_d

    for name in lp_names:
        for ratio in (0.25, 1.0):
            def avg_d_ls(n=name, r=ratio) -> Arrays:
                result = run_registered("AVG-D+LS", instance(n), balancing_ratio=r)
                arrays = _config_arrays(result)
                for stage, info in result.info["stages"].items():
                    arrays[f"{stage}_moves"] = np.asarray(info["moves"])
                    arrays[f"{stage}_passes"] = np.asarray(info["passes"])
                return arrays

            yield f"avg-d-ls/{name}/r{ratio}", avg_d_ls

    for name in ("paper", "svgic-a", "st-b"):
        for seed in (0, 1):
            def independent(n=name, s=seed) -> Arrays:
                result = run_independent_rounding(instance(n), lp(n, "simplified"), rng=s)
                arrays = _config_arrays(result)
                arrays["violations"] = np.asarray(result.info["duplication_violations"])
                return arrays

            yield f"ind/{name}/seed{seed}", independent

    for label, build in (
        ("svgic", lambda: _svgic(6, 8, 2, 4)),
        ("st", lambda: _st(6, 6, 2, 2, 5)),
    ):
        yield f"ip/{label}", lambda b=build: _config_arrays(solve_exact(b()))

    def stacked() -> Arrays:
        batch = [_svgic(10, 12, 3, 20 + i) for i in range(3)] + [_st(12, 10, 3, 4, 23)]
        arrays: Arrays = {}
        for index, fractional in enumerate(solve_lp_relaxations_stacked(batch)):
            arrays[f"{index}_objective"] = np.asarray(fractional.objective)
            arrays[f"{index}_compact_factors"] = np.asarray(fractional.compact_factors)
        return arrays

    yield "stacked", stacked

    for label, build, overrides in (
        ("svgic", lambda: _svgic(40, 20, 3, 30), {}),
        ("st", lambda: _st(45, 18, 3, 5, 31), {"lp_formulation": "sparse"}),
    ):
        def sharded(b=build, o=overrides) -> Arrays:
            from repro.core.sharding import solve_sharded

            result = solve_sharded(
                b(), max_shard_users=15, seed=3, algorithm_overrides=o
            )
            return {
                "assignment": np.asarray(result.configuration.assignment),
                "total": np.asarray(result.total),
                "union_total": np.asarray(result.union_total),
                "evictions": np.asarray(result.evictions),
                "repair_moves": np.asarray(result.repair_moves),
            }

        yield f"sharded/{label}", sharded

    def churn() -> Arrays:
        from repro.data.churn import make_churn_trace
        from repro.extensions.churn import ChurnEngine, ResolvePolicy

        universe = _st(40, 20, 3, 5, 40)
        trace = make_churn_trace(universe, num_events=80, seed=41, min_active=20)
        policy = ResolvePolicy(degradation_threshold=0.01, min_events_between_resolves=5)
        engine = ChurnEngine(universe, trace.initial_active, policy=policy)
        utilities = [engine.apply_event(event).utility for event in trace.events]
        session = engine.session
        return {
            "utilities": np.asarray(utilities),
            "actions": np.asarray([tick.action for tick in engine.ticks]),
            "active": np.asarray(session.active),
            "assignment": np.asarray(session.configuration.assignment),
        }

    yield "churn", churn


# --------------------------------------------------------------------------- #
# Recording and comparing
# --------------------------------------------------------------------------- #
def record(path: str) -> int:
    """Run the manifest and save every array to ``path`` (``.npz``)."""
    started = time.perf_counter()
    arrays: Arrays = {}
    errors = 0
    cases = 0
    for case, run in _cases():
        cases += 1
        try:
            outputs = run()
        except Exception as error:  # a failing case is recorded, not fatal
            arrays[f"{case}/error"] = np.asarray(type(error).__name__)
            errors += 1
            continue
        for name, value in outputs.items():
            arrays[f"{case}/{name}"] = np.asarray(value)
    np.savez_compressed(path, **arrays)
    print(
        f"recorded {len(arrays)} arrays from {cases} cases ({errors} raised) "
        f"in {time.perf_counter() - started:.1f} s -> {path}"
    )
    return 0


def _difference(a: np.ndarray, b: np.ndarray) -> Optional[str]:
    """``None`` when identical, else a short description of the difference."""
    if a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a, b, equal_nan=a.dtype.kind in "fc"
    ):
        return None
    if a.shape != b.shape:
        return f"shape {a.shape} -> {b.shape}"
    if a.dtype.kind in "biuf" and b.dtype.kind in "biuf" and a.size:
        largest = np.max(np.abs(a.astype(float) - b.astype(float)))
        return f"max |diff| {largest:.3g}"
    return "values differ"


def compare(before_path: str, after_path: str) -> int:
    """Print each array's status; return 1 if anything changed or is missing."""
    with np.load(before_path) as before_file, np.load(after_path) as after_file:
        before = {key: before_file[key] for key in before_file.files}
        after = {key: after_file[key] for key in after_file.files}
    identical = 0
    differences: List[str] = []
    for key in sorted(set(before) | set(after)):
        if key not in after:
            differences.append(f"missing in {after_path}: {key}")
        elif key not in before:
            differences.append(f"missing in {before_path}: {key}")
        else:
            change = _difference(before[key], after[key])
            if change is None:
                identical += 1
            else:
                differences.append(f"changed: {key} ({change})")
    for line in differences:
        print(line)
    print(f"{identical} identical, {len(differences)} differing")
    return 1 if differences else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="FILE.npz", help="record the manifest to FILE.npz")
    mode.add_argument(
        "--compare", nargs=2, metavar=("A.npz", "B.npz"), help="diff two recordings"
    )
    args = parser.parse_args(argv)
    if args.out:
        return record(args.out)
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
