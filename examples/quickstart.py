"""Quickstart: build a VR group-shopping instance, configure it, inspect the result.

Run with::

    python examples/quickstart.py

The script builds a small Timik-style shopping group, runs the paper's AVG-D
algorithm together with the personalized and group baselines, and prints the
total SAVG utility, the preference/social split, and the subgroups formed at
each display slot.  It closes with a parallel parameter sweep: the same
experiment table computed serially and through a process pool.
"""

from __future__ import annotations

from repro import run_avg_d, run_fmg, run_per
from repro.data import datasets
from repro.metrics.evaluation import evaluate_result, evaluation_table


def main() -> None:
    # A shopping group of 15 friends, a catalogue of 60 items, 5 display slots.
    instance = datasets.make_instance(
        "timik", num_users=15, num_items=60, num_slots=5, social_weight=0.5, seed=7
    )
    print(f"Instance: {instance.name} — {instance.num_users} users, "
          f"{instance.num_items} items, {instance.num_slots} slots, "
          f"{instance.num_edges} social edges\n")

    results = {
        "AVG-D (ours)": run_avg_d(instance, balancing_ratio=1.0),
        "PER (personalized top-k)": run_per(instance),
        "FMG (group bundle)": run_fmg(instance),
    }

    reports = [evaluate_result(instance, result) for result in results.values()]
    print(evaluation_table(reports))
    print()

    ours = results["AVG-D (ours)"]
    print("Subgroups formed by AVG-D at slot 1 (item -> users):")
    for item, members in ours.configuration.subgroups_at_slot(0).items():
        print(f"  item {item:3d} -> users {members}")

    best_baseline = max(r.objective for name, r in results.items() if "ours" not in name)
    improvement = 100.0 * (ours.objective - best_baseline) / best_baseline
    print(f"\nAVG-D improves over the best baseline by {improvement:.1f}% total SAVG utility.")

    parallel_sweep_demo()


def parallel_sweep_demo() -> None:
    """Parallel sweeps: compile a plan once, pick an executor per run.

    ``sweep()`` (and ``grid()`` for 2-D sweeps) first compiles the
    experiment into a plan of picklable jobs, then hands it to an executor.
    The default runs serially; ``WorkStealingExecutor(workers=...)`` fans
    jobs out over a process pool — grouped by instance so every instance
    keeps its single shared LP solve — and returns the *identical* table, so
    swapping executors is a pure throughput knob.  Every figure function
    (``figures.figure3_small_datasets`` etc.) takes the same ``executor=``
    argument.
    """
    import time

    from repro.core.registry import build_runners
    from repro.experiments import WorkStealingExecutor, sweep
    from repro.experiments.figures import InstanceSweepFactory

    print("\nParameter sweep: group size n in (10, 14, 18), serial vs 2 workers")
    factory = InstanceSweepFactory(dataset="timik", vary="n", num_items=30, num_slots=3)
    algorithms = build_runners(["AVG", "AVG-D", "PER"])

    tables = {}
    for label, executor in (("serial", None), ("2 workers", WorkStealingExecutor(workers=2))):
        start = time.perf_counter()
        tables[label] = sweep(
            "quickstart-sweep", "utility vs group size", (10, 14, 18),
            factory, algorithms, seed=7, executor=executor,
        )
        print(f"  {label:<10} {time.perf_counter() - start:6.2f} s")

    assert tables["serial"].comparable_rows() == tables["2 workers"].comparable_rows()
    print("  identical result tables — scheduling changed, the experiment did not.\n")
    print(tables["serial"].to_text(columns=("algorithm", "x", "total_utility", "mean_regret")))


if __name__ == "__main__":
    main()
