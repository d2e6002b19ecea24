"""One experiment function per table/figure of the paper's evaluation (Section 6).

Every function returns an :class:`repro.experiments.harness.ExperimentResult`
whose rows contain the same series the paper plots.  Algorithm line-ups come
from the registry (:mod:`repro.core.registry`) — ``default_algorithms()``
resolves the ``paper``-tagged specs and ``_st_baselines`` the
``baseline``+``st``-tagged ones — and each instance is solved through one
shared :class:`~repro.core.pipeline.SolveContext`, so e.g. the full
``figure3_small_datasets`` line-up performs a single simplified-LP
relaxation solve per instance.  The sweep-based figures (3, 5-8) compile to
:class:`~repro.experiments.executor.SweepPlan` jobs over the picklable
:class:`InstanceSweepFactory` and accept ``executor=`` and ``store=``
arguments — pass a
:class:`~repro.experiments.scheduler.WorkStealingExecutor` to fan the sweep
out over a process pool (the table is identical), and a
:class:`repro.store.ArtifactStore` to persist LP solves and finished jobs
across invocations (a warm store repeats a figure without a single LP
solve; an interrupted sweep resumes from its checkpoints).  Default
parameters are
laptop-scale (the paper used m = 10,000 items and a 1 TB server); pass
larger values to approach the original scale.  The benchmark modules under
``benchmarks/`` call these functions and print the resulting tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.group import run_fmg
from repro.baselines.personalized import run_per
from repro.baselines.prepartition import run_with_prepartition
from repro.baselines.subgroup import run_grf, run_sdp
from repro.core.avg import run_avg
from repro.core.avg_d import run_avg_d
from repro.core.ip import solve_exact
from repro.core.lp import solve_lp_relaxation
from repro.core.objective import total_utility
from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.core import registry
from repro.core.rounding import run_independent_rounding
from repro.core.svgic_st import size_violation_report
from repro.data import adversarial, datasets
from repro.data.example_paper import (
    FRIENDSHIP_PARTITION,
    PREFERENCE_PARTITION,
    paper_example_instance,
    partition_indices,
)
from repro.data.user_study import correlation_report, generate_population, simulate_satisfaction
from repro.experiments.executor import Executor
from repro.experiments.harness import (
    ExperimentResult,
    default_algorithms,
    grid,
    run_algorithms,
    sweep,
)
from repro.metrics.regret import regret_cdf, regret_ratios
from repro.metrics.subgroups import subgroup_metrics
from repro.utils.rng import SeedLike, derive_seed, ensure_rng


# --------------------------------------------------------------------------- #
# Picklable instance factories (sweep plans ship these to worker processes)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class InstanceSweepFactory:
    """Picklable ``factory(value, rep_seed)`` over the synthetic dataset builders.

    ``vary`` names the dimension the sweep value binds to — ``"n"``
    (users), ``"m"`` (items), ``"k"`` (slots), ``"dataset"`` (dataset
    style) or ``"model"`` (utility learning model); the remaining fields
    are the fixed base configuration.  ``sampled=True`` uses the
    random-walk-sampled small-dataset builder (Figure 3), otherwise
    :func:`repro.data.datasets.make_instance`.  Being a frozen module-level
    dataclass (instead of the closures the figure functions used to build),
    instances of this factory pickle cleanly into
    :class:`~repro.experiments.executor.SweepPlan` jobs.
    """

    dataset: str = "timik"
    vary: str = "n"
    num_users: int = 8
    num_items: int = 20
    num_slots: int = 3
    utility_model: str = "piert"
    sampled: bool = False

    _VARY = ("n", "m", "k", "dataset", "model")

    def __post_init__(self) -> None:
        if self.vary not in self._VARY:
            raise ValueError(f"vary must be one of {self._VARY}, got {self.vary!r}")

    def __call__(self, value, rep_seed: int) -> SVGICInstance:
        users = value if self.vary == "n" else self.num_users
        items = value if self.vary == "m" else self.num_items
        slots = value if self.vary == "k" else self.num_slots
        dataset = value if self.vary == "dataset" else self.dataset
        model = value if self.vary == "model" else self.utility_model
        builder = (
            datasets.small_sampled_instance if self.sampled else datasets.make_instance
        )
        return builder(
            dataset,
            num_users=int(users),
            num_items=int(items),
            num_slots=int(slots),
            utility_model=model,
            seed=rep_seed,
        )


@dataclass(frozen=True)
class FixedInstanceFactory:
    """Picklable factory returning one fixed, seeded instance for every job.

    Sweeps that scan an *algorithm* parameter (figure 12's balancing ratio)
    hold the instance constant: every job then shares one instance
    fingerprint, so the executor's LP store — in-memory or the persistent
    :class:`repro.store.ArtifactStore` — pays the LP relaxation solve
    exactly once for the whole scan.
    """

    dataset: str = "timik"
    num_users: int = 12
    num_items: int = 30
    num_slots: int = 3
    seed: int = 0

    def __call__(self, value, rep_seed: int) -> SVGICInstance:
        return datasets.make_instance(
            self.dataset,
            num_users=self.num_users,
            num_items=self.num_items,
            num_slots=self.num_slots,
            seed=self.seed,
        )

    def instance_affinity(self, value, rep_seed: int) -> Tuple[Any, ...]:
        """Every job builds the same instance, so every job shares one group.

        The work-stealing scheduler (:mod:`repro.experiments.scheduler`)
        consults this hook for its sticky-affinity grouping: a whole
        algorithm-parameter scan collapses into a single claimable group, so
        one worker holds the instance and the scan still pays exactly one LP
        relaxation solve under dynamic scheduling.
        """
        return (self.dataset, self.num_users, self.num_items, self.num_slots, self.seed)


# --------------------------------------------------------------------------- #
# Figure 3 — comparisons on small datasets (utility and time vs n, m, k)
# --------------------------------------------------------------------------- #
def figure3_small_datasets(
    vary: str = "n",
    values: Optional[Sequence[int]] = None,
    *,
    base_users: int = 8,
    base_items: int = 20,
    base_slots: int = 3,
    seed: SeedLike = 0,
    repetitions: int = 1,
    include_ip: bool = True,
    ip_time_limit: float = 20.0,
    executor: Optional[Executor] = None,
    store: Optional[object] = None,
) -> ExperimentResult:
    """Figure 3(a-f): total utility and execution time on small sampled instances.

    ``vary`` is ``"n"`` (users), ``"m"`` (items) or ``"k"`` (slots).
    """
    if vary not in {"n", "m", "k"}:
        raise ValueError("vary must be 'n', 'm' or 'k'")
    if values is None:
        values = {"n": [5, 8, 11], "m": [10, 20, 30], "k": [2, 3, 4]}[vary]

    factory = InstanceSweepFactory(
        dataset="timik",
        vary=vary,
        num_users=base_users,
        num_items=base_items,
        num_slots=base_slots,
        sampled=True,
    )
    algorithms = default_algorithms(include_ip=include_ip, ip_time_limit=ip_time_limit)
    return sweep(
        f"figure3-{vary}",
        f"small datasets, varying {vary}",
        values,
        factory,
        algorithms,
        seed=seed,
        repetitions=repetitions,
        x_label=vary,
        executor=executor,
        store=store,
    )


# --------------------------------------------------------------------------- #
# Figure 4 — impact of lambda (normalized utility + personal/social split)
# --------------------------------------------------------------------------- #
def figure4_lambda(
    lambdas: Sequence[float] = (1.0 / 3.0, 0.5, 2.0 / 3.0),
    *,
    num_users: int = 8,
    num_items: int = 20,
    num_slots: int = 3,
    seed: SeedLike = 1,
    ip_time_limit: float = 20.0,
) -> ExperimentResult:
    """Figure 4: utility (normalized by IP) and Personal%/Social% split for several lambdas."""
    result = ExperimentResult(
        "figure4",
        "normalized total SAVG utility for different lambda",
        parameters={"lambdas": list(lambdas)},
    )
    base = datasets.small_sampled_instance(
        "timik", num_users=num_users, num_items=num_items, num_slots=num_slots,
        seed=derive_seed(seed, "fig4"),
    )
    algorithms = default_algorithms(include_ip=True, ip_time_limit=ip_time_limit)
    for lam in lambdas:
        instance = base.with_social_weight(lam)
        reports = run_algorithms(instance, algorithms, seed=derive_seed(seed, "fig4", lam))
        ip_utility = reports["IP"].total_utility if "IP" in reports else max(
            report.total_utility for report in reports.values()
        )
        for name, report in reports.items():
            result.add_report(
                report,
                x=lam,
                social_weight=lam,
                normalized_utility=(report.total_utility / ip_utility if ip_utility > 0 else 0.0),
            )
    return result


# --------------------------------------------------------------------------- #
# Figures 5-7 — sensitivity on larger datasets
# --------------------------------------------------------------------------- #
def figure5_large_users(
    values: Sequence[int] = (15, 25, 35),
    *,
    num_items: int = 60,
    num_slots: int = 5,
    seed: SeedLike = 2,
    repetitions: int = 1,
    executor: Optional[Executor] = None,
    store: Optional[object] = None,
) -> ExperimentResult:
    """Figure 5: total SAVG utility vs the size of the user set on Timik-like data."""
    factory = InstanceSweepFactory(
        dataset="timik", vary="n", num_items=num_items, num_slots=num_slots
    )
    return sweep(
        "figure5", "total SAVG utility vs n (Timik-like)", values, factory,
        default_algorithms(), seed=seed, repetitions=repetitions, x_label="n",
        executor=executor, store=store,
    )


def figure6_datasets(
    dataset_names: Sequence[str] = ("timik", "epinions", "yelp"),
    *,
    num_users: int = 25,
    num_items: int = 60,
    num_slots: int = 5,
    seed: SeedLike = 3,
    executor: Optional[Executor] = None,
    store: Optional[object] = None,
) -> ExperimentResult:
    """Figure 6: total SAVG utility on the three dataset styles."""
    factory = InstanceSweepFactory(
        vary="dataset", num_users=num_users, num_items=num_items, num_slots=num_slots
    )
    return sweep(
        "figure6", "total SAVG utility per dataset", dataset_names, factory,
        default_algorithms(), seed=seed, x_label="dataset", executor=executor,
        store=store,
    )


def figure7_input_models(
    models: Sequence[str] = ("piert", "agree", "gree"),
    *,
    num_users: int = 25,
    num_items: int = 60,
    num_slots: int = 5,
    seed: SeedLike = 4,
    executor: Optional[Executor] = None,
    store: Optional[object] = None,
) -> ExperimentResult:
    """Figure 7: total SAVG utility for inputs generated by different learning models."""
    factory = InstanceSweepFactory(
        dataset="timik", vary="model", num_users=num_users,
        num_items=num_items, num_slots=num_slots,
    )
    return sweep(
        "figure7", "total SAVG utility per utility learning model", models, factory,
        default_algorithms(), seed=seed, x_label="model", executor=executor,
        store=store,
    )


# --------------------------------------------------------------------------- #
# Figure 8 — scalability (execution time) on Yelp-like data
# --------------------------------------------------------------------------- #
def figure8_scalability(
    vary: str = "n",
    values: Optional[Sequence[int]] = None,
    *,
    base_users: int = 20,
    base_items: int = 60,
    num_slots: int = 4,
    seed: SeedLike = 5,
    executor: Optional[Executor] = None,
    store: Optional[object] = None,
) -> ExperimentResult:
    """Figure 8(a)(b): execution time vs n / m on Yelp-like data (no IP — it times out)."""
    if vary not in {"n", "m"}:
        raise ValueError("vary must be 'n' or 'm'")
    if values is None:
        values = [15, 25, 35] if vary == "n" else [40, 80, 120]

    factory = InstanceSweepFactory(
        dataset="yelp", vary=vary, num_users=base_users,
        num_items=base_items, num_slots=num_slots,
    )
    return sweep(
        f"figure8-{vary}", f"execution time vs {vary} (Yelp-like)", values, factory,
        default_algorithms(), seed=seed, x_label=vary, executor=executor,
        store=store,
    )


# --------------------------------------------------------------------------- #
# Figure 9 — anytime MIP strategies and the AVG speed-up ablation
# --------------------------------------------------------------------------- #
def figure9a_ip_strategies(
    *,
    num_users: int = 10,
    num_items: int = 25,
    num_slots: int = 3,
    budget_multipliers: Sequence[float] = (5.0, 20.0, 50.0),
    seed: SeedLike = 6,
) -> ExperimentResult:
    """Figure 9(a): quality of exact MIP strategies under running-time budgets.

    The paper gives Gurobi 200x/1000x/5000x the AVG-D runtime; we use smaller
    multipliers (the instance is smaller) and three strategies: HiGHS
    branch-and-cut, and the in-repo branch-and-bound in best-first and
    depth-first mode.  Objectives are normalized by the AVG-D objective.
    """
    instance = datasets.make_instance(
        "timik", num_users=num_users, num_items=num_items, num_slots=num_slots,
        seed=derive_seed(seed, "fig9a"),
    )
    result = ExperimentResult(
        "figure9a", "MIP strategies under time budgets (objective normalized by AVG-D)",
        parameters={"budget_multipliers": list(budget_multipliers)},
    )
    reference = run_avg_d(instance)
    result.add_row(algorithm="AVG-D", x=1.0, budget_multiplier=1.0,
                   normalized_objective=1.0, seconds=reference.seconds,
                   total_utility=reference.objective)
    baseline_seconds = max(reference.seconds, 1e-3)
    for multiplier in budget_multipliers:
        budget = baseline_seconds * multiplier
        for solver in ("highs", "bnb-best", "bnb-depth"):
            try:
                run = solve_exact(instance, time_limit=budget, solver=solver)
                normalized = run.objective / reference.objective
                utility, seconds, optimal = run.objective, run.seconds, run.optimal
            except Exception:  # no incumbent within the budget ("cannot terminate")
                normalized, utility, seconds, optimal = 0.0, 0.0, budget, False
            result.add_row(
                algorithm=f"IP-{solver}",
                x=multiplier,
                budget_multiplier=multiplier,
                normalized_objective=normalized,
                total_utility=utility,
                seconds=seconds,
                optimal=optimal,
            )
    return result


def figure9b_speedup_strategies(
    *,
    num_users: int = 15,
    num_items: int = 40,
    num_slots: int = 4,
    seed: SeedLike = 7,
) -> ExperimentResult:
    """Figure 9(b): effect of the advanced LP transformation and advanced sampling.

    Variants: AVG / AVG-D with both enhancements, without the LP
    transformation (full per-slot LP, "-ALP"), and without advanced focal
    sampling ("-AS").
    """
    instance = datasets.make_instance(
        "timik", num_users=num_users, num_items=num_items, num_slots=num_slots,
        seed=derive_seed(seed, "fig9b"),
    )
    generator = ensure_rng(seed)
    result = ExperimentResult(
        "figure9b", "effect of the speed-up strategies on runtime and utility"
    )
    variants = [
        ("AVG", dict(lp_formulation="simplified", advanced_sampling=True)),
        ("AVG-ALP", dict(lp_formulation="full", advanced_sampling=True)),
        ("AVG-AS", dict(lp_formulation="simplified", advanced_sampling=False)),
        ("AVG-D", dict(lp_formulation="simplified", advanced_sampling=True)),
        ("AVG-D-ALP", dict(lp_formulation="full", advanced_sampling=True)),
        ("AVG-D-AS", dict(lp_formulation="simplified", advanced_sampling=False)),
    ]
    for name, options in variants:
        if name.startswith("AVG-D"):
            run = run_avg_d(instance, algorithm_name=name, **options)
        else:
            run = run_avg(instance, rng=generator, algorithm_name=name, **options)
        result.add_row(
            algorithm=name,
            total_utility=run.objective,
            seconds=run.seconds,
            lp_seconds=run.info.get("lp_seconds", 0.0),
            lp_formulation=run.info.get("lp_formulation"),
            advanced_sampling=run.info.get("advanced_sampling"),
        )
    return result


# --------------------------------------------------------------------------- #
# Figure 10 — subgroup metrics and regret CDFs per dataset
# --------------------------------------------------------------------------- #
def figure10_subgroup_metrics(
    dataset_names: Sequence[str] = ("timik", "epinions", "yelp"),
    *,
    num_users: int = 25,
    num_items: int = 60,
    num_slots: int = 5,
    seed: SeedLike = 8,
    regret_grid: Optional[Sequence[float]] = None,
) -> ExperimentResult:
    """Figure 10(a-i): Inter/Intra%, normalized density, Co-display%, Alone%, regret CDF."""
    result = ExperimentResult(
        "figure10", "subgroup metrics and regret-ratio CDFs per dataset"
    )
    algorithms = default_algorithms()
    if regret_grid is None:
        regret_grid = np.linspace(0.0, 1.0, 11)
    for dataset in dataset_names:
        instance = datasets.make_instance(
            dataset, num_users=num_users, num_items=num_items, num_slots=num_slots,
            seed=derive_seed(seed, "fig10", dataset),
        )
        reports = run_algorithms(instance, algorithms, seed=derive_seed(seed, "fig10run", dataset))
        for name, report in reports.items():
            grid, cdf = regret_cdf(report.regrets, regret_grid)
            result.add_report(
                report,
                x=dataset,
                dataset=dataset,
                regret_grid=[float(g) for g in grid],
                regret_cdf=[float(c) for c in cdf],
            )
    return result


# --------------------------------------------------------------------------- #
# Figure 11 — ego-network case study
# --------------------------------------------------------------------------- #
def figure11_case_study(
    *,
    seed: SeedLike = 9,
    num_items: int = 30,
    num_slots: int = 3,
    max_users: int = 8,
) -> ExperimentResult:
    """Figure 11: 2-hop ego-network case study comparing AVG, SDP and GRF subgroups."""
    instance = datasets.ego_network_instance(
        "yelp", num_items=num_items, num_slots=num_slots, max_users=max_users,
        seed=derive_seed(seed, "fig11"),
    )
    result = ExperimentResult(
        "figure11", "2-hop ego network case study (per-slot subgroups and per-user regret)",
        parameters={"num_users": instance.num_users},
    )
    runs = {
        "AVG": run_avg(instance, rng=derive_seed(seed, "avg")),
        "SDP": run_sdp(instance),
        "GRF": run_grf(instance, rng=derive_seed(seed, "grf")),
    }
    for name, run in runs.items():
        regrets = regret_ratios(instance, run.configuration)
        focal_user = int(np.argmax(regrets))
        for slot in range(instance.num_slots):
            groups = run.configuration.subgroups_at_slot(slot)
            result.add_row(
                algorithm=name,
                slot=slot,
                subgroups={int(item): members for item, members in groups.items()},
                focal_user=focal_user,
                focal_user_regret=float(regrets[focal_user]),
                mean_regret=float(np.mean(regrets)),
                total_utility=run.objective,
            )
    return result


# --------------------------------------------------------------------------- #
# Figure 12 — sensitivity of AVG-D to the balancing ratio r
# --------------------------------------------------------------------------- #
def figure12_r_sensitivity(
    ratios: Sequence[float] = (0.0, 0.1, 0.25, 0.5, 0.7, 1.0, 1.5, 2.0),
    *,
    num_users: int = 12,
    num_items: int = 30,
    num_slots: int = 3,
    seed: SeedLike = 10,
    include_ip: bool = True,
    ip_time_limit: float = 30.0,
    executor: Optional[Executor] = None,
    store: Optional[object] = None,
) -> ExperimentResult:
    """Figure 12(a-d): AVG-D utility / time / subgroup structure as a function of r.

    Compiled onto the :func:`~repro.experiments.harness.grid` plan/executor
    path (the last sweep-based figure that still ran closures inline): the
    x-axis is the balancing ratio, bound to AVG-D's ``balancing_ratio``
    kwarg through a payload column binding, while a
    :class:`FixedInstanceFactory` holds the instance constant — so the
    whole scan shares one instance fingerprint and the executor's LP store
    pays a single LP relaxation solve for all ratios (persisted across
    invocations when a ``store=`` is passed).  The IP optimum used
    for the optimality series is solved once, outside the plan.
    """
    factory = FixedInstanceFactory(
        dataset="timik",
        num_users=num_users,
        num_items=num_items,
        num_slots=num_slots,
        seed=derive_seed(seed, "fig12"),
    )
    result = grid(
        "figure12",
        "AVG-D sensitivity to the balancing ratio r",
        list(ratios),
        [factory.dataset],
        factory,
        registry.build_runners(["AVG-D"]),
        seed=seed,
        x_label="balancing_ratio",
        y_label="dataset",
        bindings={"AVG-D": {"balancing_ratio": "balancing_ratio"}},
        executor=executor,
        store=store,
    )
    result.parameters["ratios"] = list(ratios)
    optimum = None
    if include_ip:
        optimum = solve_exact(factory(None, 0), time_limit=ip_time_limit).objective
    for row in result.rows:
        row["optimal_utility"] = optimum
        row["optimality"] = (row["total_utility"] / optimum) if optimum else None
    return result


# --------------------------------------------------------------------------- #
# Figures 13-15 — SVGIC-ST (size-constraint violations and utility)
# --------------------------------------------------------------------------- #
def _st_baselines(prepartition: bool) -> Dict[str, object]:
    """The four ST-safe baseline recommenders, resolved from the registry.

    ``build_runners`` raises on unknown names, so a registration regression
    fails fast instead of silently dropping a figure series.
    """
    return registry.build_runners(["PER", "FMG", "SDP", "GRF"])


def figure13_st_violations(
    size_limits: Sequence[int] = (3, 5, 8),
    *,
    dataset: str = "timik",
    num_users: int = 15,
    num_items: int = 40,
    num_slots: int = 4,
    seed: SeedLike = 11,
    num_instances: int = 3,
) -> ExperimentResult:
    """Figure 13: total size-constraint violations, baselines with/without pre-partitioning."""
    result = ExperimentResult(
        "figure13", "SVGIC-ST size-constraint violations vs M",
        parameters={"size_limits": list(size_limits), "num_instances": num_instances},
    )
    for limit in size_limits:
        totals: Dict[str, int] = {}
        feasible_counts: Dict[str, int] = {}
        for index in range(num_instances):
            instance = datasets.make_st_instance(
                dataset, num_users=num_users, num_items=num_items, num_slots=num_slots,
                max_subgroup_size=limit, seed=derive_seed(seed, "fig13", limit, index),
            )
            runs: Dict[str, object] = {}
            runs["AVG"] = run_avg(instance, rng=derive_seed(seed, "avg", limit, index))
            for name, runner in _st_baselines(False).items():
                runs[f"{name}-NP"] = runner(instance)
                runs[f"{name}-P"] = run_with_prepartition(
                    runner, instance, rng=derive_seed(seed, "pp", limit, index)
                )
            for name, run in runs.items():
                report = size_violation_report(instance, run.configuration)
                totals[name] = totals.get(name, 0) + report.excess_users
                feasible_counts[name] = feasible_counts.get(name, 0) + int(report.feasible)
        for name in totals:
            result.add_row(
                algorithm=name,
                x=limit,
                size_limit=limit,
                total_violation=totals[name],
                feasibility_ratio=feasible_counts[name] / num_instances,
            )
    return result


def figure14_15_st_utility(
    size_limits: Sequence[int] = (3, 5, 15),
    *,
    dataset: str = "timik",
    num_users: int = 15,
    num_items: int = 40,
    num_slots: int = 4,
    seed: SeedLike = 12,
) -> ExperimentResult:
    """Figures 14/15: total SAVG utility under the size constraint (infeasible runs score 0)."""
    result = ExperimentResult(
        f"figure14-15-{dataset}", f"SVGIC-ST utility vs M ({dataset}-like, n={num_users})",
        parameters={"size_limits": list(size_limits)},
    )
    for limit in size_limits:
        # Same underlying population for every cap; only M changes.
        instance = datasets.make_st_instance(
            dataset, num_users=num_users, num_items=num_items, num_slots=num_slots,
            max_subgroup_size=limit, seed=derive_seed(seed, "fig1415", dataset),
        )
        runs: Dict[str, object] = {
            "AVG": run_avg(instance, rng=derive_seed(seed, "avg", limit), repetitions=5)
        }
        for name, runner in _st_baselines(True).items():
            runs[name] = run_with_prepartition(
                runner, instance, rng=derive_seed(seed, "pp", limit)
            )
        for name, run in runs.items():
            report = size_violation_report(instance, run.configuration)
            utility = run.objective if report.feasible else 0.0
            result.add_row(
                algorithm=name,
                x=limit,
                size_limit=limit,
                total_utility=utility,
                raw_utility=run.objective,
                feasible=report.feasible,
                preference_utility=run.breakdown.preference,
                social_utility=run.breakdown.social + run.breakdown.indirect_social,
            )
    return result


# --------------------------------------------------------------------------- #
# Figure 16 — simulated user study
# --------------------------------------------------------------------------- #
def figure16_user_study(
    *,
    num_participants: int = 24,
    num_items: int = 30,
    num_slots: int = 4,
    seed: SeedLike = 13,
) -> ExperimentResult:
    """Figure 16(a-d): simulated user study — lambda distribution, utility vs satisfaction, metrics."""
    population = generate_population(
        num_participants, num_items=num_items, num_slots=num_slots, seed=derive_seed(seed, "pop")
    )
    instance = population.instance
    result = ExperimentResult(
        "figure16", "simulated user study",
        parameters={
            "num_participants": num_participants,
            "lambda_mean": float(np.mean(population.user_lambdas)),
            "lambda_min": float(np.min(population.user_lambdas)),
            "lambda_max": float(np.max(population.user_lambdas)),
            "user_lambdas": [float(v) for v in population.user_lambdas],
        },
    )
    runs = {
        "AVG": run_avg(instance, rng=derive_seed(seed, "avg"), repetitions=10),
        "PER": run_per(instance),
        "FMG": run_fmg(instance),
        "GRF": run_grf(instance, rng=derive_seed(seed, "grf")),
    }
    utilities: List[float] = []
    satisfactions: List[float] = []
    for name, run in runs.items():
        scores = simulate_satisfaction(instance, run.configuration, rng=derive_seed(seed, "sat", name))
        metrics = subgroup_metrics(instance, run.configuration)
        per_user = regret_ratios(instance, run.configuration)
        utilities.extend([run.objective] * len(scores))
        satisfactions.extend([float(s) for s in scores])
        result.add_row(
            algorithm=name,
            total_utility=run.objective,
            mean_satisfaction=float(np.mean(scores)),
            satisfaction_scores=[float(s) for s in scores],
            co_display_pct=100.0 * metrics.co_display_ratio,
            alone_pct=100.0 * metrics.alone_ratio,
            normalized_density=metrics.normalized_density,
            intra_pct=100.0 * metrics.intra_edge_ratio,
            inter_pct=100.0 * metrics.inter_edge_ratio,
            mean_regret=float(np.mean(per_user)),
        )
    correlations = correlation_report(
        [row["total_utility"] for row in result.rows],
        [row["mean_satisfaction"] for row in result.rows],
    )
    result.parameters["correlations"] = correlations
    return result


# --------------------------------------------------------------------------- #
# Table / example reproductions and theory experiments
# --------------------------------------------------------------------------- #
def table_paper_example(*, seed: SeedLike = 14) -> ExperimentResult:
    """Tables 7-9 / Examples 4-5: every approach on the paper's running example."""
    instance = paper_example_instance()
    fractional = solve_lp_relaxation(instance, prune_items=False)
    result = ExperimentResult(
        "paper-example", "running example of the paper (scaled utilities; Tables 7-9)",
        parameters={"lp_upper_bound_scaled": fractional.scaled_objective(instance)},
    )
    runs = {
        "IP": solve_exact(instance, prune_items=False),
        "AVG": run_avg(instance, fractional, rng=derive_seed(seed, "avg"), repetitions=10),
        "AVG-D": run_avg_d(instance, fractional, balancing_ratio=1.0),
        "PER": run_per(instance),
        "FMG": run_fmg(instance, fairness_weight=0.0),
        "SDP": run_sdp(instance, communities=partition_indices(instance, FRIENDSHIP_PARTITION)),
        "GRF": run_grf(instance, clusters=partition_indices(instance, PREFERENCE_PARTITION)),
    }
    for name, run in runs.items():
        result.add_row(
            algorithm=name,
            scaled_utility=run.scaled_objective(instance),
            total_utility=run.objective,
            seconds=run.seconds,
            configuration=run.configuration.to_table(instance),
        )
    return result


def theorem1_gaps(
    sizes: Sequence[int] = (3, 5, 8),
    *,
    num_slots: int = 2,
    seed: SeedLike = 15,
) -> ExperimentResult:
    """Theorem 1: measured OPT / OPT_group and OPT / OPT_personalized gaps on I_G and I_P."""
    result = ExperimentResult("theorem1", "optimality gaps of the group/personalized special cases")
    for n in sizes:
        ig = adversarial.group_gap_instance(n, num_slots)
        opt_ig = solve_exact(ig, prune_items=False).objective
        group_ig = run_fmg(ig, fairness_weight=0.0).objective
        result.add_row(
            algorithm="group-gap", x=n, n=n, instance="I_G",
            opt=opt_ig, special=group_ig,
            ratio=opt_ig / group_ig if group_ig > 0 else float("inf"),
            expected_ratio=float(n),
        )
        ip_inst = adversarial.personalized_gap_instance(n, num_slots)
        opt_ip = run_fmg(ip_inst, fairness_weight=0.0).objective  # all-common itemset is optimal here
        per_ip = run_per(ip_inst).objective
        lam = ip_inst.social_weight
        result.add_row(
            algorithm="personalized-gap", x=n, n=n, instance="I_P",
            opt=opt_ip, special=per_ip,
            ratio=opt_ip / per_ip if per_ip > 0 else float("inf"),
            expected_ratio=1.0 + lam / (1.0 - lam) * (n - 1) / 2.0,
        )
    return result


def lemma3_independent_rounding(
    item_counts: Sequence[int] = (4, 8, 16),
    *,
    num_users: int = 6,
    num_slots: int = 2,
    seed: SeedLike = 16,
    repetitions: int = 5,
) -> ExperimentResult:
    """Lemma 3: independent rounding achieves ~1/m of the optimum on the indifferent instance."""
    result = ExperimentResult(
        "lemma3", "independent rounding vs CSF on the indifferent-preference instance"
    )
    generator = ensure_rng(seed)
    for m in item_counts:
        instance = adversarial.indifferent_instance(num_users, m, num_slots)
        fractional = solve_lp_relaxation(instance, prune_items=False)
        optimum = instance.social_weight * (
            num_users * (num_users - 1) * 1.0 * num_slots
        )  # co-display everyone on a distinct item per slot
        independent_values = []
        csf_values = []
        for _ in range(repetitions):
            independent_values.append(
                run_independent_rounding(instance, fractional, rng=generator).objective
            )
            csf_values.append(run_avg(instance, fractional, rng=generator).objective)
        result.add_row(
            algorithm="independent", x=m, num_items=m,
            total_utility=float(np.mean(independent_values)),
            fraction_of_optimum=float(np.mean(independent_values)) / optimum,
            optimum=optimum,
        )
        result.add_row(
            algorithm="AVG", x=m, num_items=m,
            total_utility=float(np.mean(csf_values)),
            fraction_of_optimum=float(np.mean(csf_values)) / optimum,
            optimum=optimum,
        )
    return result


__all__ = [
    "InstanceSweepFactory",
    "FixedInstanceFactory",
    "figure3_small_datasets",
    "figure4_lambda",
    "figure5_large_users",
    "figure6_datasets",
    "figure7_input_models",
    "figure8_scalability",
    "figure9a_ip_strategies",
    "figure9b_speedup_strategies",
    "figure10_subgroup_metrics",
    "figure11_case_study",
    "figure12_r_sensitivity",
    "figure13_st_violations",
    "figure14_15_st_utility",
    "figure16_user_study",
    "table_paper_example",
    "theorem1_gaps",
    "lemma3_independent_rounding",
]
