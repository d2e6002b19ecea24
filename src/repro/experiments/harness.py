"""Experiment harness: registry line-ups, declarative sweep plans, result tables.

Everything in Section 6 follows the same pattern — build instances, run a
set of algorithms, collect utility / time / subgroup metrics.  The harness
factors that pattern out so each figure in :mod:`repro.experiments.figures`
is a short declarative function.

The harness is layered over three separable pieces:

* **Line-ups** are *queries over the registry*
  (:mod:`repro.core.registry`): :func:`default_algorithms` resolves the
  paper's seven-way comparison to registered specs instead of hand-built
  lambdas, and any registered name (baselines, ``extension``-tagged
  variants, local-search hybrids) can be mixed into the same dictionary.
* **Plans**: :func:`sweep` (1-D) and :func:`grid` (2-D) first *compile*
  the experiment into a :class:`~repro.experiments.executor.SweepPlan` —
  picklable :class:`~repro.experiments.executor.SweepJob` records carrying
  the sweep value, repetition, derived seed and the line-up as serializable
  name+kwargs payloads.  A plan can be inspected, sliced and shipped to
  workers before anything runs; :func:`run_plan` executes one and
  aggregates the rows.
* **Executors** (:mod:`repro.experiments.executor`) decide *where* jobs
  run: the default :class:`~repro.experiments.executor.SerialExecutor`
  executes in plan order in-process, and
  :class:`~repro.experiments.scheduler.WorkStealingExecutor` fans out over
  a process pool — grouped by instance affinity so the per-instance
  :class:`~repro.core.pipeline.SolveContext` LP reuse survives, with
  deterministic result reassembly, so both executors produce identical
  tables for the same plan.

:func:`run_algorithms` remains the single-instance entry point: one shared
:class:`SolveContext` per instance, a single simplified-LP relaxation solve
for the whole line-up, and a per-algorithm derived seed so results are
independent of line-up order.  :class:`ExperimentResult` tables round-trip
through JSON (:meth:`ExperimentResult.to_json` /
:meth:`ExperimentResult.from_json`), so parallel runs and CI benchmarks can
dump self-describing results.

Metric computation sits on the vectorized objective engine
(:mod:`repro.core.objective`), so the per-sweep-point cost is dominated by
the algorithms themselves (LP solves, rounding passes), not by evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.registry import build_runners, names_by_tag
from repro.core.result import AlgorithmResult
from repro.experiments.executor import (
    Executor,
    InstanceFactory,
    JobResult,
    SerialExecutor,
    SweepPlan,
    compile_grid,
    compile_sweep,
    run_algorithms,  # noqa: F401 — the harness's documented dispatch entry point
)
from repro.metrics.evaluation import EvaluationReport, evaluation_table
from repro.utils.rng import SeedLike

AlgorithmRunner = Callable[..., AlgorithmResult]

#: Display order of the paper's line-up (registry tags are unordered sets).
_PAPER_ORDER = ("AVG", "AVG-D", "PER", "FMG", "SDP", "GRF", "IP")


def default_algorithms(
    *,
    include_ip: bool = False,
    ip_time_limit: Optional[float] = 30.0,
    avg_repetitions: int = 3,
    avg_d_ratio: float = 1.0,
) -> Dict[str, AlgorithmRunner]:
    """The paper's algorithm line-up: AVG, AVG-D, PER, FMG, SDP, GRF (+ optional IP).

    A thin registry query: every name is resolved from the ``paper`` tag and
    bound with the experiment-level defaults (AVG repetitions, AVG-D
    balancing ratio, IP time limit).  The returned runners accept an
    optional shared solve context (``runner(instance, rng=..., context=...)``).
    """
    tagged = set(names_by_tag("paper"))
    names = [name for name in _PAPER_ORDER if name in tagged]
    if not include_ip:
        names.remove("IP")
    overrides = {
        "AVG": {"repetitions": avg_repetitions},
        "AVG-D": {"balancing_ratio": avg_d_ratio},
        "IP": {"time_limit": ip_time_limit},
    }
    return build_runners(names, overrides)


@dataclass
class ExperimentResult:
    """A table of experiment rows plus presentation helpers.

    ``rows`` is a list of flat dictionaries (one per algorithm per sweep
    point); ``parameters`` records the experiment configuration so results
    are self-describing when dumped.
    """

    name: str
    description: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    parameters: Dict[str, Any] = field(default_factory=dict)

    def add_report(self, report: EvaluationReport, **extra: Any) -> None:
        """Append an evaluation report (flattened) with extra sweep columns."""
        row = report.as_row()
        row.update(extra)
        self.rows.append(row)

    def add_row(self, **columns: Any) -> None:
        """Append a raw row."""
        self.rows.append(dict(columns))

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def filter(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Rows matching all ``column=value`` criteria."""
        matched = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in criteria.items()):
                matched.append(row)
        return matched

    def pivot(self, index: str, column: str, value: str) -> Dict[Any, Dict[Any, Any]]:
        """Nested dict ``{index_value: {column_value: value}}`` for series plots."""
        table: Dict[Any, Dict[Any, Any]] = {}
        for row in self.rows:
            table.setdefault(row.get(index), {})[row.get(column)] = row.get(value)
        return table

    def best_algorithm(self, *, by: str = "total_utility", at: Optional[Dict[str, Any]] = None) -> str:
        """Name of the algorithm with the largest ``by`` value (optionally at one sweep point)."""
        rows = self.rows if at is None else self.filter(**at)
        if not rows:
            raise ValueError("no rows match the given criteria")
        best = max(rows, key=lambda row: row.get(by, -np.inf))
        return str(best.get("algorithm"))

    def to_text(self, columns: Optional[Sequence[str]] = None, *, precision: int = 3) -> str:
        """Aligned text rendering of all rows."""
        if not self.rows:
            return f"{self.name}: (no rows)"
        if columns is None:
            # Keep a stable, informative default ordering.
            preferred = [
                "algorithm",
                "x",
                "total_utility",
                "personal_pct",
                "social_pct",
                "co_display_pct",
                "alone_pct",
                "mean_regret",
                "seconds",
            ]
            present = set()
            for row in self.rows:
                present.update(row.keys())
            columns = [c for c in preferred if c in present]
            columns += [c for c in sorted(present) if c not in columns][:4]
        header = list(columns)
        lines: List[List[str]] = [header]
        for row in self.rows:
            cells = []
            for column in header:
                value = row.get(column, "")
                if isinstance(value, float):
                    cells.append(f"{value:.{precision}f}")
                else:
                    cells.append(str(value))
            lines.append(cells)
        widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
        rendered = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)) for line in lines]
        separator = "  ".join("-" * width for width in widths)
        title = f"== {self.name} — {self.description} =="
        return "\n".join([title, rendered[0], separator] + rendered[1:])

    #: Row columns that are never reproducible across runs (wall-clock).
    NONDETERMINISTIC_COLUMNS = ("seconds",)

    def comparable_rows(self) -> List[Dict[str, Any]]:
        """Rows with the non-reproducible (wall-clock) columns removed.

        Two runs of the same plan — serial, parallel, or on another machine
        — must agree on these rows exactly; the equivalence tests and the
        parallel-sweep benchmark compare them.
        """
        return [
            {
                key: value
                for key, value in row.items()
                if key not in self.NONDETERMINISTIC_COLUMNS
            }
            for row in self.rows
        ]

    # -- persistence ----------------------------------------------------- #
    FORMAT = "repro.experiment-result.v1"

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """Self-describing JSON dump of the full result table.

        NumPy scalars and arrays are converted to plain Python values, so
        parallel runs and CI benchmarks can persist tables without custom
        encoders.  Round-trips through :meth:`from_json` (with arrays coming
        back as lists, and non-string dict keys as strings — the JSON
        object-key limitation).
        """
        payload = {
            "format": self.FORMAT,
            "name": self.name,
            "description": self.description,
            "parameters": _jsonify(self.parameters),
            "rows": _jsonify(self.rows),
        }
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild an :class:`ExperimentResult` from a :meth:`to_json` dump."""
        payload = json.loads(text)
        if payload.get("format") != cls.FORMAT:
            raise ValueError(
                f"not an experiment-result dump (format={payload.get('format')!r}, "
                f"expected {cls.FORMAT!r})"
            )
        return cls(
            name=payload["name"],
            description=payload["description"],
            rows=list(payload.get("rows", [])),
            parameters=dict(payload.get("parameters", {})),
        )


def _jsonify(value: Any) -> Any:
    """Recursively convert NumPy containers/scalars to JSON-serializable values."""
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(item) for item in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _execute_with_progress(
    executor: Executor,
    plan: SweepPlan,
    progress: Optional[Callable[[JobResult], None]],
) -> List[JobResult]:
    """Run ``plan`` on ``executor``, invoking ``progress`` per finished job.

    With a progress callback the streaming ``iter_run`` path is used so the
    callback fires as each job *finishes* (resumed checkpoints included) —
    not after the whole sweep.  Executors without ``iter_run`` still work:
    the callback then fires per job once the batch returns.
    """
    if progress is None:
        return executor.run(plan)
    iter_run = getattr(executor, "iter_run", None)
    if iter_run is None:
        job_results = executor.run(plan)
        for job_result in job_results:
            progress(job_result)
        return job_results
    job_results = []
    for job_result in iter_run(plan):
        progress(job_result)
        job_results.append(job_result)
    return job_results


def run_plan(
    plan: SweepPlan,
    executor: Optional[Executor] = None,
    *,
    store: Optional[Any] = None,
    progress: Optional[Callable[[JobResult], None]] = None,
) -> ExperimentResult:
    """Execute a compiled :class:`SweepPlan` and aggregate rows per sweep point.

    The executor (default: a fresh :class:`SerialExecutor`) returns one
    :class:`JobResult` per job; rows are averaged over repetitions and
    emitted in plan order — value-major, then line-up order — regardless of
    how the executor scheduled the jobs.  Per-job execution provenance (LP
    solve/hit counters, worker PID, wall time) is kept under
    ``parameters["job_provenance"]``.

    ``store`` optionally names a persistent
    :class:`repro.store.ArtifactStore`: LP relaxation solves are reused
    across invocations and finished jobs are checkpointed for resume (see
    the executor docs).  It is bound to the default executor, or — for this
    run only — to a passed executor that does not already carry one (an
    executor's own store always wins; executors without store support
    raise rather than silently ignoring the argument).

    ``progress`` optionally names a callback invoked with each
    :class:`JobResult` as it finishes (the executor's streaming ``iter_run``
    path is used, so completion order — not plan order — drives the calls).
    A :class:`~repro.experiments.progress.ProgressAggregator` drops straight
    in.
    """
    if executor is None:
        executor = SerialExecutor(store=store)
        job_results = _execute_with_progress(executor, plan, progress)
    elif store is not None and getattr(executor, "store", None) is None:
        if not hasattr(executor, "store"):
            raise TypeError(
                f"executor {type(executor).__name__} does not support store=; "
                "construct it with the store or omit the argument"
            )
        if getattr(executor, "artifact_store", None):
            raise ValueError(
                "executor already holds in-memory artifacts from an earlier "
                "run; construct it with store= instead of binding one here"
            )
        executor.store = store
        try:
            job_results = _execute_with_progress(executor, plan, progress)
        finally:
            executor.store = None
    else:
        job_results = _execute_with_progress(executor, plan, progress)
    by_index: Dict[int, JobResult] = {jr.job_index: jr for jr in job_results}
    missing = [job.index for job in plan.jobs if job.index not in by_index]
    if missing:
        raise RuntimeError(
            f"executor {type(executor).__name__} returned no result for "
            f"job(s) {missing} of plan {plan.name!r}; refusing to aggregate a "
            "partial table"
        )
    result = aggregate_plan(plan, by_index)
    result.parameters["job_provenance"] = [jr.provenance for jr in job_results]
    return result


def aggregate_plan(
    plan: SweepPlan, results_by_index: Mapping[int, JobResult]
) -> ExperimentResult:
    """The table of ``plan`` over the finished jobs in ``results_by_index``.

    Rows come in plan order — value-major, then line-up order — each
    averaged over the sweep point's finished repetitions (the
    ``repetitions`` column records how many went in).  Sweep points with no
    finished job are skipped.  :func:`run_plan` and
    :meth:`~repro.experiments.progress.ProgressAggregator.result` both build
    their tables here.
    """
    result = ExperimentResult(
        name=plan.name,
        description=plan.description,
        # Copy list-valued parameters so annotating a result table never
        # mutates the plan it came from.
        parameters={
            key: list(value) if isinstance(value, list) else value
            for key, value in plan.parameters.items()
        },
    )
    # Group by the jobs' own value indices (not range(len(values))): subset
    # plans keep original indices, so sweep points survive slicing intact.
    for value_index in sorted({job.value_index for job in plan.jobs}):
        jobs = [
            job
            for job in plan.jobs
            if job.value_index == value_index and job.index in results_by_index
        ]
        if not jobs:
            continue
        jobs.sort(key=lambda job: job.rep)
        columns = dict(jobs[0].columns)
        for alg in jobs[0].algorithm_names:
            reports = [results_by_index[job.index].reports[alg] for job in jobs]
            averaged = _average_reports(reports)
            averaged.update(columns)
            averaged["algorithm"] = alg
            result.rows.append(averaged)
    return result


def sweep(
    name: str,
    description: str,
    values: Iterable[Any],
    instance_factory: InstanceFactory,
    algorithms: Mapping[str, AlgorithmRunner],
    *,
    seed: SeedLike = 0,
    repetitions: int = 1,
    x_label: str = "x",
    executor: Optional[Executor] = None,
    store: Optional[Any] = None,
    progress: Optional[Callable[[JobResult], None]] = None,
    bindings: Optional[Mapping[str, Mapping[str, str]]] = None,
) -> ExperimentResult:
    """Run every algorithm over a one-dimensional parameter sweep.

    ``instance_factory(value, rep_seed)`` must return the instance for one
    sweep point and repetition; metric rows are averaged over repetitions.
    The sweep is first compiled into a :class:`SweepPlan` of picklable jobs
    and then handed to ``executor`` (default: serial; pass a
    :class:`~repro.experiments.scheduler.WorkStealingExecutor` to fan out
    over a process pool — the table is identical either way).  ``store`` threads a
    persistent artifact store through the run (LP reuse across invocations
    plus job checkpoints; see :func:`run_plan`); ``progress`` streams each
    finished :class:`JobResult` to a callback (see :func:`run_plan` and
    :mod:`repro.experiments.progress`); ``bindings`` maps algorithm names
    to ``{kwarg: column label}`` records so the sweep coordinate can drive
    an algorithm parameter.
    """
    plan = compile_sweep(
        name,
        description,
        values,
        instance_factory,
        algorithms,
        seed=seed,
        repetitions=repetitions,
        x_label=x_label,
        bindings=bindings,
    )
    return run_plan(plan, executor, store=store, progress=progress)


def grid(
    name: str,
    description: str,
    x_values: Iterable[Any],
    y_values: Iterable[Any],
    instance_factory: InstanceFactory,
    algorithms: Mapping[str, AlgorithmRunner],
    *,
    seed: SeedLike = 0,
    repetitions: int = 1,
    x_label: str = "x",
    y_label: str = "y",
    executor: Optional[Executor] = None,
    store: Optional[Any] = None,
    progress: Optional[Callable[[JobResult], None]] = None,
    bindings: Optional[Mapping[str, Mapping[str, str]]] = None,
) -> ExperimentResult:
    """Run every algorithm over a two-dimensional parameter grid.

    The factory receives each grid point as one ``(x, y)`` tuple:
    ``instance_factory((x, y), rep_seed)``.  Rows carry both coordinates
    (``x_label``/``y_label`` plus the generic ``x``/``y``), so
    :meth:`ExperimentResult.pivot` can build heat-map style tables.
    ``store``, ``progress`` and ``bindings`` behave exactly as in
    :func:`sweep`.
    """
    plan = compile_grid(
        name,
        description,
        x_values,
        y_values,
        instance_factory,
        algorithms,
        seed=seed,
        repetitions=repetitions,
        x_label=x_label,
        y_label=y_label,
        bindings=bindings,
    )
    return run_plan(plan, executor, store=store, progress=progress)


def _average_reports(reports: Sequence[EvaluationReport]) -> Dict[str, Any]:
    """Average the numeric columns of several evaluation reports."""
    rows = [report.as_row() for report in reports]
    averaged: Dict[str, Any] = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        if all(isinstance(v, (int, float, bool, np.floating, np.integer)) for v in values):
            averaged[key] = float(np.mean([float(v) for v in values]))
        else:
            averaged[key] = values[0]
    averaged["repetitions"] = len(rows)
    return averaged


__all__ = [
    "AlgorithmRunner",
    "default_algorithms",
    "run_algorithms",
    "ExperimentResult",
    "run_plan",
    "aggregate_plan",
    "sweep",
    "grid",
    "evaluation_table",
]
