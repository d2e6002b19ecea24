"""Declarative sweep plans and pluggable (serial / process-pool) executors.

The experiment layer separates *what* a sweep runs from *how* it runs:

* :func:`compile_sweep` / :func:`compile_grid` turn a parameter sweep into a
  :class:`SweepPlan` — a list of picklable :class:`SweepJob` records (sweep
  value, repetition, derived seed, and the algorithm line-up resolved to
  :class:`~repro.core.registry.AlgorithmPayload` name+kwargs records, not
  closures).  A plan can be inspected (:meth:`SweepPlan.describe`), sliced
  (:meth:`SweepPlan.subset`) and shipped to worker processes.
* Executors run a plan's jobs and return :class:`JobResult` rows.
  :class:`SerialExecutor` executes in plan order in-process;
  :class:`~repro.experiments.scheduler.WorkStealingExecutor` fans affinity
  groups of jobs out over a process pool, keeping every job that builds the
  same instance on one worker (preserving the per-instance
  :class:`~repro.core.pipeline.SolveContext` LP reuse).  Both run each job
  through one step (:func:`_execute_job`: resume, run, checkpoint), so
  they cannot drift apart.  Workers rehydrate the algorithm registry
  simply by importing it — registration is an import-time side effect of
  the provider modules.
* Jobs share an **LP store** — anything exposing ``load_lp``/``save_lp``
  keyed by instance fingerprint and LP parameter key: when a factory
  rebuilds an identical instance for another repetition, its LP relaxation
  is loaded instead of re-solved (``lp_store_hits`` in the provenance
  counts the reuse).  Without a persistent ``store=`` the serial executor
  keeps one :class:`MemoryLPStore` across its runs and a pool worker keeps
  one per claimed group.
* Execution is **streaming and resumable**: :meth:`Executor.iter_run` yields
  :class:`JobResult` records as jobs finish (completion order, not plan
  order) and ``run()`` is a thin deterministic-reorder wrapper over the
  stream.  With a persistent ``store=``
  (:class:`repro.store.ArtifactStore`), every finished job is checkpointed
  under the plan's scope signature (:func:`plan_signature`) and its own
  content key (:func:`job_checkpoint_key`) the moment it completes, the
  same store serves as the LP store (so reuse spans invocations), and a
  re-run of the same plan resumes from the persisted results — an
  interrupted sweep completes only its unfinished jobs.

Seeding is order-independent by construction: each job derives its
repetition seed from ``(sweep name, value, rep)`` and each algorithm run
derives its generator from ``(rep seed, algorithm name)``, so a serial run
and any parallel schedule of the same plan produce identical tables.
:func:`repro.experiments.harness.sweep` is a thin wrapper: compile, execute,
aggregate.
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.core.lp import FractionalSolution
from repro.core.pipeline import SolveContext
from repro.core.problem import SVGICInstance
from repro.core.registry import AlgorithmPayload, AlgorithmRunner, runner_payloads
from repro.metrics.evaluation import EvaluationReport, evaluate_result
from repro.utils.rng import SeedLike, derive_seed, ensure_rng

InstanceFactory = Callable[[Any, int], SVGICInstance]


# --------------------------------------------------------------------------- #
# Jobs and plans
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepJob:
    """One unit of sweep work: one instance (sweep value × repetition).

    Jobs are pure data — picklable, inspectable, and independent of the plan
    that produced them.  ``columns`` carries the sweep-point labels merged
    into every result row of this job (e.g. ``{"n": 100, "x": 100}``).
    """

    index: int
    value: Any
    value_index: int
    rep: int
    rep_seed: int
    algorithms: Tuple[AlgorithmPayload, ...]
    columns: Mapping[str, Any] = field(default_factory=dict)

    @property
    def algorithm_names(self) -> Tuple[str, ...]:
        return tuple(payload.display_name for payload in self.algorithms)


@dataclass
class SweepPlan:
    """A compiled experiment: metadata plus the full job list.

    ``values`` keeps the distinct sweep points in presentation order;
    ``jobs`` holds one :class:`SweepJob` per (value, repetition) pair.
    """

    name: str
    description: str
    instance_factory: InstanceFactory
    jobs: List[SweepJob]
    values: List[Any]
    repetitions: int
    x_label: str = "x"
    y_label: Optional[str] = None
    parameters: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def algorithm_names(self) -> Tuple[str, ...]:
        return self.jobs[0].algorithm_names if self.jobs else ()

    def subset(self, indices: Iterable[int]) -> "SweepPlan":
        """A plan restricted to the jobs with the given ``index`` values.

        Kept jobs retain their original ``index``/``value_index``, so
        aggregated tables line up with the parent plan; the plan metadata
        (``values``, ``parameters``) is rebuilt to describe only what is
        actually left.
        """
        wanted = set(int(i) for i in indices)
        jobs = [job for job in self.jobs if job.index in wanted]
        # Recover kept values from the jobs themselves (their value_index is
        # the original compile's numbering), so subsets compose.
        by_value_index: Dict[int, Any] = {}
        for job in jobs:
            by_value_index.setdefault(job.value_index, job.value)
        kept_values = [by_value_index[vi] for vi in sorted(by_value_index)]
        parameters = dict(self.parameters)
        if "values" in parameters:
            parameters["values"] = kept_values
        if "x_values" in parameters:  # grid plans: values are (x, y) pairs
            parameters["x_values"] = [
                x for x in parameters["x_values"]
                if any(value[0] == x for value in kept_values)
            ]
        if "y_values" in parameters:
            parameters["y_values"] = [
                y for y in parameters["y_values"]
                if any(value[1] == y for value in kept_values)
            ]
        parameters["subset_of_jobs"] = len(self.jobs)
        return replace(self, jobs=jobs, values=kept_values, parameters=parameters)

    def describe(self) -> str:
        """Human-readable plan summary (what would run, before running it)."""
        lines = [
            f"plan {self.name!r}: {len(self.jobs)} job(s) over "
            f"{len(self.values)} value(s), {self.repetitions} repetition(s)",
            f"  algorithms: {', '.join(self.algorithm_names) or '(none)'}",
        ]
        labels = [self.x_label] + ([self.y_label] if self.y_label else [])
        for job in self.jobs:
            point = " ".join(
                f"{label}={job.columns.get(label, job.value)!r}" for label in labels
            )
            lines.append(
                f"  job {job.index}: {point} rep={job.rep} seed={job.rep_seed}"
            )
        return "\n".join(lines)


@dataclass
class JobResult:
    """Evaluated reports of one job plus execution provenance.

    ``reports`` is keyed by algorithm display name in line-up order;
    ``provenance`` records the job identity, the worker PID, wall time and
    the :class:`SolveContext` LP counters (``lp_solves``, ``lp_hits``,
    ``lp_store_hits``) so schedulers and benchmarks can assert the
    one-LP-solve-per-instance property.
    """

    job_index: int
    reports: Dict[str, EvaluationReport]
    provenance: Dict[str, Any] = field(default_factory=dict)


def compile_sweep(
    name: str,
    description: str,
    values: Iterable[Any],
    instance_factory: InstanceFactory,
    algorithms: Mapping[str, AlgorithmRunner],
    *,
    seed: SeedLike = 0,
    repetitions: int = 1,
    x_label: str = "x",
    bindings: Optional[Mapping[str, Mapping[str, str]]] = None,
) -> SweepPlan:
    """Compile a one-dimensional sweep into a :class:`SweepPlan`.

    ``instance_factory(value, rep_seed)`` must return the instance for one
    sweep point and repetition; the seed derivation matches the historical
    ``sweep()`` loop (``derive_seed(seed, name, str(value), rep)``), so
    compiled plans reproduce pre-plan experiment tables.  ``bindings``
    optionally maps algorithm display names to ``{kwarg: column label}``
    records resolved per job (see
    :class:`~repro.core.registry.AlgorithmPayload`), which lets a sweep scan
    an algorithm parameter instead of an instance dimension.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    values = list(values)
    payloads = runner_payloads(algorithms, bindings)
    jobs: List[SweepJob] = []
    for value_index, value in enumerate(values):
        for rep in range(repetitions):
            jobs.append(
                SweepJob(
                    index=len(jobs),
                    value=value,
                    value_index=value_index,
                    rep=rep,
                    rep_seed=derive_seed(seed, name, str(value), rep),
                    algorithms=payloads,
                    columns={x_label: value, "x": value},
                )
            )
    return SweepPlan(
        name=name,
        description=description,
        instance_factory=instance_factory,
        jobs=jobs,
        values=values,
        repetitions=repetitions,
        x_label=x_label,
        parameters={"values": list(values), "repetitions": repetitions},
    )


def compile_grid(
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
    bindings: Optional[Mapping[str, Mapping[str, str]]] = None,
) -> SweepPlan:
    """Compile a two-dimensional sweep (every ``(x, y)`` combination).

    The factory receives the point as one value: ``instance_factory((x, y),
    rep_seed)``.  Result rows carry both labelled coordinates plus the
    generic ``x`` / ``y`` columns used by the pivot helpers.  ``bindings``
    resolves algorithm kwargs from those columns per job, exactly as in
    :func:`compile_sweep`.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    x_values, y_values = list(x_values), list(y_values)
    points = [(x, y) for x in x_values for y in y_values]
    payloads = runner_payloads(algorithms, bindings)
    jobs: List[SweepJob] = []
    for value_index, (x, y) in enumerate(points):
        for rep in range(repetitions):
            jobs.append(
                SweepJob(
                    index=len(jobs),
                    value=(x, y),
                    value_index=value_index,
                    rep=rep,
                    rep_seed=derive_seed(seed, name, str(x), str(y), rep),
                    algorithms=payloads,
                    columns={x_label: x, y_label: y, "x": x, "y": y},
                )
            )
    return SweepPlan(
        name=name,
        description=description,
        instance_factory=instance_factory,
        jobs=jobs,
        values=points,
        repetitions=repetitions,
        x_label=x_label,
        y_label=y_label,
        parameters={
            "x_values": list(x_values),
            "y_values": list(y_values),
            "repetitions": repetitions,
        },
    )


def plan_signature(plan: SweepPlan) -> str:
    """Stable hash of a plan's *scope*: the namespace its checkpoints live in.

    Covers the instance factory, plan name and axis labels — everything a
    job's own checkpoint key (:func:`job_checkpoint_key`) does not.  The
    factory enters via its ``repr`` when that is deterministic (frozen
    dataclasses), falling back to its qualified name — factories whose
    behaviour changes without either changing are indistinguishable, so
    version such factories by renaming them or bumping a field.

    Repetitions and sweep values are deliberately *not* part of the scope:
    they are captured per job, so a re-compile with more values or more
    repetitions resumes every job it shares with the earlier run and
    executes only the new ones (and :meth:`SweepPlan.subset` runs share
    checkpoints with their parent plan).
    """
    factory = plan.instance_factory
    factory_repr = repr(factory)
    if " at 0x" in factory_repr:  # default object/function repr: memory address
        factory_repr = (
            f"{getattr(factory, '__module__', type(factory).__module__)}."
            f"{getattr(factory, '__qualname__', type(factory).__qualname__)}"
        )
    digest = hashlib.sha256()
    digest.update(factory_repr.encode("utf-8"))
    digest.update(repr((plan.name, plan.x_label, plan.y_label)).encode("utf-8"))
    return digest.hexdigest()


def job_checkpoint_key(job: SweepJob) -> str:
    """Content key of one job's persistent checkpoint within a plan's scope.

    Hashes everything that determines the job's result — sweep value,
    repetition, derived seed and the full algorithm payloads (names,
    overrides, column bindings) — but *not* the job's position in the plan,
    so :meth:`SweepPlan.subset` plans and extended recompiles (more values,
    more repetitions) share checkpoints with the original run even when job
    indices shift.  Executors renumber a resumed result to the current
    plan's indices (:func:`_as_resumed`).  Two plans sharing a scope can
    only collide on a key when the jobs would compute the same thing.
    """
    payloads = tuple(
        (
            payload.display_name,
            payload.registry_name,
            tuple(sorted(payload.overrides.items())),
            tuple(sorted(payload.bind.items())),
            None
            if payload.runner is None
            else getattr(payload.runner, "__qualname__", repr(payload.runner)),
        )
        for payload in job.algorithms
    )
    return hashlib.sha256(
        repr((job.value, job.rep, job.rep_seed, payloads)).encode("utf-8")
    ).hexdigest()


def _as_resumed(cached: "JobResult", job: SweepJob) -> "JobResult":
    """Renumber a checkpointed result to the resuming plan's job index.

    The checkpoint key is position-independent, so the stored ``job_index``
    reflects the plan that *wrote* it; aggregation maps results by the
    current plan's indices.
    """
    cached.job_index = job.index
    cached.provenance["job_index"] = job.index
    cached.provenance["resumed"] = True
    return cached


# --------------------------------------------------------------------------- #
# Job execution (shared by every executor and by the worker processes)
# --------------------------------------------------------------------------- #
def run_algorithms(
    instance: SVGICInstance,
    algorithms: Mapping[str, AlgorithmRunner],
    *,
    seed: SeedLike = None,
    context: Optional[SolveContext] = None,
) -> Dict[str, EvaluationReport]:
    """Run every algorithm on ``instance`` and evaluate all Section-6 metrics.

    One :class:`SolveContext` (created here unless supplied) is shared by
    all context-aware runners, so redundant LP relaxation solves are
    eliminated across the line-up.  Legacy runners — plain callables without
    the ``accepts_context`` marker — are still invoked as
    ``runner(instance, rng=...)``.

    Each algorithm draws from its own generator seeded by
    ``derive_seed(seed, name)``.  (Compatibility note: earlier versions
    threaded one shared generator sequentially through the line-up, which
    made stochastic results depend on dictionary insertion order; the
    per-algorithm derivation is order-independent — required for
    serial ≡ parallel sweep equivalence — so randomized algorithms return
    different, equally valid draws than they did under the old scheme.)

    A report's ``seconds`` is the algorithm's standalone time: a runner
    served the shared LP from the cache or the store is charged that LP's
    solve seconds, as if it had solved it, so which row pays the LP does
    not depend on line-up order or on which job reached the instance first.

    This is the single dispatch loop for the whole experiment layer:
    :func:`run_job` (and therefore every executor) routes through it, so
    serial and parallel sweeps cannot drift apart.
    """
    if isinstance(seed, (int, np.integer)):
        base_seed = int(seed)
    else:
        base_seed = int(ensure_rng(seed).integers(0, 2**31 - 1))
    if context is None:
        context = SolveContext(instance)
    reports: Dict[str, EvaluationReport] = {}
    for name, runner in algorithms.items():
        generator = ensure_rng(derive_seed(base_seed, name))
        if getattr(runner, "accepts_context", False):
            result = runner(instance, rng=generator, context=context)
        else:
            result = runner(instance, rng=generator)
        report = evaluate_result(instance, result)
        if result.info.get("lp_cache_hit"):
            report.seconds += float(result.info["lp_seconds"])
        reports[name] = report
    return reports


def run_job(
    instance_factory: InstanceFactory,
    job: SweepJob,
    lp_store: Optional[Any] = None,
) -> JobResult:
    """Build the job's instance, rehydrate its runners, dispatch the line-up.

    One :class:`SolveContext` is shared by all of the job's context-aware
    runners.  ``lp_store`` (a :class:`MemoryLPStore`, a persistent
    :class:`repro.store.ArtifactStore`, or anything exposing
    ``load_lp``/``save_lp``) is given to that context: LP solutions are
    loaded lazily per parameter key and written through as they are
    solved, and reuses count into the ``lp_store_hits`` provenance counter.
    Dispatch happens through :func:`run_algorithms`, so each algorithm
    draws from its own ``derive_seed(rep_seed, name)`` generator and
    results do not depend on line-up order or scheduling.
    """
    started = time.perf_counter()
    instance = instance_factory(job.value, job.rep_seed)
    context = SolveContext(instance, store=lp_store)
    runners = {
        payload.display_name: payload.rehydrate(columns=job.columns)
        for payload in job.algorithms
    }
    reports = run_algorithms(instance, runners, seed=job.rep_seed, context=context)

    elapsed = time.perf_counter() - started
    provenance: Dict[str, Any] = {
        "job_index": job.index,
        "value": job.value,
        "rep": job.rep,
        "pid": os.getpid(),
        "seconds": elapsed,
    }
    provenance.update(context.stats())
    return JobResult(job_index=job.index, reports=reports, provenance=provenance)


class MemoryLPStore:
    """In-process LP store: solutions keyed by ``(fingerprint, LP key)``.

    The in-memory counterpart of :class:`repro.store.ArtifactStore`'s
    ``load_lp``/``save_lp`` surface, backing sweeps run without a
    persistent ``store=``.  A pure cache: entries are shared, not copied.
    """

    def __init__(self) -> None:
        self._solutions: Dict[Tuple[str, Tuple[Any, ...]], FractionalSolution] = {}

    def load_lp(self, fingerprint: str, key: Tuple[Any, ...]) -> Optional[FractionalSolution]:
        return self._solutions.get((fingerprint, key))

    def save_lp(self, fingerprint: str, key: Tuple[Any, ...], solution: FractionalSolution) -> None:
        self._solutions[(fingerprint, key)] = solution

    def __len__(self) -> int:
        return len(self._solutions)


def _execute_job(
    instance_factory: InstanceFactory,
    job: SweepJob,
    backing: Optional[Any],
    store: Optional[Any],
    signature: Optional[str],
    resume: bool,
) -> Tuple[JobResult, bool]:
    """The one per-job step every executor runs: resume, run, checkpoint.

    With a persistent ``store`` the job's checkpoint is consulted first
    (unless ``resume`` is off) and a fresh result is checkpointed the moment
    it finishes — by whichever process ran it, since the store's WAL-mode
    SQLite index tolerates concurrent writers.  ``backing`` is the LP store
    handed to :func:`run_job`.  Returns the result and whether it was
    resumed.
    """
    if store is None:
        return run_job(instance_factory, job, backing), False
    key = job_checkpoint_key(job)
    if resume:
        cached = store.load_job(signature, key)
        if cached is not None:
            return _as_resumed(cached, job), True
    result = run_job(instance_factory, job, backing)
    store.save_job(signature, key, result)
    return result, False


def _run_job_group(
    instance_factory: InstanceFactory,
    jobs: Tuple[SweepJob, ...],
    store: Optional[Any],
    signature: Optional[str],
    resume: bool,
) -> Tuple[List[JobResult], int]:
    """Worker entry point: run one claimed group of jobs in order.

    Module-level so it imports cleanly under both ``fork`` and ``spawn``
    start methods; importing this module (and, transitively, the registry on
    first dispatch) rehydrates all algorithm registrations in the worker.
    Jobs share the persistent ``store`` as their LP store when one backs
    the run and a fresh group-local :class:`MemoryLPStore` otherwise, so
    jobs of the group that rebuild one instance pay a single LP solve.
    Jobs another process checkpointed in the meantime are skipped
    (``resume``); returns the group's results plus how many of them were
    resumed.
    """
    backing = store if store is not None else MemoryLPStore()
    results: List[JobResult] = []
    resumed = 0
    for job in jobs:
        result, was_resumed = _execute_job(
            instance_factory, job, backing, store, signature, resume
        )
        results.append(result)
        resumed += was_resumed
    return results, resumed


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
def resolve_worker_count(workers: int, *, available: Optional[int] = None) -> int:
    """Validate a requested pool size and clamp it to the CPUs this process may use.

    A pool wider than the process's CPU affinity mask
    (``len(os.sched_getaffinity(0))``, or ``os.cpu_count()`` where ``os``
    has no affinity call) cannot add throughput for the CPU-bound LP/MILP
    jobs this layer runs — it only adds process start-up cost and scheduler
    churn — so oversubscription is treated as a caller mistake: the count
    is clamped and a :class:`RuntimeWarning` reports both numbers.
    ``available`` overrides the detected count (for tests); when the count
    cannot be detected (``os.cpu_count()`` returning ``None``) the request
    is trusted as-is.
    """
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if available is None:
        if hasattr(os, "sched_getaffinity"):
            available = len(os.sched_getaffinity(0))
        else:
            available = os.cpu_count()
    if available is not None and workers > int(available):
        warnings.warn(
            f"requested {workers} workers but only {available} CPU(s) are "
            f"available; clamping to {available} to avoid oversubscription",
            RuntimeWarning,
            stacklevel=3,
        )
        return int(available)
    return workers


@runtime_checkable
class Executor(Protocol):
    """Anything that can run a :class:`SweepPlan` and return its job results.

    ``iter_run`` is the streaming primitive — results arrive as jobs finish,
    in completion order; ``run`` is its deterministic-reorder wrapper (job
    index order, identical tables regardless of scheduling).
    """

    def run(self, plan: SweepPlan) -> List[JobResult]:
        ...

    def iter_run(self, plan: SweepPlan) -> Iterator[JobResult]:
        ...


class SerialExecutor:
    """Run every job in plan order, in-process — the default executor.

    Behaviour matches the historical ``sweep()`` loop plus two reuse layers,
    both reached through the same ``load_lp``/``save_lp`` surface (reuses
    count into ``lp_store_hits`` in the job provenance):

    * an in-memory :class:`MemoryLPStore` (the ``artifact_store``
      attribute), kept across this executor's runs, letting repetitions
      that rebuild an identical instance reuse its LP solutions (a pure
      cache: the LP solver is deterministic, so results are unchanged).
    * ``store`` — a persistent :class:`repro.store.ArtifactStore`, used
      instead of the in-memory one.  LP solutions are then loaded/written
      through disk (reuse survives invocations), and every finished job is
      checkpointed under the plan's :func:`plan_signature` as soon as it
      completes, so an interrupted run resumes from its checkpoints.
      ``resume=False`` re-executes jobs even when a checkpoint exists (still
      refreshing the checkpoints and still reusing stored LP solutions) —
      useful for measuring warm-store solve counts.

    ``jobs_resumed`` / ``jobs_executed`` report, after each run, how many
    results came from checkpoints versus fresh execution.
    """

    def __init__(self, *, store: Optional[Any] = None, resume: bool = True) -> None:
        self.artifact_store = MemoryLPStore()
        self.store = store
        self.resume = resume
        self.jobs_resumed = 0
        self.jobs_executed = 0

    def iter_run(self, plan: SweepPlan) -> Iterator[JobResult]:
        """Yield each job's result as it finishes, checkpointing along the way."""
        self.jobs_resumed = 0
        self.jobs_executed = 0
        signature = plan_signature(plan) if self.store is not None else None
        backing = self.store if self.store is not None else self.artifact_store
        for job in plan.jobs:
            result, resumed = _execute_job(
                plan.instance_factory, job, backing, self.store, signature, self.resume
            )
            if resumed:
                self.jobs_resumed += 1
            else:
                self.jobs_executed += 1
            yield result

    def run(self, plan: SweepPlan) -> List[JobResult]:
        return sorted(self.iter_run(plan), key=lambda result: result.job_index)


__all__ = [
    "SweepJob",
    "SweepPlan",
    "JobResult",
    "InstanceFactory",
    "MemoryLPStore",
    "compile_sweep",
    "compile_grid",
    "plan_signature",
    "job_checkpoint_key",
    "run_algorithms",
    "run_job",
    "resolve_worker_count",
    "Executor",
    "SerialExecutor",
]
