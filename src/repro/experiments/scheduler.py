"""Cost-model-aware work-stealing scheduler for heterogeneous sweep plans.

A static split of a plan (say, all repetitions of one sweep value per
worker) leaves workers idle behind the slowest part when job costs differ
by orders of magnitude (IP at large ``n`` next to greedy baselines at small
``n``).  This module schedules the process pool adaptively, from three
pieces:

* **A per-job cost model** (:class:`CostModel`).  Features are the instance
  dimensions (``n``, ``m``, ``k``) and the line-up's *work shape* — the
  registry tags and overrides of every algorithm payload, hashed into the
  same signature (:func:`repro.experiments.executor.job_timing_signature`)
  under which observed ``job_seconds`` / ``lp_seconds`` accumulate in the
  store's SQLite ``timings`` table.  With enough observations the model fits
  a power law in instance size per signature (clamped to be monotone); with
  some it rescales the analytic curve through the observed mean; cold it
  falls back to a pure analytic estimate driven by registry tags (``exact``
  algorithms cost far more than LP rounding, which costs more than greedy
  baselines).  Every store-backed sweep therefore makes later schedules
  better — the cost model is learned from history, not hand-tuned.
* **Longest-processing-time-first ordering with sticky instance affinity**
  (:func:`schedule_groups`).  Jobs are grouped by the instance they will
  build — the affinity key — and groups are ordered by descending estimated
  cost.  Grouping guarantees that all jobs sharing an instance fingerprint
  are claimed by the *same* worker, so the single-LP-solve-per-instance
  invariant survives dynamic stealing; LPT ordering guarantees no worker is
  left grinding the heaviest group while the others sit idle at the tail.
* **A shared work queue with dynamic claiming**
  (:class:`WorkStealingExecutor`).  Groups are fed, heaviest first, into one
  shared queue; each worker claims the next unclaimed group the moment it
  goes idle (the claim protocol is the process pool's FIFO task queue —
  claiming is atomic, a group runs on exactly one worker).  Results stream
  back in completion order through ``iter_run``, checkpointing and resuming
  exactly like :class:`~repro.experiments.executor.SerialExecutor`: with a
  persistent ``store=`` every finished job is checkpointed immediately and a
  killed sweep completes only its unfinished jobs on re-run.
"""

from __future__ import annotations

import math
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.executor import (
    JobResult,
    SweepJob,
    SweepPlan,
    _as_resumed,
    _run_job_group,
    job_checkpoint_key,
    job_timing_signature,
    plan_signature,
    resolve_worker_count,
)

__all__ = [
    "JobFeatures",
    "CostModel",
    "ScheduledGroup",
    "affinity_key",
    "job_features",
    "payload_cost_profile",
    "schedule_groups",
    "WorkStealingExecutor",
]


# --------------------------------------------------------------------------- #
# Features
# --------------------------------------------------------------------------- #
def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, bool
    )


#: (weight, size exponent) per algorithm class for the analytic fallback.
#: Exact solvers dominate and scale superlinearly; LP-relaxation rounding is
#: the middle class; everything else (greedy / clustering baselines) is cheap
#: and near-linear.  Magnitudes only need to *order* jobs correctly — the
#: calibrated model replaces them as soon as observations exist.
_EXACT_PROFILE = (60.0, 1.6)
_LOCAL_SEARCH_PROFILE = (12.0, 1.3)
_LP_PROFILE = (8.0, 1.2)
_CHEAP_PROFILE = (1.0, 1.0)
#: Non-registry callables: assume the LP-ish middle class.
_UNKNOWN_PROFILE = _LP_PROFILE


def payload_cost_profile(payload: Any) -> Tuple[float, float]:
    """``(weight, exponent)`` of one algorithm payload for the analytic model.

    Driven by the registry tags of the payload's spec: ``exact`` →
    heaviest/steepest, ``local-search`` and ``approximation`` (LP rounding)
    in between, untagged baselines cheapest.  Accepts a payload object or a
    bare registry name.  Unknown names and plain callables get the middle
    profile.
    """
    name = payload if isinstance(payload, str) else getattr(payload, "registry_name", None)
    if name is None:
        return _UNKNOWN_PROFILE
    from repro.core.registry import get_algorithm

    try:
        tags = get_algorithm(name).tags
    except KeyError:
        return _UNKNOWN_PROFILE
    if "exact" in tags:
        return _EXACT_PROFILE
    if "local-search" in tags:
        return _LOCAL_SEARCH_PROFILE
    if "approximation" in tags:
        return _LP_PROFILE
    return _CHEAP_PROFILE


@dataclass(frozen=True)
class JobFeatures:
    """Everything the cost model sees about one job, computed *before* it runs.

    ``signature`` is the work-shape hash the timings table is keyed by;
    ``n``/``m``/``k`` the (predicted) instance dimensions; ``profiles`` the
    per-payload ``(weight, exponent)`` pairs of the analytic fallback.
    """

    signature: str
    n: int
    m: int
    k: int
    profiles: Tuple[Tuple[float, float], ...] = ()

    @property
    def size(self) -> int:
        """The scalar size regressor ``n * m * k`` (always >= 1)."""
        return max(1, self.n) * max(1, self.m) * max(1, self.k)


def job_features(plan: SweepPlan, job: SweepJob) -> JobFeatures:
    """Extract :class:`JobFeatures` from a job without building its instance.

    Dimensions are resolved, in order, from the job's sweep columns (a
    column labelled ``n``/``m``/``k``), from the factory's ``vary`` hint
    (:class:`~repro.experiments.figures.InstanceSweepFactory` binds the sweep
    value to one dimension), and from the factory's base configuration
    attributes (``num_users``/``num_items``/``num_slots``).  A numeric sweep
    value with no other hint is treated as ``n`` — the paper's sweeps vary
    user count far more often than anything else.  Absolute accuracy is not
    required: the model only has to *order* jobs usefully, and the calibrated
    path regresses on whatever sizes were recorded with these same rules.
    """
    factory = plan.instance_factory
    vary = getattr(factory, "vary", None)
    dims: Dict[str, Optional[int]] = {}
    for label, attr in (("n", "num_users"), ("m", "num_items"), ("k", "num_slots")):
        column = job.columns.get(label)
        if _numeric(column):
            dims[label] = int(column)
            continue
        if vary == label and _numeric(job.value):
            dims[label] = int(job.value)
            continue
        base = getattr(factory, attr, None)
        dims[label] = int(base) if _numeric(base) else None
    if dims["n"] is None:
        dims["n"] = int(job.value) if _numeric(job.value) else 64
    if dims["m"] is None:
        dims["m"] = 32
    if dims["k"] is None:
        dims["k"] = 3
    return JobFeatures(
        signature=job_timing_signature(job),
        n=dims["n"],
        m=dims["m"],
        k=dims["k"],
        profiles=tuple(payload_cost_profile(p) for p in job.algorithms),
    )


# --------------------------------------------------------------------------- #
# Cost model
# --------------------------------------------------------------------------- #
class CostModel:
    """Per-job wall-time estimates: calibrated from observed timings when
    possible, analytic when cold.

    ``observed`` is an iterable of timings rows — ``(signature, n, m, k,
    job_seconds, lp_seconds, samples)``, the shape
    :meth:`repro.store.ArtifactStore.load_timings` returns.  Estimation
    precedence per signature:

    1. **Power-law fit** (``seconds = exp(a) * size^b`` with ``size = n*m*k``
       and ``b`` clamped to ``[0, 4]``) when at least ``min_samples`` rows at
       two or more distinct sizes exist.  The clamp makes every calibrated
       estimate monotone non-decreasing in ``n`` (and ``m``, ``k``).
    2. **Rescaled analytic** when any rows exist but too few (or too
       degenerate) to fit: the analytic curve is scaled through the mean
       observed seconds, keeping the monotone shape while adopting the
       machine's real magnitude.
    3. **Analytic fallback** (cold start): registry-tag-driven
       ``weight * n^exponent * m * k`` per payload — see
       :func:`payload_cost_profile`.

    Estimates are *relative* schedulers' truth and *absolute* enough for
    ETAs once calibrated; the analytic path promises only correct ordering.
    """

    #: Scale that maps analytic cost units into the rough second range of the
    #: LP solves they model (only relative order matters for scheduling).
    ANALYTIC_SCALE = 1e-6

    def __init__(
        self,
        observed: Optional[Sequence[Tuple[str, int, int, int, float, float, int]]] = None,
        *,
        min_samples: int = 3,
    ) -> None:
        if min_samples < 2:
            raise ValueError(f"min_samples must be >= 2, got {min_samples}")
        self.min_samples = int(min_samples)
        self._rows: Dict[str, List[Tuple[int, int, int, float, float, int]]] = {}
        for signature, n, m, k, job_seconds, lp_seconds, samples in observed or ():
            self._rows.setdefault(str(signature), []).append(
                (int(n), int(m), int(k), float(job_seconds), float(lp_seconds), int(samples))
            )
        self._fits: Dict[str, Dict[str, Any]] = {}

    @classmethod
    def from_store(cls, store: Any, *, min_samples: int = 3) -> "CostModel":
        """A model trained on every timing the store has accumulated.

        Stores without a timings surface (such as the executors' in-memory
        :class:`~repro.experiments.executor.MemoryLPStore`) yield a cold
        model — the analytic fallback covers them.
        """
        if store is None or not hasattr(store, "load_timings"):
            return cls(min_samples=min_samples)
        try:
            rows = store.load_timings()
        except Exception:
            rows = []
        return cls(rows, min_samples=min_samples)

    # -- calibration ----------------------------------------------------- #
    @property
    def calibrated_signatures(self) -> List[str]:
        """Signatures with at least one observed timing row."""
        return sorted(self._rows)

    def calibration(self, signature: str) -> Dict[str, Any]:
        """How estimates for ``signature`` are produced (cached per signature).

        ``kind`` is ``"power-law"`` (fitted ``scale``/``exponent``),
        ``"rescaled-analytic"`` (observed mean ``scale`` over the analytic
        curve) or ``"analytic"`` (no observations).
        """
        if signature in self._fits:
            return self._fits[signature]
        rows = self._rows.get(signature, [])
        fit: Dict[str, Any]
        sizes = np.array([max(1, n) * max(1, m) * max(1, k) for n, m, k, *_ in rows], dtype=float)
        seconds = np.array([max(row[3], 1e-9) for row in rows], dtype=float)
        weights = np.array([max(1, row[5]) for row in rows], dtype=float)
        if len(rows) >= self.min_samples and np.unique(sizes).size >= 2:
            # Weighted least squares on log(seconds) ~ log(size); the samples
            # column weights cells that folded many observations.
            log_size = np.log(sizes)
            log_sec = np.log(seconds)
            sqrt_w = np.sqrt(weights)
            design = np.stack([np.ones_like(log_size), log_size], axis=1) * sqrt_w[:, None]
            coeffs, *_ = np.linalg.lstsq(design, log_sec * sqrt_w, rcond=None)
            intercept, exponent = float(coeffs[0]), float(coeffs[1])
            exponent = float(np.clip(exponent, 0.0, 4.0))
            # Re-anchor the intercept after clamping so predictions still
            # pass through the observed cloud.
            intercept = float(
                np.average(log_sec - exponent * log_size, weights=weights)
            )
            scale = math.exp(intercept)
            if math.isfinite(scale) and math.isfinite(exponent):
                fit = {"kind": "power-law", "scale": scale, "exponent": exponent,
                       "rows": len(rows)}
            else:  # pragma: no cover - defensive against pathological data
                fit = {"kind": "rescaled-analytic",
                       "mean_seconds": float(np.average(seconds, weights=weights)),
                       "mean_size": float(np.average(sizes, weights=weights)),
                       "rows": len(rows)}
        elif rows:
            fit = {"kind": "rescaled-analytic",
                   "mean_seconds": float(np.average(seconds, weights=weights)),
                   "mean_size": float(np.average(sizes, weights=weights)),
                   "rows": len(rows)}
        else:
            fit = {"kind": "analytic", "rows": 0}
        self._fits[signature] = fit
        return fit

    # -- estimation ------------------------------------------------------- #
    def _analytic(self, features: JobFeatures) -> float:
        profiles = features.profiles or (_UNKNOWN_PROFILE,)
        n = max(1, features.n)
        per_unit = sum(weight * (n ** exponent) for weight, exponent in profiles)
        return max(
            self.ANALYTIC_SCALE * per_unit * max(1, features.m) * max(1, features.k),
            1e-9,
        )

    def estimate(self, features: JobFeatures) -> float:
        """Predicted wall seconds for one job described by ``features``."""
        fit = self.calibration(features.signature)
        if fit["kind"] == "power-law":
            return float(fit["scale"] * (features.size ** fit["exponent"]))
        if fit["kind"] == "rescaled-analytic":
            # Scale the analytic curve through the observed mean: shape from
            # the model, magnitude from this machine's history.
            anchor = JobFeatures(
                signature=features.signature,
                n=max(1, int(round(fit["mean_size"] / max(1, features.m * features.k)))),
                m=features.m,
                k=features.k,
                profiles=features.profiles,
            )
            reference = self._analytic(anchor)
            return float(self._analytic(features) * fit["mean_seconds"] / reference)
        return self._analytic(features)

    def estimate_job(self, plan: SweepPlan, job: SweepJob) -> float:
        """Convenience wrapper: features extracted from the plan's metadata."""
        return self.estimate(job_features(plan, job))


# --------------------------------------------------------------------------- #
# Affinity grouping and LPT ordering
# --------------------------------------------------------------------------- #
def affinity_key(plan: SweepPlan, job: SweepJob) -> Tuple[Any, ...]:
    """The sticky-affinity key: jobs sharing it run on one worker.

    Deterministic factories build identical instances for identical
    ``(value, rep_seed)`` pairs, so that pair is the default proxy for the
    instance fingerprint (the fingerprint itself would require building the
    instance).  Factories whose instances coincide *across* jobs can declare
    it by exposing ``instance_affinity(value, rep_seed)`` —
    :class:`~repro.experiments.figures.FixedInstanceFactory` returns a
    constant, collapsing a whole algorithm-parameter scan into one group so
    the scan keeps paying a single LP solve even under stealing.  A factory
    that ignores ``rep_seed`` without declaring the hook still gives correct
    tables, but each of its jobs pays its own LP solve in a pool run.
    """
    hook = getattr(plan.instance_factory, "instance_affinity", None)
    if callable(hook):
        return ("factory", hook(job.value, job.rep_seed))
    return ("job", job.value_index, job.rep_seed)


@dataclass(frozen=True)
class ScheduledGroup:
    """One claimable unit of the work queue: an affinity group plus its cost."""

    key: Tuple[Any, ...]
    jobs: Tuple[SweepJob, ...]
    estimated_cost: float

    def __len__(self) -> int:
        return len(self.jobs)


def schedule_groups(
    plan: SweepPlan,
    jobs: Optional[Sequence[SweepJob]] = None,
    cost_model: Optional[CostModel] = None,
) -> List[ScheduledGroup]:
    """Group ``jobs`` by instance affinity and order longest-first (LPT).

    Within a group, jobs keep plan order (deterministic claim-side
    execution); across groups, descending estimated cost with the first job
    index as the deterministic tie-break.  Feeding this order into a shared
    work queue yields the classic LPT list schedule: no worker idles while a
    heavy group waits, and the makespan is within 4/3 of optimal for
    accurate estimates.
    """
    jobs = plan.jobs if jobs is None else list(jobs)
    model = cost_model if cost_model is not None else CostModel()
    grouped: Dict[Tuple[Any, ...], List[SweepJob]] = {}
    for job in jobs:
        grouped.setdefault(affinity_key(plan, job), []).append(job)
    groups = [
        ScheduledGroup(
            key=key,
            jobs=tuple(members),
            estimated_cost=float(
                sum(model.estimate_job(plan, job) for job in members)
            ),
        )
        for key, members in grouped.items()
    ]
    groups.sort(key=lambda group: (-group.estimated_cost, group.jobs[0].index))
    return groups


# --------------------------------------------------------------------------- #
# The work-stealing executor
# --------------------------------------------------------------------------- #
class WorkStealingExecutor:
    """The process-pool executor: cost-model LPT schedule over a shared claim queue.

    Same plans and same streaming ``iter_run`` / deterministic ``run``
    contract as :class:`~repro.experiments.executor.SerialExecutor`, with
    byte-identical result tables; jobs run in worker processes, claimed
    dynamically in LPT-ordered affinity groups:

    * Remaining (non-resumed) jobs are grouped by :func:`affinity_key`;
      every group is claimed by exactly one worker, so jobs sharing an
      instance fingerprint stay together and the per-instance LP reuse of
      :class:`~repro.core.pipeline.SolveContext` (one solve per instance)
      survives the dynamic schedule.
    * Groups enter the shared queue heaviest-first, ordered by
      :class:`CostModel` estimates — calibrated from the store's timings
      table when a persistent ``store=`` is attached, analytic otherwise.
    * Idle workers claim the next unclaimed group (the pool's task queue
      arbitrates claims atomically), which is work stealing in its
      queue-based form: a worker that drew a light group comes back for
      more while a heavy group is still running elsewhere.

    Checkpoint interplay matches the serial executor's: with ``store=``,
    resumed jobs are yielded up front without scheduling, every fresh job is
    checkpointed by its worker the moment it finishes, fresh wall times are
    recorded into the timings table (training the very model that scheduled
    them), and closing ``iter_run`` early cancels unclaimed groups while
    claimed ones finish and checkpoint.  Each run starts a fresh pool of
    ``min(workers, groups)`` processes.

    Parameters
    ----------
    workers:
        Pool width; validated and clamped by
        :func:`~repro.experiments.executor.resolve_worker_count`.  ``1``
        still goes through the pool.
    cost_model:
        Explicit :class:`CostModel`.  Default: trained from ``store``'s
        timings when present, analytic otherwise.
    store / resume:
        Persistent :class:`repro.store.ArtifactStore` checkpointing and
        resume, exactly as on the serial executor.  The store object itself
        is shipped to the workers (it pickles by path and reconnects).
        Workers that cold-start *concurrently* on one instance may each
        solve its LP once before either has written it — a benign race
        (the solver is deterministic and blobs are content-addressed).
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        cost_model: Optional[CostModel] = None,
        store: Optional[Any] = None,
        resume: bool = True,
    ) -> None:
        self.workers = resolve_worker_count(workers)
        self.cost_model = cost_model
        self.store = store
        self.resume = resume
        self.jobs_resumed = 0
        self.jobs_executed = 0
        #: The LPT schedule of the most recent run (inspection / tests).
        self.last_schedule: List[ScheduledGroup] = []

    def _resolve_model(self) -> CostModel:
        if self.cost_model is not None:
            return self.cost_model
        return CostModel.from_store(self.store)

    def iter_run(self, plan: SweepPlan) -> Iterator[JobResult]:
        """Yield results in completion order, claiming LPT groups dynamically.

        Closing the iterator early cancels groups no worker has claimed yet;
        claimed groups finish (and, with a store, checkpoint every job)
        before the pool shuts down.
        """
        self.jobs_resumed = 0
        self.jobs_executed = 0
        self.last_schedule = []
        signature = plan_signature(plan) if self.store is not None else None
        remaining: List[SweepJob] = []
        for job in plan.jobs:
            cached = (
                self.store.load_job(signature, job_checkpoint_key(job))
                if signature is not None and self.resume
                else None
            )
            if cached is not None:
                self.jobs_resumed += 1
                yield _as_resumed(cached, job)
            else:
                remaining.append(job)

        groups = schedule_groups(plan, remaining, self._resolve_model())
        self.last_schedule = groups
        if not groups:
            return

        pool = ProcessPoolExecutor(max_workers=min(self.workers, len(groups)))
        pending: set = set()
        try:
            # Submission order *is* the queue order: the heaviest group is
            # claimed first, and every idle worker claims the next unclaimed
            # group — the steal.
            pending = {
                pool.submit(
                    _run_job_group,
                    plan.instance_factory,
                    group.jobs,
                    self.store,
                    signature,
                    self.resume,
                )
                for group in groups
            }
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    group_results, resumed = future.result()
                    self.jobs_resumed += resumed
                    self.jobs_executed += len(group_results) - resumed
                    yield from group_results
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def run(self, plan: SweepPlan) -> List[JobResult]:
        return sorted(self.iter_run(plan), key=lambda result: result.job_index)
