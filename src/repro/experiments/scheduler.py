"""Size-ordered work-stealing scheduler for heterogeneous sweep plans.

A static split of a plan (say, all repetitions of one sweep value per
worker) leaves workers idle behind the slowest part when job costs differ
by orders of magnitude (an ``n=2000`` instance next to ``n=50`` ones).
This module schedules the process pool adaptively, from two pieces:

* **Longest-processing-time-first ordering with sticky instance affinity**
  (:func:`schedule_groups`).  Jobs are grouped by the instance they will
  build — the affinity key — and groups are ordered by descending size,
  the sum of their jobs' :func:`job_size` (``n * m * k``).  Every plan runs
  one algorithm line-up and each of the paper's sweeps moves one thing at a
  time, so within a plan the instance size alone says which jobs are heavy.
  Grouping guarantees that all jobs sharing an instance fingerprint are
  claimed by the *same* worker, so the single-LP-solve-per-instance
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

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.executor import (
    JobResult,
    SweepJob,
    SweepPlan,
    _as_resumed,
    _run_job_group,
    job_checkpoint_key,
    plan_signature,
    resolve_worker_count,
)

__all__ = [
    "ScheduledGroup",
    "affinity_key",
    "job_size",
    "schedule_groups",
    "WorkStealingExecutor",
]


# --------------------------------------------------------------------------- #
# Job size
# --------------------------------------------------------------------------- #
def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, bool
    )


def job_size(plan: SweepPlan, job: SweepJob) -> int:
    """A job's weight in the schedule: ``n * m * k`` of its instance (>= 1).

    The dimensions are predicted without building the instance.  Each is
    resolved, in order, from the job's sweep columns (a column labelled
    ``n``/``m``/``k``), from the factory's ``vary`` hint
    (:class:`~repro.experiments.figures.InstanceSweepFactory` binds the sweep
    value to one dimension), and from the factory's base fields
    (``num_users``/``num_items``/``num_slots``).  A numeric sweep value with
    no other hint is taken as ``n``, since the paper's sweeps vary the user
    count most often; a dimension nothing names defaults to ``n=64``,
    ``m=32``, ``k=3``.
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
    return max(1, dims["n"]) * max(1, dims["m"]) * max(1, dims["k"])


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
    """One claimable unit of the work queue: an affinity group plus its size."""

    key: Tuple[Any, ...]
    jobs: Tuple[SweepJob, ...]
    size: int

    def __len__(self) -> int:
        return len(self.jobs)


def schedule_groups(
    plan: SweepPlan, jobs: Optional[Sequence[SweepJob]] = None
) -> List[ScheduledGroup]:
    """Group ``jobs`` by instance affinity and order them largest-first (LPT).

    Within a group, jobs keep plan order (deterministic claim-side
    execution); across groups, descending size (the sum of the members'
    :func:`job_size`) with the first job index as the deterministic
    tie-break, so equal sizes (a dataset or input-model sweep) keep plan
    order.  Feeding this order into a shared work queue yields the classic
    LPT list schedule: no worker idles while a heavy group waits.
    """
    jobs = plan.jobs if jobs is None else list(jobs)
    grouped: Dict[Tuple[Any, ...], List[SweepJob]] = {}
    for job in jobs:
        grouped.setdefault(affinity_key(plan, job), []).append(job)
    groups = [
        ScheduledGroup(
            key=key,
            jobs=tuple(members),
            size=sum(job_size(plan, job) for job in members),
        )
        for key, members in grouped.items()
    ]
    groups.sort(key=lambda group: (-group.size, group.jobs[0].index))
    return groups


# --------------------------------------------------------------------------- #
# The work-stealing executor
# --------------------------------------------------------------------------- #
class WorkStealingExecutor:
    """The process-pool executor: size-ordered LPT schedule over a shared claim queue.

    Same plans and same streaming ``iter_run`` / deterministic ``run``
    contract as :class:`~repro.experiments.executor.SerialExecutor`, with
    byte-identical result tables; jobs run in worker processes, claimed
    dynamically in LPT-ordered affinity groups:

    * Remaining (non-resumed) jobs are grouped by :func:`affinity_key`;
      every group is claimed by exactly one worker, so jobs sharing an
      instance fingerprint stay together and the per-instance LP reuse of
      :class:`~repro.core.pipeline.SolveContext` (one solve per instance)
      survives the dynamic schedule.
    * Groups enter the shared queue largest-first, ordered by
      :func:`schedule_groups` (descending ``n * m * k``).
    * Idle workers claim the next unclaimed group (the pool's task queue
      arbitrates claims atomically), which is work stealing in its
      queue-based form: a worker that drew a light group comes back for
      more while a heavy group is still running elsewhere.

    Checkpoint interplay matches the serial executor's: with ``store=``,
    resumed jobs are yielded up front without scheduling, every fresh job is
    checkpointed by its worker the moment it finishes, and closing
    ``iter_run`` early cancels unclaimed groups while claimed ones finish
    and checkpoint.  Each run starts a fresh pool of ``min(workers,
    groups)`` processes.  A worker that dies raises
    :class:`~concurrent.futures.process.BrokenProcessPool` out of the run;
    the jobs checkpointed before it died resume on a re-run.

    Parameters
    ----------
    workers:
        Pool width; validated and clamped by
        :func:`~repro.experiments.executor.resolve_worker_count`.  ``1``
        still goes through the pool.
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
        store: Optional[Any] = None,
        resume: bool = True,
    ) -> None:
        self.workers = resolve_worker_count(workers)
        self.store = store
        self.resume = resume
        self.jobs_resumed = 0
        self.jobs_executed = 0
        #: The LPT schedule of the most recent run (inspection / tests).
        self.last_schedule: List[ScheduledGroup] = []

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

        groups = schedule_groups(plan, remaining)
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
