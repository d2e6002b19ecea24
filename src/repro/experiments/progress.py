"""Streaming sweep progress: live aggregation, completion counts, size-weighted ETA.

The executors (:mod:`repro.experiments.executor`,
:mod:`repro.experiments.scheduler`) stream finished jobs through
``iter_run`` long before the full table exists.  This module turns that
stream into something watchable:

* :class:`ProgressAggregator` consumes :class:`JobResult` objects as they
  arrive and maintains (a) an *incremental* :class:`ExperimentResult` —
  the same rows :func:`~repro.experiments.harness.run_plan` would emit,
  averaged over the repetitions that have finished so far; (b) per-sweep-
  value completion counts; and (c) a wall-clock ETA that weights the
  remaining jobs by the scheduler's size key
  (:func:`~repro.experiments.scheduler.job_size`, ``n * m * k``) instead
  of assuming all jobs are equal — on heterogeneous sweeps the last jobs
  are often the big ones, and a naive ``remaining/throughput`` estimate is
  wildly optimistic.

An aggregator is itself a valid ``progress=`` callback (calling it is the
same as calling :meth:`ProgressAggregator.update`), so the minimal live
setup is two lines::

    agg = ProgressAggregator(plan)
    result = run_plan(plan, executor, progress=agg)   # agg.result() trails the run
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.experiments.executor import JobResult, SweepJob, SweepPlan
from repro.experiments.scheduler import job_size

__all__ = ["ProgressAggregator"]


class ProgressAggregator:
    """Incremental aggregation over a stream of finished sweep jobs.

    Feed it :class:`JobResult` objects (via :meth:`update`, by calling the
    aggregator itself, or by wrapping a result iterator in :meth:`track`);
    read back completion state at any moment.  Results may arrive in any
    order and duplicates (e.g. a resumed checkpoint re-observed) are
    ignored, so the aggregator composes with every executor.

    Parameters
    ----------
    plan:
        The compiled sweep being executed; defines the job universe, the
        sweep values and the row layout of the incremental table.
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        plan: SweepPlan,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.plan = plan
        self._clock = clock
        self._started = clock()
        self._finished_at: Optional[float] = None
        self._results: Dict[int, JobResult] = {}
        self._jobs: Dict[int, SweepJob] = {job.index: job for job in plan.jobs}
        self._sizes: Dict[int, int] = {
            job.index: job_size(plan, job) for job in plan.jobs
        }

    # -- ingestion -------------------------------------------------------- #
    def update(self, result: JobResult) -> None:
        """Record one finished job (unknown or repeated indices are ignored)."""
        index = result.job_index
        if index not in self._jobs or index in self._results:
            return
        self._results[index] = result
        if len(self._results) == len(self._jobs) and self._finished_at is None:
            self._finished_at = self._clock()

    #: Calling the aggregator is the same as calling :meth:`update`, so an
    #: aggregator can be passed directly as a ``progress=`` callback.
    def __call__(self, result: JobResult) -> None:
        self.update(result)

    def track(self, results: Iterable[JobResult]) -> Iterator[JobResult]:
        """Pass-through generator recording every result it yields."""
        for result in results:
            self.update(result)
            yield result

    # -- completion state -------------------------------------------------- #
    @property
    def total(self) -> int:
        return len(self._jobs)

    @property
    def completed(self) -> int:
        return len(self._results)

    @property
    def done(self) -> bool:
        return self.completed == self.total

    @property
    def elapsed(self) -> float:
        """Seconds since construction (frozen once the last job arrives)."""
        end = self._finished_at if self._finished_at is not None else self._clock()
        return max(0.0, end - self._started)

    def value_completion(self) -> List[Tuple[Any, int, int]]:
        """Per-sweep-value progress: ``(value, completed_jobs, total_jobs)``.

        Ordered by value index (plan order), covering every sweep point —
        including ones no job has finished for yet.
        """
        counts: Dict[int, Tuple[Any, int, int]] = {}
        for job in self.plan.jobs:
            value, done, total = counts.get(job.value_index, (job.value, 0, 0))
            counts[job.value_index] = (
                value,
                done + (1 if job.index in self._results else 0),
                total + 1,
            )
        return [counts[value_index] for value_index in sorted(counts)]

    def eta_seconds(self) -> Optional[float]:
        """Size-weighted remaining wall time, or None before any job finishes.

        The observed rate (elapsed seconds per unit of job size completed)
        is extrapolated over the size still pending, so a sweep whose big
        instances run last does not report a misleadingly early finish.
        """
        if not self._results:
            return None
        if self.done:
            return 0.0
        completed = sum(self._sizes[index] for index in self._results)
        remaining = sum(
            size for index, size in self._sizes.items() if index not in self._results
        )
        return remaining * (self.elapsed / completed)

    # -- incremental table ------------------------------------------------- #
    def result(self) -> "ExperimentResult":
        """The :class:`ExperimentResult` over everything finished so far.

        Sweep points with at least one finished repetition contribute rows
        averaged over those repetitions (the ``repetitions`` column records
        how many went in); untouched points are absent.  The rows come from
        :func:`~repro.experiments.harness.aggregate_plan`, as
        :func:`~repro.experiments.harness.run_plan`'s do, so once every job
        has arrived the two tables match row for row.
        """
        from repro.experiments.harness import aggregate_plan

        result = aggregate_plan(self.plan, self._results)
        result.parameters["progress"] = {
            "completed_jobs": self.completed,
            "total_jobs": self.total,
        }
        return result

    # -- rendering --------------------------------------------------------- #
    def render(self) -> str:
        """Plain-text dashboard: overall bar, ETA, per-value completion."""
        fraction = self.completed / self.total if self.total else 1.0
        bar_width = 24
        filled = int(round(fraction * bar_width))
        bar = "#" * filled + "-" * (bar_width - filled)
        eta = self.eta_seconds()
        if self.done:
            eta_text = "done"
        elif eta is None:
            eta_text = "eta --"
        else:
            eta_text = f"eta {eta:.1f}s"
        lines = [
            f"{self.plan.name}: [{bar}] {self.completed}/{self.total} jobs "
            f"({fraction * 100.0:.0f}%)  elapsed {self.elapsed:.1f}s  {eta_text}"
        ]
        for value, done, total in self.value_completion():
            marker = "✓" if done == total else " "
            lines.append(f"  {marker} {value!r}: {done}/{total}")
        return "\n".join(lines)
