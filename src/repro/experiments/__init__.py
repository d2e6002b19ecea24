"""Experiment harness, sweep plans/executors and per-figure definitions (Section 6)."""

from repro.experiments import figures
from repro.experiments.case_study import CaseStudy, describe_case_study
from repro.experiments.executor import (
    JobResult,
    SerialExecutor,
    SweepJob,
    SweepPlan,
    compile_grid,
    compile_sweep,
    job_checkpoint_key,
    plan_signature,
    resolve_worker_count,
)
from repro.experiments.harness import (
    ExperimentResult,
    default_algorithms,
    grid,
    run_algorithms,
    run_plan,
    sweep,
)
from repro.experiments.progress import ProgressAggregator
from repro.experiments.scheduler import WorkStealingExecutor, schedule_groups

__all__ = [
    "figures",
    "ExperimentResult",
    "default_algorithms",
    "run_algorithms",
    "run_plan",
    "sweep",
    "grid",
    "SweepJob",
    "SweepPlan",
    "JobResult",
    "compile_sweep",
    "compile_grid",
    "plan_signature",
    "job_checkpoint_key",
    "SerialExecutor",
    "WorkStealingExecutor",
    "schedule_groups",
    "ProgressAggregator",
    "resolve_worker_count",
    "CaseStudy",
    "describe_case_study",
]
