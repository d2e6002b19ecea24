"""Micro-batch compatibility grouping and the batched LP solve entry points.

Two requests may share one micro-batch when their instances belong to the
same model family (type, slot count ``k``, social weight ``lambda``,
teleportation/size-cap scalars) and they ask for identical LP parameters —
exactly the inputs, besides the utility tables themselves, that shape an
instance's constraint system.  Instance *sizes* (users, items, edges) may
differ: each instance's LP is solved on its own.

:func:`solve_fractional_batch` is the in-process solve;
:func:`_solve_batch_in_worker` is the module-level process-pool entry point
(picklable under both ``fork`` and ``spawn``) that additionally reports the
worker's PID, which the service surfaces as :attr:`ServeResult.solver_pid`
so tests can assert pool workers are reused rather than respawned.
"""

from __future__ import annotations

import os
from typing import Any, List, Sequence, Tuple

from repro.core.lp import FractionalSolution, solve_lp_relaxations_stacked
from repro.core.problem import SVGICInstance
from repro.serving.request import LPParameters


def compatibility_key(instance: SVGICInstance, lp_params: LPParameters) -> Tuple[Any, ...]:
    """The grouping key under which requests may be co-batched.

    The instance family and its scalar knobs plus the full LP parameter
    key: everything a batch's LP solves share besides the instances
    themselves.  Requests with different keys are never placed in one
    batch — they would solve under different formulations or constraint
    families.
    """
    return (
        type(instance).__name__,
        int(instance.num_slots),
        float(instance.social_weight),
        float(getattr(instance, "teleport_discount", -1.0)),
        int(getattr(instance, "max_subgroup_size", -1)),
        lp_params.cache_key(),
    )


def solve_fractional_batch(
    instances: Sequence[SVGICInstance], lp_params: LPParameters
) -> List[FractionalSolution]:
    """Solve the LP relaxations of ``instances`` under ``lp_params``, one solve each."""
    return solve_lp_relaxations_stacked(
        instances,
        formulation=lp_params.formulation,
        max_candidate_items=lp_params.max_candidate_items,
        prune_items=lp_params.prune_items,
        enforce_size_constraint=lp_params.enforce_size_constraint,
    )


def _solve_batch_in_worker(
    instances: Sequence[SVGICInstance], lp_params: LPParameters
) -> Tuple[List[FractionalSolution], int]:
    """Process-pool entry point: the batched solutions plus the worker's PID."""
    return solve_fractional_batch(instances, lp_params), os.getpid()


def _decode_in_worker(
    instance: SVGICInstance,
    algorithm: str,
    seed: int,
    key: Tuple[Any, ...],
    solution: FractionalSolution,
    source: str,
    store: Any,
) -> Tuple[Any, int, int, float, int]:
    """Process-pool entry point for one request's decode stage.

    Mirrors the service's in-thread decode exactly: a fresh
    :class:`~repro.core.pipeline.SolveContext` seeded with the request's LP
    solution, the registered algorithm run under the request-derived
    generator — so a decoded result is a function of the request alone,
    independent of which worker (or arrival order) decoded it.  ``store`` is
    the service's (picklable) artifact store, re-opened worker-side so
    fallback LP solves still hit the warm path.  Returns
    ``(result, lp_solves, lp_store_hits, decode_seconds, pid)``.
    """
    import time

    from repro.core.pipeline import SolveContext
    from repro.core.registry import run_registered
    from repro.utils.rng import derive_seed

    started = time.perf_counter()
    context = SolveContext(instance, store=store)
    context.install_lp_solution(key, solution, source=source)
    result = run_registered(
        algorithm, instance, context=context, rng=derive_seed(seed, algorithm)
    )
    return (
        result,
        context.lp_solves,
        context.lp_store_hits,
        time.perf_counter() - started,
        os.getpid(),
    )


__all__ = ["compatibility_key", "solve_fractional_batch"]
