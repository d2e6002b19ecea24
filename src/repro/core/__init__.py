"""Core SVGIC machinery: problem model, objectives, LP/IP formulations and the AVG family.

Module map
----------
``problem``
    Immutable problem instances: :class:`~repro.core.problem.SVGICInstance`
    (users, items, slots, ``(n, m)`` preference matrix, directed edge list
    with an ``(|E|, m)`` social matrix) and the SVGIC-ST extension
    :class:`~repro.core.problem.SVGICSTInstance` (teleportation discount,
    subgroup-size cap).  Cached pair/neighbour structures live here.
``configuration``
    :class:`~repro.core.configuration.SAVGConfiguration` — the ``(n, k)``
    assignment array (``UNASSIGNED`` marks unfilled display units) plus
    structural queries (subgroups, co-display predicates).
``objective``
    The **vectorized evaluation engine**: total/scaled utility,
    :class:`~repro.core.objective.UtilityBreakdown` and the SVGIC-ST
    teleportation variant computed with dense NumPy tensor ops, plus
    :class:`~repro.core.objective.DeltaEvaluator` for ``O(degree)``
    incremental re-evaluation after single-cell changes.  This is the
    central API every solver, baseline, metric and benchmark consumes.
    Its scalar (per-user/per-slot/per-edge loop) oracle ships with the
    tests, ``tests/oracles/objective_reference.py``; property tests pin
    the engine to it within 1e-9.
``lp`` / ``ip``
    The LP relaxations (compact ``LP_SIMP`` and full form) and the exact
    integer program solved with HiGHS MILP or the in-repo branch and bound.
``rounding``
    Independent rounding of the LP solution (Algorithm 1) — the analysable
    negative baseline of Lemma 3.
``avg`` / ``avg_d``
    The randomized 4-approximation AVG (Co-display Subgroup Formation) and
    its deterministic counterpart AVG-D, both with the Section-4.4
    efficiency enhancements and SVGIC-ST size-cap support.
``greedy``
    Per-user top-k selection (λ=0 optimum, PER baseline) and the greedy
    completion safety net.
``pipeline``
    The unified solver pipeline: :class:`~repro.core.pipeline.SolveContext`
    (lazily cached per-instance shared state — one LP relaxation solve per
    line-up) and the delta-evaluated 2-opt
    :class:`~repro.core.pipeline.LocalSearchImprover`, which the ``+LS``
    variants run through :func:`~repro.core.pipeline.with_local_search`.
``registry``
    The :func:`~repro.core.registry.register_algorithm` registry every
    algorithm, baseline and extension variant self-registers into; the
    experiment harness queries it by tag (``paper``, ``baseline``, ``st``,
    ``extension``, ``local-search``).
``svgic_st``
    Feasibility checking and co-display accounting for the size constraint.
``result``
    :class:`~repro.core.result.AlgorithmResult` — the uniform return type of
    every algorithm.
"""

from repro.core.avg import csf_rounding, run_avg
from repro.core.avg_d import run_avg_d
from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.greedy import greedy_complete, top_k_preference_configuration
from repro.core.ip import solve_exact
from repro.core.lp import FractionalSolution, candidate_items, solve_lp_relaxation
from repro.core.objective import (
    DeltaEvaluator,
    UtilityBreakdown,
    evaluate,
    evaluate_st,
    per_user_utility,
    scaled_total_utility,
    total_utility,
    weighted_total_utility,
)
from repro.core.pipeline import LocalSearchImprover, SolveContext
from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.core.registry import (
    AlgorithmSpec,
    algorithm_names,
    build_runners,
    get_algorithm,
    names_by_tag,
    register_algorithm,
    run_registered,
)
from repro.core.result import AlgorithmResult
from repro.core.rounding import independent_rounding, run_independent_rounding
from repro.core.svgic_st import is_feasible, size_violation_report

__all__ = [
    "SVGICInstance",
    "SVGICSTInstance",
    "SAVGConfiguration",
    "UNASSIGNED",
    "AlgorithmResult",
    "UtilityBreakdown",
    "DeltaEvaluator",
    "evaluate",
    "evaluate_st",
    "total_utility",
    "scaled_total_utility",
    "per_user_utility",
    "weighted_total_utility",
    "FractionalSolution",
    "candidate_items",
    "solve_lp_relaxation",
    "solve_exact",
    "run_avg",
    "run_avg_d",
    "csf_rounding",
    "independent_rounding",
    "run_independent_rounding",
    "top_k_preference_configuration",
    "greedy_complete",
    "is_feasible",
    "size_violation_report",
    "SolveContext",
    "LocalSearchImprover",
    "AlgorithmSpec",
    "register_algorithm",
    "get_algorithm",
    "algorithm_names",
    "names_by_tag",
    "build_runners",
    "run_registered",
]
