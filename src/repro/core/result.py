"""Common result container returned by every SVGIC algorithm in the library.

Having one result type keeps the experiment harness simple: every algorithm
(exact IP, AVG, AVG-D, and all baselines) returns an
:class:`AlgorithmResult`, and metrics / reporting code treats them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.configuration import SAVGConfiguration
from repro.core.objective import UtilityBreakdown, evaluate, evaluate_st
from repro.core.problem import SVGICInstance, SVGICSTInstance


@dataclass
class AlgorithmResult:
    """Outcome of running one algorithm on one instance.

    Attributes
    ----------
    algorithm:
        Short algorithm name (``"AVG"``, ``"AVG-D"``, ``"IP"``, ``"PER"``, ...).
    configuration:
        The returned SAVG k-Configuration.
    breakdown:
        Weighted utility decomposition (Definition 3 or Definition 5 scale).
    seconds:
        Total wall-clock time of the run (including any LP/IP solve).
    optimal:
        ``True`` when the algorithm proved optimality (exact solvers only).
    info:
        Free-form extras (LP objective, iteration counts, solver gap, ...).
    stages_applied:
        Names of the post-passes run on the algorithm's configuration, in
        order: ``("local_search",)`` for the ``+LS`` variants
        (:func:`~repro.core.pipeline.with_local_search`), else empty.
    provenance:
        Pipeline bookkeeping: registry name and the LP cache hit/miss
        counters of the shared :class:`~repro.core.pipeline.SolveContext`.
        Empty for direct ``run_*`` calls.
    """

    algorithm: str
    configuration: SAVGConfiguration
    breakdown: UtilityBreakdown
    seconds: float
    optimal: bool = False
    info: Dict[str, Any] = field(default_factory=dict)
    stages_applied: Tuple[str, ...] = ()
    provenance: Dict[str, Any] = field(default_factory=dict)

    @property
    def objective(self) -> float:
        """Total SAVG utility of the returned configuration."""
        return self.breakdown.total

    def scaled_objective(self, instance: SVGICInstance) -> float:
        """Objective on the scaled (lambda=1/2, x2) scale of Section 4."""
        return instance.true_to_scaled_objective(self.objective)

    @staticmethod
    def from_configuration(
        algorithm: str,
        instance: SVGICInstance,
        configuration: SAVGConfiguration,
        seconds: float,
        *,
        optimal: bool = False,
        info: Optional[Dict[str, Any]] = None,
        stages_applied: Tuple[str, ...] = (),
        provenance: Optional[Dict[str, Any]] = None,
    ) -> "AlgorithmResult":
        """Evaluate ``configuration`` on ``instance`` and wrap it in a result."""
        if isinstance(instance, SVGICSTInstance):
            breakdown = evaluate_st(instance, configuration)
        else:
            breakdown = evaluate(instance, configuration)
        return AlgorithmResult(
            algorithm=algorithm,
            configuration=configuration,
            breakdown=breakdown,
            seconds=seconds,
            optimal=optimal,
            info=dict(info or {}),
            stages_applied=tuple(stages_applied),
            provenance=dict(provenance or {}),
        )


__all__ = ["AlgorithmResult"]
