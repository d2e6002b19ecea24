"""Trivial independent rounding of the LP solution (Algorithm 1, Section 4.1).

The paper introduces this scheme only to show why *dependent* rounding is
needed: independently sampling the item of each display unit from the
fractional solution rarely produces co-displays (Lemma 3 shows it can lose a
factor of ``O(1/m)`` of the optimum on adversarial inputs) and does not even
guarantee the no-duplication constraint.  We keep it as an analysable
negative baseline and for the Lemma-3 reproduction experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.lp import FractionalSolution
from repro.core.pipeline import SolveContext, rounding_lp
from repro.core.problem import SVGICInstance
from repro.core.registry import register_algorithm
from repro.core.result import AlgorithmResult
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class IndependentRoundingOutcome:
    """Raw outcome of one independent-rounding pass.

    Attributes
    ----------
    configuration:
        The sampled configuration (complete, but possibly violating the
        no-duplication constraint when ``repair=False``).
    duplication_violations:
        Number of (user, slot) assignments that duplicate an item already
        shown to the same user.
    """

    configuration: SAVGConfiguration
    duplication_violations: int


def independent_rounding(
    instance: SVGICInstance,
    fractional: FractionalSolution,
    *,
    rng: SeedLike = None,
    repair: bool = True,
) -> IndependentRoundingOutcome:
    """Sample each display unit independently with probabilities ``x*[u, ., s]``.

    With ``repair=True`` (default) duplicate items for a user are replaced by
    the user's best not-yet-displayed item so that the result is a valid
    configuration; ``repair=False`` reproduces the raw scheme of Algorithm 1.
    """
    generator = ensure_rng(rng)
    n, m, k = instance.num_users, instance.num_items, instance.num_slots
    config = SAVGConfiguration.for_instance(instance)
    violations = 0

    # Sample every display unit in one shot by inverse-CDF over the item
    # axis; display units with zero LP mass fall back to the uniform
    # distribution.  Only the duplication bookkeeping below stays sequential
    # (a unit's repair depends on the user's earlier slots).
    probabilities = np.asarray(fractional.slot_factors, dtype=float).copy()  # (n, m, k)
    totals = probabilities.sum(axis=1, keepdims=True)
    probabilities = np.where(
        totals > 0,
        np.divide(probabilities, totals, out=np.zeros_like(probabilities), where=totals > 0),
        1.0 / m,
    )
    cumulative = probabilities.cumsum(axis=1)
    draws = generator.random((n, 1, k))
    samples = np.minimum((draws > cumulative).sum(axis=1), m - 1)  # (n, k)

    for u in range(n):
        for s in range(k):
            item = int(samples[u, s])
            if config.user_has_item(u, item):
                violations += 1
                if repair:
                    item = _best_unused_item(instance, config, u)
                    config.assignment[u, s] = item
                    continue
                config.assignment[u, s] = item  # knowingly violates no-duplication
            else:
                config.assignment[u, s] = item

    return IndependentRoundingOutcome(configuration=config, duplication_violations=violations)


def _best_unused_item(instance: SVGICInstance, config: SAVGConfiguration, user: int) -> int:
    """The user's highest-preference item not yet displayed to them."""
    order = np.argsort(-instance.preference[user])
    for item in order:
        if not config.user_has_item(user, int(item)):
            return int(item)
    raise RuntimeError("no unused item available; k > m should have been rejected earlier")


@register_algorithm(
    "IND",
    tags=("ablation", "rounding"),
    description="Independent LP rounding (Algorithm 1) — the Lemma-3 negative baseline",
)
def run_independent_rounding(
    instance: SVGICInstance,
    fractional: Optional[FractionalSolution] = None,
    *,
    rng: SeedLike = None,
    context: Optional[SolveContext] = None,
    repair: bool = True,
    prune_items: bool = True,
    max_candidate_items: Optional[int] = None,
) -> AlgorithmResult:
    """End-to-end LP solve + independent rounding, packaged as an :class:`AlgorithmResult`."""
    start = time.perf_counter()
    fractional, info = rounding_lp(
        instance, fractional, context,
        prune_items=prune_items, max_candidate_items=max_candidate_items,
    )
    outcome = independent_rounding(instance, fractional, rng=rng, repair=repair)
    elapsed = time.perf_counter() - start
    return AlgorithmResult.from_configuration(
        "IND",
        instance,
        outcome.configuration,
        elapsed,
        info={
            "lp_objective": fractional.objective,
            "lp_seconds": fractional.lp_seconds,
            "duplication_violations": outcome.duplication_violations,
            "repaired": repair,
            **info,
        },
    )


__all__ = ["IndependentRoundingOutcome", "independent_rounding", "run_independent_rounding"]
