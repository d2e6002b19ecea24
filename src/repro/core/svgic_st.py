"""SVGIC-ST specific helpers: feasibility checking and co-display accounting.

The SVGIC-ST problem (Section 3.2) adds two ingredients on top of SVGIC:

* *indirect co-display* — friends shown the same item at different slots
  still obtain social utility, discounted by ``d_tel`` (teleportation); and
* a *subgroup size constraint* ``M`` — no more than ``M`` users may be
  directly co-displayed the same item at the same slot.

The objective with indirect co-display lives in
:func:`repro.core.objective.evaluate_st`; this module provides the
constraint-side machinery used by the experiments of Section 6.8:
violation counting, feasibility ratio, and enumeration of direct/indirect
co-display events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.configuration import SAVGConfiguration, cell_counts
from repro.core.problem import SVGICInstance, SVGICSTInstance


@dataclass(frozen=True)
class SizeViolationReport:
    """Summary of subgroup-size constraint violations of one configuration.

    Attributes
    ----------
    oversized_subgroups:
        Number of (slot, item) subgroups whose size exceeds ``M``.
    excess_users:
        Total number of users beyond the cap, summed over oversized subgroups
        (the paper's "total violation ... in total number of users").
    largest_subgroup:
        Size of the largest subgroup found.
    """

    oversized_subgroups: int
    excess_users: int
    largest_subgroup: int

    @property
    def feasible(self) -> bool:
        """Whether the configuration satisfies the subgroup size constraint."""
        return self.oversized_subgroups == 0


def size_violation_report(
    instance: SVGICSTInstance, config: SAVGConfiguration
) -> SizeViolationReport:
    """Count subgroup-size violations of ``config`` under ``instance.max_subgroup_size``."""
    sizes = cell_counts(config.assignment, config.num_items)
    excess = np.maximum(sizes - instance.max_subgroup_size, 0)
    return SizeViolationReport(
        oversized_subgroups=int(np.count_nonzero(excess)),
        excess_users=int(excess.sum()),
        largest_subgroup=int(sizes.max(initial=0)),
    )


def is_feasible(instance: SVGICSTInstance, config: SAVGConfiguration) -> bool:
    """Whether ``config`` is a feasible SVGIC-ST solution (complete, duplicate-free, size-ok)."""
    if not config.is_valid(instance):
        return False
    return size_violation_report(instance, config).feasible


def co_display_events(
    instance: SVGICInstance, config: SAVGConfiguration
) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, int, int]]]:
    """Enumerate direct and indirect co-display events of a configuration.

    Returns two lists of ``(u, v, item)`` triples over undirected friend
    pairs: the first for direct co-displays (same slot), the second for
    indirect ones (different slots).  Useful for debugging and for the
    teleportation-suggestion logic of the dynamic scenario (Section 5F).
    """
    direct: List[Tuple[int, int, int]] = []
    indirect: List[Tuple[int, int, int]] = []
    for u, v in instance.pairs:
        u, v = int(u), int(v)
        items_u = set(config.items_for_user(u))
        items_v = set(config.items_for_user(v))
        for item in sorted(items_u & items_v):
            if config.co_displayed(u, v, item):
                direct.append((u, v, item))
            else:
                indirect.append((u, v, item))
    return direct, indirect


def subgroup_size_histogram(config: SAVGConfiguration) -> Dict[int, int]:
    """Histogram of subgroup sizes across all slots (size -> count)."""
    sizes, frequency = np.unique(config.subgroup_sizes(), return_counts=True)
    return dict(zip(sizes.tolist(), frequency.tolist()))


__all__ = [
    "SizeViolationReport",
    "size_violation_report",
    "is_feasible",
    "co_display_events",
    "subgroup_size_histogram",
]
