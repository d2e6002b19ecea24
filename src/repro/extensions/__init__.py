"""Practical-scenario extensions of SVGIC (Section 5) and the SEO application.

* :mod:`repro.extensions.commodity` — commodity values (Section 5A).
* :mod:`repro.extensions.slot_significance` — layout slot significance (5B).
* :mod:`repro.extensions.multi_view` — multi-view display (5C).
* :mod:`repro.extensions.groupwise` — generalized group-wise social benefits (5D).
* :mod:`repro.extensions.subgroup_change` — subgroup-change smoothing (5E).
* :mod:`repro.extensions.dynamic` — incremental dynamic sessions for user
  join/leave/preference drift (5F); its scalar oracle ships with the tests
  (``tests/oracles/dynamic_reference.py``).
* :mod:`repro.extensions.churn` — warm-start re-optimization engine over a
  dynamic session (event-local repair, LP-bound-triggered re-solves).
* :mod:`repro.extensions.seo` — Social Event Organization as an application
  of SVGIC-ST (Section 4.4).
"""

from repro.extensions.churn import ChurnEngine, ResolvePolicy, replay_incremental, solve_active
from repro.extensions.commodity import apply_commodity_values, solve_with_commodity_values
from repro.extensions.dynamic import DynamicSession
from repro.extensions.groupwise import DiminishingReturnsModel, groupwise_total_utility
from repro.extensions.multi_view import MultiViewConfiguration, extend_to_multi_view, multi_view_utility
from repro.extensions.seo import SEOInstance, organize_events
from repro.extensions.slot_significance import (
    aisle_significance,
    optimize_slot_order,
    solve_with_slot_significance,
)
from repro.extensions.subgroup_change import smooth_subgroup_changes, subgroup_change_cost

__all__ = [
    "apply_commodity_values",
    "solve_with_commodity_values",
    "aisle_significance",
    "optimize_slot_order",
    "solve_with_slot_significance",
    "MultiViewConfiguration",
    "extend_to_multi_view",
    "multi_view_utility",
    "DiminishingReturnsModel",
    "groupwise_total_utility",
    "subgroup_change_cost",
    "smooth_subgroup_changes",
    "DynamicSession",
    "ChurnEngine",
    "ResolvePolicy",
    "replay_incremental",
    "solve_active",
    "SEOInstance",
    "organize_events",
]
