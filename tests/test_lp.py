"""Tests for the LP relaxations (LP_SVGIC, LP_SIMP) and candidate-item pruning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ip import solve_exact
from repro.core.lp import (
    _build_full,
    _build_sparse,
    _candidate_lists,
    _candidate_selection,
    _decode_full,
    candidate_items,
    solve_lp_relaxation,
    solve_lp_relaxations_stacked,
)
from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.core.registry import run_registered
from repro.core.svgic_st import size_violation_report
from repro.data import datasets
from repro.data.example_paper import paper_example_instance
from repro.solvers import linprog as linprog_module
from repro.solvers.assembly import csr_row_ids

from oracles.assembly_reference import simplified_lp_value
from oracles.pricing_certificate import check_certificate, recording_solves


@pytest.fixture(scope="module")
def instance():
    return paper_example_instance()


@pytest.fixture(scope="module")
def crowded_st_instance():
    """Four users who all rank items 0-2 on top, one slot, subgroup cap 1.

    Every user's top ``k + 2`` items are the same three, but four users under
    a cap of one need four distinct items.
    """
    base = SVGICInstance(
        num_users=4,
        num_items=4,
        num_slots=1,
        social_weight=0.5,
        preference=np.tile([0.9, 0.8, 0.7, 0.1], (4, 1)),
        edges=np.empty((0, 2), dtype=np.int64),
        social=np.empty((0, 4)),
        name="crowded",
    )
    return SVGICSTInstance.from_instance(base, max_subgroup_size=1)


class TestCandidateItems:
    def test_contains_every_users_top_items(self, small_timik_instance):
        items = set(candidate_items(small_timik_instance).tolist())
        k = small_timik_instance.num_slots
        for u in range(small_timik_instance.num_users):
            top = np.argsort(-small_timik_instance.preference[u])[:1]
            # The single most preferred item of each user should survive pruning
            # (it appears in the user's top k + extra list by construction).
            assert int(top[0]) in items or len(items) == small_timik_instance.num_items

    def test_respects_max_items(self, small_timik_instance):
        items = candidate_items(small_timik_instance, max_items=8)
        assert len(items) <= max(8, small_timik_instance.num_slots)

    def test_at_least_k_items(self, tiny_instance):
        items = candidate_items(tiny_instance, max_items=1)
        assert len(items) >= tiny_instance.num_slots

    def test_sorted_unique(self, small_timik_instance):
        items = candidate_items(small_timik_instance)
        assert np.all(np.diff(items) > 0)

    def test_st_keeps_enough_items_for_the_subgroup_cap(self, crowded_st_instance):
        assert candidate_items(crowded_st_instance).tolist() == [0, 1, 2, 3]
        assert candidate_items(crowded_st_instance, max_items=2).tolist() == [0, 1, 2, 3]


class TestSimplifiedRelaxation:
    def test_row_sums_equal_k(self, instance):
        frac = solve_lp_relaxation(instance, prune_items=False)
        np.testing.assert_allclose(
            frac.compact_factors.sum(axis=1), instance.num_slots, atol=1e-6
        )

    def test_factors_within_unit_interval(self, instance):
        frac = solve_lp_relaxation(instance, prune_items=False)
        assert frac.compact_factors.min() >= -1e-9
        assert frac.compact_factors.max() <= 1.0 + 1e-9

    def test_slot_factors_are_compact_over_k(self, instance):
        frac = solve_lp_relaxation(instance, prune_items=False)
        np.testing.assert_allclose(
            frac.slot_factors[:, :, 0], frac.compact_factors / instance.num_slots, atol=1e-9
        )
        assert frac.slot_factors.shape == (4, 5, 3)

    def test_upper_bounds_exact_optimum(self, instance):
        frac = solve_lp_relaxation(instance, prune_items=False)
        exact = solve_exact(instance, prune_items=False)
        assert frac.objective >= exact.objective - 1e-8

    def test_pruning_keeps_bound_above_optimum(self, small_timik_instance):
        frac = solve_lp_relaxation(small_timik_instance, prune_items=True)
        exact = solve_exact(small_timik_instance, prune_items=True, time_limit=20)
        assert frac.objective >= exact.objective - 1e-6

    def test_pruned_items_have_zero_mass(self, small_timik_instance):
        frac = solve_lp_relaxation(small_timik_instance, prune_items=True, max_candidate_items=10)
        pruned = np.setdiff1d(
            np.arange(small_timik_instance.num_items), frac.candidate_item_ids
        )
        if pruned.size:
            assert np.all(frac.compact_factors[:, pruned] == 0)

    def test_objective_scale_conversion(self, instance):
        frac = solve_lp_relaxation(instance, prune_items=False)
        assert frac.scaled_objective(instance) == pytest.approx(
            frac.objective / instance.social_weight
        )


class TestFullRelaxation:
    def test_observation2_same_objective(self, instance):
        """Observation 2: LP_SIMP and LP_SVGIC have identical optima."""
        simplified = solve_lp_relaxation(instance, formulation="simplified", prune_items=False)
        full = solve_lp_relaxation(instance, formulation="full", prune_items=False)
        assert simplified.objective == pytest.approx(full.objective, rel=1e-6)

    def test_full_per_slot_constraints(self, instance):
        full = solve_lp_relaxation(instance, formulation="full", prune_items=False)
        # sum_c x[u,c,s] == 1 for every display unit.
        sums = full.slot_factors.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)
        # no-duplication: sum_s x[u,c,s] <= 1.
        assert full.slot_factors.sum(axis=2).max() <= 1.0 + 1e-6

    def test_unknown_formulation_rejected(self, instance):
        with pytest.raises(ValueError):
            solve_lp_relaxation(instance, formulation="quadratic")


class TestSTRelaxation:
    def test_aggregate_size_constraint_simplified(self, tiny_instance):
        st = SVGICSTInstance.from_instance(tiny_instance, max_subgroup_size=2)
        frac = solve_lp_relaxation(st, prune_items=False)
        cap = st.max_subgroup_size * st.num_slots
        assert frac.compact_factors.sum(axis=0).max() <= cap + 1e-6

    def test_per_slot_size_constraint_full(self, tiny_instance):
        st = SVGICSTInstance.from_instance(tiny_instance, max_subgroup_size=2)
        frac = solve_lp_relaxation(st, formulation="full", prune_items=False)
        per_cell = frac.slot_factors.sum(axis=0)  # (m, k)
        assert per_cell.max() <= st.max_subgroup_size + 1e-6

    def test_st_bound_not_below_unconstrained_solution_value(self, tiny_instance):
        st = SVGICSTInstance.from_instance(tiny_instance, max_subgroup_size=3)
        unconstrained = solve_lp_relaxation(tiny_instance, prune_items=False)
        constrained = solve_lp_relaxation(st, prune_items=False)
        # With M = n the constraint is vacuous; objectives match.
        assert constrained.objective == pytest.approx(unconstrained.objective, rel=1e-6)

    @pytest.mark.parametrize("formulation", ["simplified", "full"])
    def test_pruned_relaxation_feasible_under_tight_cap(self, crowded_st_instance, formulation):
        pruned = solve_lp_relaxation(crowded_st_instance, formulation=formulation)
        unpruned = solve_lp_relaxation(
            crowded_st_instance, formulation=formulation, prune_items=False
        )
        assert pruned.objective == pytest.approx(unpruned.objective, rel=1e-9)

    def test_pruned_ip_feasible_under_tight_cap(self, crowded_st_instance):
        result = solve_exact(crowded_st_instance)
        assert result.optimal
        assert size_violation_report(crowded_st_instance, result.configuration).feasible
        assert sorted(result.configuration.assignment[:, 0].tolist()) == [0, 1, 2, 3]

    def test_avg_d_default_lp_on_st_instance_needing_more_candidates(self):
        # The candidate union here holds 33 items, but the aggregate cap
        # sum_u x̄[u,c] <= M·k needs ceil(100 / 3) = 34 of them.
        instance = datasets.make_st_instance(
            "timik", num_users=100, num_items=40, num_slots=3, max_subgroup_size=3, seed=0
        )
        result = run_registered("AVG-D", instance)
        assert result.configuration.is_valid(instance)
        assert result.objective > 0


def universe_solve(instance, formulation="simplified", prune_items=True, max_candidate_items=None):
    """``(objective, compact factors)`` of the universe model, solved in one call."""
    if formulation == "full":
        items = _candidate_selection(instance, prune_items, max_candidate_items)
        result = _build_full(instance, items, True).solve()
        return result.objective, _decode_full(instance, items, result.values).sum(axis=2)
    indptr, indices = _candidate_lists(instance, formulation, prune_items, max_candidate_items, True)
    result = _build_sparse(instance, indptr, indices, True).solve()
    compact = np.zeros((instance.num_users, instance.num_items))
    compact[csr_row_ids(indptr), indices] = np.clip(result.values[: indptr[-1]], 0.0, 1.0)
    return result.objective, compact


#: Universe lists whose start lists are smaller than them, so the LP is priced.
PRICED_LISTS = pytest.mark.parametrize(
    "formulation, settings",
    [
        ("simplified", {}),
        ("simplified", {"prune_items": False}),
        ("sparse", {"prune_items": False}),
        ("sparse", {"max_candidate_items": 8}),
    ],
    ids=["simplified", "simplified-unpruned", "sparse-unpruned", "sparse-max-8"],
)


@pytest.mark.skipif(linprog_module._highs is None, reason="SciPy's HiGHS binding is not in use")
class TestColumnPricing:
    """LP_SIMP is priced from per-user start lists to the universe model's optimum."""

    @staticmethod
    def _assert_factors(solution, instance):
        # The factors alone give back the objective: this pins the decode of
        # the grown columns to their (user, item) cells at any optimal vertex.
        factors = solution.compact_factors
        np.testing.assert_allclose(factors.sum(axis=1), instance.num_slots, atol=1e-9)
        assert factors.min() >= 0.0 and factors.max() <= 1.0
        if isinstance(instance, SVGICSTInstance):  # the cap rows sum_u x̄[u, c] <= M·k
            cap = instance.max_subgroup_size * instance.num_slots
            assert factors.sum(axis=0).max() <= cap + 1e-9
        assert simplified_lp_value(instance, factors) == pytest.approx(
            solution.objective, rel=1e-9
        )

    @pytest.mark.parametrize("dataset", ["timik", "epinions", "yelp"])
    @pytest.mark.parametrize("social_weight", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize(
        "formulation, settings",
        [
            ("simplified", {}),
            ("simplified", {"prune_items": False}),
            ("sparse", {"prune_items": False}),
            ("simplified", {"max_candidate_items": 12}),
            ("sparse", {"max_candidate_items": 8}),
        ],
        ids=["simplified", "simplified-unpruned", "sparse-unpruned", "simplified-max-12",
             "sparse-max-8"],
    )
    def test_objective_equals_universe_solve(self, dataset, social_weight, formulation, settings):
        instance = datasets.make_instance(
            dataset, num_users=16, num_items=24, num_slots=3, social_weight=social_weight, seed=7
        )
        solution = solve_lp_relaxation(instance, formulation=formulation, **settings)
        objective, _ = universe_solve(instance, formulation, **settings)
        assert solution.objective == pytest.approx(objective, rel=1e-9)
        self._assert_factors(solution, instance)

    def test_edgeless_instance(self):
        rng = np.random.default_rng(3)
        instance = SVGICInstance(
            num_users=6,
            num_items=12,
            num_slots=2,
            social_weight=0.5,
            preference=rng.uniform(size=(6, 12)),
            edges=np.empty((0, 2), dtype=np.int64),
            social=np.empty((0, 12)),
            name="edgeless",
        )
        solution = solve_lp_relaxation(instance, prune_items=False)
        objective, _ = universe_solve(instance, prune_items=False)
        assert solution.objective == pytest.approx(objective, rel=1e-9)
        self._assert_factors(solution, instance)

    def test_solve_ls_shape_prices_on_one_session(self):
        instance = datasets.make_instance("timik", num_users=20, num_items=30, num_slots=3, seed=1)
        lists = _candidate_lists(instance, "simplified", True, None, True)
        universe_columns = _build_sparse(instance, *lists, True).num_variables
        with recording_solves(linprog_module) as solves:
            solution = solve_lp_relaxation(instance)
        assert len(solves) == 1 and solves[0].rounds
        assert len(solves[0].keywords["c"]) < universe_columns
        objective, _ = universe_solve(instance)
        assert solution.objective == pytest.approx(objective, rel=1e-9)
        self._assert_factors(solution, instance)
        np.testing.assert_array_equal(solution.candidate_item_ids, np.unique(lists[1]))

    @pytest.mark.parametrize(
        "formulation, capped",
        [("sparse", True), ("sparse", False), ("full", False)],
        ids=["st-capped-sparse", "sparse", "full"],
    )
    def test_unpriced_solve_is_the_universe_solve(self, formulation, capped):
        # Default "sparse" lists are their own start: padded for the cap, the
        # start pads to the same shared items.
        shape = dict(num_users=12, num_items=20, num_slots=3, seed=4)
        if capped:  # M * k = 9 < n = 12
            instance = datasets.make_st_instance("timik", max_subgroup_size=3, **shape)
        else:
            instance = datasets.make_instance("timik", **shape)
        objective, compact = universe_solve(instance, formulation)
        with recording_solves(linprog_module) as solves:
            solution = solve_lp_relaxation(instance, formulation=formulation)
        assert len(solves) == 1 and solves[0].keywords["price"] is None
        assert solution.objective == objective
        assert np.array_equal(solution.compact_factors, compact)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @PRICED_LISTS
    def test_capped_objective_equals_universe_solve(self, seed, formulation, settings):
        # n = 40 users, at most M·k = 12 per item: the cap rows bind.
        instance = datasets.make_st_instance(
            "timik", num_users=40, num_items=30, num_slots=3, max_subgroup_size=4, seed=seed
        )
        solution = solve_lp_relaxation(instance, formulation=formulation, **settings)
        objective, _ = universe_solve(instance, formulation, **settings)
        assert solution.objective == pytest.approx(objective, rel=1e-9)
        self._assert_factors(solution, instance)
        uncapped = solve_lp_relaxation(
            instance, formulation=formulation, enforce_size_constraint=False, **settings
        )
        assert uncapped.objective > objective + 1e-6

    def test_churn_setup_shape_prices_on_one_session(self):
        # ChurnEngine's first solve: about 165 active users of an n=300, m=60,
        # k=3 SVGIC-ST universe under a cap of 5.
        universe = datasets.make_st_instance(
            "timik", num_users=300, num_items=60, num_slots=3, max_subgroup_size=5, seed=2020
        )
        active = np.sort(np.random.default_rng(1).permutation(300)[:165])
        instance, _ = universe.subgroup_instance([int(u) for u in active])
        lists = _candidate_lists(instance, "simplified", True, None, True)
        universe_columns = _build_sparse(instance, *lists, True).num_variables
        with recording_solves(linprog_module) as solves:
            solution = solve_lp_relaxation(instance)
        assert len(solves) == 1 and solves[0].rounds
        assert len(solves[0].keywords["c"]) < universe_columns
        objective, _ = universe_solve(instance)
        assert solution.objective == pytest.approx(objective, rel=1e-9)
        self._assert_factors(solution, instance)

    def test_start_padded_outside_the_universe_is_the_universe_solve(self):
        """Users 0-3 rank items 0-2 on top, user 4 items 3-5; item 6 is everyone's fourth.

        The pruned candidate set is items 0-5, enough for five users under a
        cap of one.  The top-3 start lists are not: users 0-3 share three
        items.  The padding set is the top five items by global score, which
        holds item 6, outside the candidate set, so the LP is one solve of
        the universe model.
        """
        preference = np.tile([0.9, 0.85, 0.8, 0.05, 0.04, 0.03, 0.5, 0.01], (5, 1))
        preference[4] = [0.1, 0.1, 0.1, 0.9, 0.85, 0.8, 0.5, 0.01]
        base = SVGICInstance(
            num_users=5,
            num_items=8,
            num_slots=1,
            social_weight=0.5,
            preference=preference,
            edges=np.empty((0, 2), dtype=np.int64),
            social=np.empty((0, 8)),
            name="padded-outside",
        )
        instance = SVGICSTInstance.from_instance(base, max_subgroup_size=1)
        assert candidate_items(instance).tolist() == [0, 1, 2, 3, 4, 5]
        objective, compact = universe_solve(instance)
        with recording_solves(linprog_module) as solves:
            solution = solve_lp_relaxation(instance)
        assert len(solves) == 1 and solves[0].keywords["price"] is None
        assert solution.objective == objective
        assert np.array_equal(solution.compact_factors, compact)

    @pytest.mark.parametrize("capped", [False, True], ids=["svgic", "st-capped"])
    @PRICED_LISTS
    @pytest.mark.parametrize("dataset", ["timik", "yelp"])
    def test_extended_duals_certify_the_universe_optimum(
        self, dataset, formulation, settings, capped
    ):
        shape = dict(num_users=40, num_items=30, num_slots=3, seed=5)
        if capped:
            instance = datasets.make_st_instance(dataset, max_subgroup_size=4, **shape)
        else:
            instance = datasets.make_instance(dataset, **shape)
        with recording_solves(linprog_module) as solves:
            solution = solve_lp_relaxation(instance, formulation=formulation, **settings)
        assert len(solves) == 1 and solves[0].rounds
        prune, max_items = settings.get("prune_items", True), settings.get("max_candidate_items")
        lists = _candidate_lists(instance, formulation, prune, max_items, True)
        assert check_certificate(instance, lists, solves[0]) == solution.objective


@pytest.mark.parametrize("formulation", ["simplified", "sparse", "full"])
@pytest.mark.parametrize("prune_items", [True, False])
def test_no_pricing_without_the_binding(monkeypatch, formulation, prune_items):
    """With ``_highs`` set to ``None`` at call time, every solve is one universe solve."""
    monkeypatch.setattr(linprog_module, "_highs", None)
    instance = datasets.make_instance("timik", num_users=12, num_items=20, num_slots=3, seed=5)
    objective, compact = universe_solve(instance, formulation, prune_items=prune_items)
    solution = solve_lp_relaxation(instance, formulation=formulation, prune_items=prune_items)
    assert solution.objective == objective
    assert np.array_equal(solution.compact_factors, compact)


@pytest.mark.skipif(linprog_module._highs is None, reason="SciPy's HiGHS binding is not in use")
class TestLinprogFallback:
    """``scipy.optimize.linprog`` (no binding) solves every model as the direct HiGHS call does.

    Without the binding nothing is priced: the fallback solves the universe
    model.  Where the direct path prices, it solves a restricted model whose
    vertex is the fallback's only when the optimum is unique, so those
    cases compare objectives at 1e-9 and check both solutions' factors.
    """

    @staticmethod
    def _assert_same(direct, fallback, instance, priced):
        if not priced:
            assert direct.objective == fallback.objective
            assert np.array_equal(direct.compact_factors, fallback.compact_factors)
            assert np.array_equal(direct.slot_factors, fallback.slot_factors)
            return
        assert direct.objective == pytest.approx(fallback.objective, rel=1e-9)
        for solution in (direct, fallback):
            TestColumnPricing._assert_factors(solution, instance)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "formulation, capped, priced",
        [("simplified", False, True), ("sparse", False, False), ("full", False, False),
         ("simplified", True, True), ("sparse", True, False)],
        ids=["simplified", "sparse", "full", "st-capped-simplified", "st-capped-sparse"],
    )
    def test_same_solution(self, monkeypatch, seed, formulation, capped, priced):
        shape = dict(num_users=12, num_items=20, num_slots=3, seed=seed)
        if capped:  # M * k = 9 < n = 12: LP_SIMP gets the aggregate cap rows
            instance = datasets.make_st_instance("timik", max_subgroup_size=3, **shape)
        else:
            instance = datasets.make_instance("timik", **shape)
        direct = solve_lp_relaxation(instance, formulation=formulation)
        monkeypatch.setattr(linprog_module, "_highs", None)
        fallback = solve_lp_relaxation(instance, formulation=formulation)
        self._assert_same(direct, fallback, instance, priced)

    def test_same_block_diagonal_batch(self, monkeypatch):
        instances = [
            datasets.make_instance("timik", num_users=n, num_items=15, num_slots=3, seed=seed)
            for seed, n in enumerate((8, 10, 12))
        ]
        direct = solve_lp_relaxations_stacked(instances)
        monkeypatch.setattr(linprog_module, "_highs", None)
        fallback = solve_lp_relaxations_stacked(instances)
        assert len(direct) == len(fallback) == len(instances)
        for instance, ours, theirs in zip(instances, direct, fallback):
            self._assert_same(ours, theirs, instance, priced=True)
