"""Property-based tests (hypothesis) for the core invariants of the library."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.avg import csf_rounding, run_avg
from repro.core.avg_d import run_avg_d
from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.greedy import greedy_complete, top_k_preference_configuration
from repro.core.ip import _build_program_sparse
from repro.core.lp import _build_sparse, _candidate_lists, candidate_items, solve_lp_relaxation
from repro.core.objective import DeltaEvaluator, evaluate, per_user_utility, total_utility
from repro.core.pipeline import LocalSearchImprover
from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.core.sparse import uniform_candidate_lists
from repro.metrics.regret import regret_ratios
from repro.metrics.subgroups import subgroup_metrics

from oracles import assembly_reference as oracle
from oracles.local_search_reference import ReferenceLocalSearchImprover

SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def svgic_instances(draw, zero_cells=False, max_users=5, max_items=7):
    """Random small SVGIC instances with arbitrary utilities and edge sets.

    ``zero_cells=True`` also zeroes a drawn share of the social entries, so
    some pair-item cells carry no weight.
    """
    num_users = draw(st.integers(min_value=2, max_value=max_users))
    num_items = draw(st.integers(min_value=3, max_value=max_items))
    num_slots = draw(st.integers(min_value=1, max_value=min(3, num_items)))
    social_weight = draw(st.sampled_from([0.25, 0.5, 0.75]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    preference = rng.uniform(0.0, 1.0, size=(num_users, num_items))
    density = draw(st.sampled_from([0.0, 0.3, 0.7]))
    edges = [
        (u, v)
        for u in range(num_users)
        for v in range(num_users)
        if u != v and rng.random() < density
    ]
    edges = np.asarray(edges, dtype=np.int64) if edges else np.empty((0, 2), dtype=np.int64)
    social = rng.uniform(0.0, 0.6, size=(edges.shape[0], num_items))
    if zero_cells:
        social[rng.random(social.shape) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    return SVGICInstance(
        num_users=num_users,
        num_items=num_items,
        num_slots=num_slots,
        social_weight=social_weight,
        preference=preference,
        edges=edges,
        social=social,
        name="hypothesis",
    )


@st.composite
def assembly_instances(draw, **sizes):
    """SVGIC and SVGIC-ST instances with zero pair cells and active or vacuous caps."""
    instance = draw(svgic_instances(zero_cells=True, **sizes))
    n, m = instance.num_users, instance.num_items
    cap = draw(st.one_of(st.none(), st.integers(min_value=-(-n // m), max_value=n)))
    if cap is None:
        return instance
    return SVGICSTInstance.from_instance(
        instance,
        max_subgroup_size=cap,
        teleport_discount=draw(st.sampled_from([0.0, 0.3])),
    )


@st.composite
def instances_with_configs(draw):
    """A random instance paired with a random valid configuration."""
    instance = draw(svgic_instances())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    assignment = np.stack(
        [
            rng.permutation(instance.num_items)[: instance.num_slots]
            for _ in range(instance.num_users)
        ]
    )
    config = SAVGConfiguration(assignment=assignment, num_items=instance.num_items)
    return instance, config


class TestInstanceInvariants:
    @settings(**SETTINGS)
    @given(svgic_instances())
    def test_pair_social_is_symmetric_aggregate(self, instance):
        # Total pair social mass equals total directed social mass.
        assert instance.pair_social.sum() == pytest.approx(instance.social.sum())

    @settings(**SETTINGS)
    @given(svgic_instances())
    def test_scaled_objective_roundtrip(self, instance):
        if instance.social_weight == 0:
            return
        value = float(np.sum(instance.preference))
        assert instance.scaled_to_true_objective(
            instance.true_to_scaled_objective(value)
        ) == pytest.approx(value)


class TestConfigurationInvariants:
    @settings(**SETTINGS)
    @given(instances_with_configs())
    def test_random_permutation_configs_are_valid(self, pair):
        instance, config = pair
        assert config.is_valid(instance)

    @settings(**SETTINGS)
    @given(instances_with_configs())
    def test_per_user_utilities_sum_to_total(self, pair):
        instance, config = pair
        assert per_user_utility(instance, config).sum() == pytest.approx(
            total_utility(instance, config)
        )

    @settings(**SETTINGS)
    @given(instances_with_configs())
    def test_breakdown_components_non_negative(self, pair):
        instance, config = pair
        breakdown = evaluate(instance, config)
        assert breakdown.preference >= -1e-12
        assert breakdown.social >= -1e-12

    @settings(**SETTINGS)
    @given(instances_with_configs())
    def test_subgroup_metric_ranges(self, pair):
        instance, config = pair
        metrics = subgroup_metrics(instance, config)
        assert 0.0 <= metrics.co_display_ratio <= 1.0
        assert 0.0 <= metrics.alone_ratio <= 1.0
        assert 0.0 - 1e-12 <= metrics.intra_edge_ratio + metrics.inter_edge_ratio <= 1.0 + 1e-12

    @settings(**SETTINGS)
    @given(instances_with_configs())
    def test_regret_ratios_within_unit_interval(self, pair):
        instance, config = pair
        regrets = regret_ratios(instance, config)
        assert np.all(regrets >= -1e-12)
        assert np.all(regrets <= 1.0 + 1e-12)


class TestGreedyInvariants:
    @settings(**SETTINGS)
    @given(svgic_instances())
    def test_top_k_configuration_valid(self, instance):
        config = top_k_preference_configuration(instance)
        assert config.is_valid(instance)

    @settings(**SETTINGS)
    @given(svgic_instances())
    def test_top_k_maximizes_preference_part(self, instance):
        config = top_k_preference_configuration(instance)
        greedy_value = evaluate(instance, config).preference
        rng = np.random.default_rng(0)
        assignment = np.stack(
            [
                rng.permutation(instance.num_items)[: instance.num_slots]
                for _ in range(instance.num_users)
            ]
        )
        random_config = SAVGConfiguration(assignment=assignment, num_items=instance.num_items)
        assert greedy_value >= evaluate(instance, random_config).preference - 1e-9

    @settings(**SETTINGS)
    @given(svgic_instances(), st.integers(min_value=0, max_value=10))
    def test_greedy_complete_always_valid(self, instance, seed):
        rng = np.random.default_rng(seed)
        config = SAVGConfiguration.for_instance(instance)
        # Pre-assign a random subset of units without duplicates.
        for user in range(instance.num_users):
            items = rng.permutation(instance.num_items)
            cursor = 0
            for slot in range(instance.num_slots):
                if rng.random() < 0.5:
                    config.assignment[user, slot] = items[cursor]
                    cursor += 1
        greedy_complete(instance, config)
        assert config.is_valid(instance)


class TestAlgorithmInvariants:
    @settings(**SETTINGS)
    @given(svgic_instances(), st.integers(min_value=0, max_value=1000))
    def test_avg_always_returns_valid_configuration(self, instance, seed):
        result = run_avg(instance, rng=seed, prune_items=False)
        assert result.configuration.is_valid(instance)

    @settings(**SETTINGS)
    @given(svgic_instances())
    def test_avg_d_objective_at_least_quarter_of_lp(self, instance):
        if instance.social_weight == 0:
            return
        fractional = solve_lp_relaxation(instance, prune_items=False)
        result = run_avg_d(instance, fractional, balancing_ratio=0.25)
        assert result.objective >= fractional.objective / 4.0 - 1e-9

    @settings(**SETTINGS)
    @given(svgic_instances(), st.integers(min_value=0, max_value=1000))
    def test_csf_objective_never_exceeds_lp_bound(self, instance, seed):
        fractional = solve_lp_relaxation(instance, prune_items=False)
        config, _ = csf_rounding(instance, fractional, rng=seed)
        assert total_utility(instance, config) <= fractional.objective + 1e-6

    @settings(**SETTINGS)
    @given(svgic_instances())
    def test_lp_row_sums_equal_k(self, instance):
        fractional = solve_lp_relaxation(instance, prune_items=False)
        np.testing.assert_allclose(
            fractional.compact_factors.sum(axis=1), instance.num_slots, atol=1e-5
        )


class TestObservation2:
    """Observation 2: LP_SIMP and LP_SVGIC have the same optimal objective."""

    @settings(**SETTINGS)
    @given(svgic_instances())
    def test_full_equals_simplified_on_svgic(self, instance):
        simplified = solve_lp_relaxation(instance, formulation="simplified", prune_items=False)
        full = solve_lp_relaxation(instance, formulation="full", prune_items=False)
        assert full.objective == pytest.approx(simplified.objective, rel=1e-6, abs=1e-7)

    @settings(**SETTINGS)
    @given(svgic_instances(), st.integers(min_value=2, max_value=3))
    def test_full_equals_simplified_on_st_with_size_relaxation(self, instance, cap):
        # The simplified formulation carries the aggregate relaxation
        # sum_u x̄[u,c] <= M·k, the full one the per-slot cap
        # sum_u x[u,c,s] <= M; averaging/aggregating over slots maps either
        # optimum onto a feasible solution of the other, so the equality of
        # Observation 2 survives the size constraint.
        st_instance = SVGICSTInstance.from_instance(instance, max_subgroup_size=cap)
        simplified = solve_lp_relaxation(st_instance, formulation="simplified", prune_items=False)
        full = solve_lp_relaxation(st_instance, formulation="full", prune_items=False)
        assert full.objective == pytest.approx(simplified.objective, rel=1e-6, abs=1e-7)


class TestSingleAssembler:
    """LP_SIMP and the IP have one CSR assembler, pinned to the loop oracle."""

    @settings(**SETTINGS)
    @given(assembly_instances(), st.booleans())
    def test_csr_models_equal_loop_oracle_minus_empty_columns(self, instance, prune):
        items = candidate_items(instance) if prune else np.arange(instance.num_items)
        lists = uniform_candidate_lists(instance.num_users, items)
        assert oracle.same_model(
            _build_sparse(instance, *lists, True),
            oracle.drop_empty_columns(oracle.build_simplified_lp_reference(instance, items, True)),
        )
        assert oracle.same_model(
            _build_program_sparse(instance, *lists),
            oracle.drop_empty_columns(oracle.build_ip_reference(instance, items)),
        )

    @settings(**SETTINGS)
    @given(assembly_instances())
    def test_simplified_and_sparse_identical_with_full_lists(self, instance):
        # The two formulations differ only in list policy; unpruned, the
        # policies agree, so the solutions must be bit-identical.
        simplified = solve_lp_relaxation(instance, formulation="simplified", prune_items=False)
        sparse = solve_lp_relaxation(instance, formulation="sparse", prune_items=False)
        np.testing.assert_array_equal(simplified.compact_factors, sparse.compact_factors)
        assert simplified.objective == sparse.objective

    @settings(**SETTINGS)
    @given(assembly_instances(max_users=8, max_items=10), st.booleans())
    def test_priced_lp_equals_universe_solve(self, instance, prune):
        # LP_SIMP is priced from per-user start lists, made cap-feasible where
        # the drawn cap binds; the certified optimum is the universe model's.
        lists = _candidate_lists(instance, "simplified", prune, None, True)
        universe = _build_sparse(instance, *lists, True).solve()
        priced = solve_lp_relaxation(instance, prune_items=prune)
        assert priced.objective == pytest.approx(universe.objective, rel=1e-9, abs=1e-12)
        # The priced factors give back that objective: the decode puts every
        # grown column's value on its own (user, item) cell.
        value = oracle.simplified_lp_value(instance, priced.compact_factors)
        assert value == pytest.approx(priced.objective, rel=1e-9, abs=1e-12)


@st.composite
def exchange_states(draw):
    """An assembly instance with a duplicate-free, possibly partial configuration."""
    instance = draw(assembly_instances(max_users=9, max_items=10))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    assignment = np.stack(
        [
            rng.permutation(instance.num_items)[: instance.num_slots]
            for _ in range(instance.num_users)
        ]
    )
    assignment[rng.random(assignment.shape) < draw(st.sampled_from([0.0, 0.3]))] = UNASSIGNED
    return instance, SAVGConfiguration(assignment=assignment, num_items=instance.num_items)


def _applied_delta(evaluator, cells):
    """Change of the running total from writing ``cells``, reverted afterwards."""
    base = evaluator.total
    old = [int(evaluator.assignment[u, s]) for u, s, _ in cells]
    for u, s, item in cells:
        evaluator.set_cell(u, s, item)
    delta = evaluator.total - base
    for (u, s, _), item in zip(reversed(cells), reversed(old)):
        evaluator.set_cell(u, s, item)
    return delta


class TestExchangeKernels:
    """The closed-form exchange gains equal set_cell apply/revert deltas."""

    @settings(**{**SETTINGS, "max_examples": 200})
    @given(exchange_states())
    def test_slot_swap_gains_equal_applied_deltas(self, state):
        instance, config = state
        evaluator = DeltaEvaluator(instance, config)
        A = config.assignment
        k = instance.num_slots
        swaps = np.array(
            [
                (u, s1, s2)
                for u in range(instance.num_users)
                for s1 in range(k)
                for s2 in range(s1 + 1, k)
                if A[u, s1] != UNASSIGNED and A[u, s2] != UNASSIGNED
            ],
            dtype=np.int64,
        ).reshape(-1, 3)
        gains = evaluator.slot_swap_gains(swaps[:, 0], swaps[:, 1], swaps[:, 2])
        np.testing.assert_array_equal(evaluator.assignment, A)
        deltas = [
            _applied_delta(evaluator, [(u, s1, A[u, s2]), (u, s2, A[u, s1])])
            for u, s1, s2 in swaps
        ]
        np.testing.assert_allclose(gains, deltas, rtol=0, atol=1e-9)

    @settings(**{**SETTINGS, "max_examples": 200})
    @given(exchange_states())
    def test_pair_exchange_gains_equal_applied_deltas(self, state):
        instance, config = state
        evaluator = DeltaEvaluator(instance, config)
        A = config.assignment
        exchanges = np.array(
            [
                (pid, s)
                for pid, (u, v) in enumerate(instance.pairs)
                for s in range(instance.num_slots)
                if A[u, s] != UNASSIGNED
                and A[v, s] != UNASSIGNED
                and A[v, s] not in A[u]
                and A[u, s] not in A[v]
            ],
            dtype=np.int64,
        ).reshape(-1, 2)
        gains = evaluator.pair_exchange_gains(exchanges[:, 0], exchanges[:, 1])
        np.testing.assert_array_equal(evaluator.assignment, A)
        deltas = [
            _applied_delta(evaluator, [(u, s, A[v, s]), (v, s, A[u, s])])
            for (u, v), s in zip(instance.pairs[exchanges[:, 0]], exchanges[:, 1])
        ]
        np.testing.assert_allclose(gains, deltas, rtol=0, atol=1e-9)

    @settings(**SETTINGS)
    @given(exchange_states())
    def test_improver_matches_apply_revert_reference(self, state):
        instance, config = state
        fast = LocalSearchImprover().apply(instance, config)
        reference = ReferenceLocalSearchImprover().apply(instance, config)
        np.testing.assert_array_equal(
            fast.configuration.assignment, reference.configuration.assignment
        )
        assert (fast.info["moves"], fast.info["passes"]) == (
            reference.info["moves"],
            reference.info["passes"],
        )
