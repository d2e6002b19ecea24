"""Equivalence tests: vectorized objective engine vs the scalar reference oracle.

The vectorized engine (:mod:`repro.core.objective`) must agree with the
demoted scalar implementation (``tests/oracles/objective_reference.py``) to
1e-9 on randomized SVGIC and SVGIC-ST instances — including partial
configurations with UNASSIGNED display units and duplicate-free random
assignments — and the :class:`~repro.core.objective.DeltaEvaluator` must
track a from-scratch re-evaluation through arbitrary mutation sequences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import objective as engine
from repro.core.configuration import UNASSIGNED, SAVGConfiguration, cell_counts
from repro.core.objective import DeltaEvaluator, UtilityBreakdown
from repro.core.problem import SVGICInstance, SVGICSTInstance
from repro.data import datasets

from oracles import objective_reference as oracle
from oracles.set_cell_reference import TwoPassDeltaEvaluator

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

TOLERANCE = 1e-9


@st.composite
def svgic_instances(draw, force_st: bool = False):
    """Random small SVGIC or SVGIC-ST instances with arbitrary utilities."""
    num_users = draw(st.integers(min_value=1, max_value=7))
    num_items = draw(st.integers(min_value=2, max_value=9))
    num_slots = draw(st.integers(min_value=1, max_value=min(4, num_items)))
    social_weight = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    preference = rng.uniform(0.0, 1.0, size=(num_users, num_items))
    density = draw(st.sampled_from([0.0, 0.3, 0.8]))
    edges = [
        (u, v)
        for u in range(num_users)
        for v in range(num_users)
        if u != v and rng.random() < density
    ]
    edges = np.asarray(edges, dtype=np.int64) if edges else np.empty((0, 2), dtype=np.int64)
    social = rng.uniform(0.0, 1.0, size=(edges.shape[0], num_items))
    make_st = force_st or draw(st.booleans())
    if make_st:
        # Keep the size constraint satisfiable: M * m >= n.
        min_cap = int(np.ceil(num_users / num_items))
        return SVGICSTInstance(
            num_users=num_users,
            num_items=num_items,
            num_slots=num_slots,
            social_weight=social_weight,
            preference=preference,
            edges=edges,
            social=social,
            teleport_discount=draw(st.sampled_from([0.0, 0.3, 0.5, 0.9])),
            max_subgroup_size=draw(st.integers(min_value=max(1, min_cap), max_value=num_users)),
            name="hypothesis-st",
        )
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
def instances_with_configs(draw, force_st: bool = False):
    """A random instance paired with a random (possibly partial) configuration."""
    instance = draw(svgic_instances(force_st=force_st))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    unassigned_rate = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(seed)
    assignment = np.stack(
        [
            rng.permutation(instance.num_items)[: instance.num_slots]
            for _ in range(instance.num_users)
        ]
    )
    if unassigned_rate > 0:
        holes = rng.random(assignment.shape) < unassigned_rate
        assignment = np.where(holes, UNASSIGNED, assignment)
    config = SAVGConfiguration(assignment=assignment, num_items=instance.num_items)
    return instance, config


def _assert_breakdowns_close(fast: UtilityBreakdown, slow: UtilityBreakdown) -> None:
    assert fast.preference == pytest.approx(slow.preference, abs=TOLERANCE)
    assert fast.social == pytest.approx(slow.social, abs=TOLERANCE)
    assert fast.indirect_social == pytest.approx(slow.indirect_social, abs=TOLERANCE)
    assert fast.total == pytest.approx(slow.total, abs=TOLERANCE)


class TestEngineMatchesOracle:
    @settings(**SETTINGS)
    @given(instances_with_configs())
    def test_raw_totals_agree(self, pair):
        instance, config = pair
        assert engine.raw_preference_total(instance, config) == pytest.approx(
            oracle.raw_preference_total(instance, config), abs=TOLERANCE
        )
        assert engine.raw_social_total(instance, config) == pytest.approx(
            oracle.raw_social_total(instance, config), abs=TOLERANCE
        )
        assert engine.raw_indirect_social_total(instance, config) == pytest.approx(
            oracle.raw_indirect_social_total(instance, config), abs=TOLERANCE
        )

    @settings(**SETTINGS)
    @given(instances_with_configs())
    def test_evaluate_agrees(self, pair):
        instance, config = pair
        _assert_breakdowns_close(
            engine.evaluate(instance, config), oracle.evaluate(instance, config)
        )

    @settings(**SETTINGS)
    @given(instances_with_configs(force_st=True))
    def test_evaluate_st_agrees(self, pair):
        instance, config = pair
        _assert_breakdowns_close(
            engine.evaluate_st(instance, config), oracle.evaluate_st(instance, config)
        )

    @settings(**SETTINGS)
    @given(instances_with_configs())
    def test_total_and_scaled_utility_agree(self, pair):
        instance, config = pair
        assert engine.total_utility(instance, config) == pytest.approx(
            oracle.total_utility(instance, config), abs=TOLERANCE
        )
        if instance.social_weight > 0:
            assert engine.scaled_total_utility(instance, config) == pytest.approx(
                oracle.scaled_total_utility(instance, config), abs=TOLERANCE
            )

    @settings(**SETTINGS)
    @given(instances_with_configs())
    def test_per_user_utility_agrees(self, pair):
        instance, config = pair
        np.testing.assert_allclose(
            engine.per_user_utility(instance, config),
            oracle.per_user_utility(instance, config),
            atol=TOLERANCE,
        )

    @settings(**SETTINGS)
    @given(svgic_instances())
    def test_optimistic_upper_bound_agrees(self, instance):
        np.testing.assert_allclose(
            engine.optimistic_user_upper_bound(instance),
            oracle.optimistic_user_upper_bound(instance),
            atol=TOLERANCE,
        )

    @settings(**SETTINGS)
    @given(instances_with_configs(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_weighted_total_utility_agrees(self, pair, seed):
        instance, config = pair
        rng = np.random.default_rng(seed)
        omega = rng.uniform(0.0, 2.0, size=instance.num_items)
        gamma = rng.uniform(0.0, 2.0, size=instance.num_slots)
        assert engine.weighted_total_utility(
            instance, config, commodity_values=omega, slot_significance=gamma
        ) == pytest.approx(
            oracle.weighted_total_utility(
                instance, config, commodity_values=omega, slot_significance=gamma
            ),
            abs=TOLERANCE,
        )


class TestShareEdgeCases:
    def _zero_instance(self) -> SVGICInstance:
        return SVGICInstance(
            num_users=2,
            num_items=3,
            num_slots=2,
            social_weight=0.5,
            preference=np.zeros((2, 3)),
            edges=np.array([[0, 1], [1, 0]]),
            social=np.zeros((2, 3)),
        )

    def test_shares_are_zero_when_total_is_zero(self):
        instance = self._zero_instance()
        config = SAVGConfiguration(assignment=np.array([[0, 1], [0, 1]]), num_items=3)
        breakdown = engine.evaluate(instance, config)
        assert breakdown.total == 0.0
        assert breakdown.preference_share == 0.0
        assert breakdown.social_share == 0.0

    def test_shares_are_zero_on_empty_configuration(self):
        instance = self._zero_instance()
        config = SAVGConfiguration.for_instance(instance)
        breakdown = engine.evaluate(instance, config)
        assert breakdown.preference_share == 0.0
        assert breakdown.social_share == 0.0

    def test_st_shares_zero_at_zero_total(self):
        instance = SVGICSTInstance.from_instance(
            self._zero_instance(), teleport_discount=0.5, max_subgroup_size=2
        )
        config = SAVGConfiguration(assignment=np.array([[0, 1], [1, 0]]), num_items=3)
        breakdown = engine.evaluate_st(instance, config)
        assert breakdown.total == 0.0
        assert breakdown.preference_share == 0.0
        assert breakdown.social_share == 0.0


class TestDeltaEvaluator:
    @settings(**SETTINGS)
    @given(instances_with_configs(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_mutation_sequence_matches_full_reevaluation(self, pair, seed):
        instance, config = pair
        rng = np.random.default_rng(seed)
        delta = DeltaEvaluator(instance, config)
        full_eval = (
            oracle.evaluate_st if isinstance(instance, SVGICSTInstance) else oracle.evaluate
        )
        for _ in range(12):
            user = int(rng.integers(instance.num_users))
            slot = int(rng.integers(instance.num_slots))
            item = int(rng.integers(-1, instance.num_items))  # -1 clears the cell
            delta.set_cell(user, slot, item)
            snapshot = SAVGConfiguration(
                assignment=delta.assignment.copy(), num_items=instance.num_items
            )
            _assert_breakdowns_close(delta.breakdown, full_eval(instance, snapshot))

    @pytest.mark.parametrize("capped", [False, True], ids=["svgic", "svgic-st"])
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_match_a_recount_after_every_write(self, capped, seed):
        """``counts`` follows set_cell, clear_cell and clear_row, repeats and holes included."""
        n, m, k = 9, 6, 3
        if capped:
            instance = datasets.make_st_instance(
                "timik", num_users=n, num_items=m, num_slots=k, max_subgroup_size=3, seed=seed
            )
        else:
            instance = datasets.make_instance(
                "timik", num_users=n, num_items=m, num_slots=k, seed=seed
            )
        rng = np.random.default_rng(seed)
        # Random rows: some cells unassigned, some items shown at two slots.
        assignment = rng.integers(UNASSIGNED, m, size=(n, k))
        assignment[0] = [2, 2, UNASSIGNED]
        delta = DeltaEvaluator(instance, SAVGConfiguration(assignment=assignment, num_items=m))
        np.testing.assert_array_equal(delta.counts, cell_counts(delta.assignment, m))
        for _ in range(80):
            user, slot, write = int(rng.integers(n)), int(rng.integers(k)), rng.random()
            if write < 0.7:
                delta.set_cell(user, slot, int(rng.integers(m)))
            elif write < 0.9:
                delta.clear_cell(user, slot)
            else:
                delta.clear_row(user)
            np.testing.assert_array_equal(delta.counts, cell_counts(delta.assignment, m))

    @pytest.mark.parametrize("capped", [False, True], ids=["svgic", "svgic-st"])
    @pytest.mark.parametrize("seed", range(4))
    def test_set_cell_totals_equal_the_two_pass_oracle(self, capped, seed):
        """One gather per write moves the running totals bit for bit as two did."""
        n, m, k = 30, 8, 3
        shape = dict(num_users=n, num_items=m, num_slots=k, seed=seed)
        if capped:
            instance = datasets.make_st_instance("timik", max_subgroup_size=4, **shape)
        else:
            instance = datasets.make_instance("timik", **shape)
        rng = np.random.default_rng(seed)
        # Random rows with holes and repeated items.
        assignment = rng.integers(UNASSIGNED, m, size=(n, k))
        config = SAVGConfiguration(assignment=assignment, num_items=m)
        once, twice = DeltaEvaluator(instance, config), TwoPassDeltaEvaluator(instance, config)
        for _ in range(300):
            user, slot = int(rng.integers(n)), int(rng.integers(k))
            item = int(rng.integers(UNASSIGNED, m))  # UNASSIGNED clears the cell
            assert once.set_cell(user, slot, item) == twice.set_cell(user, slot, item)
            assert once.breakdown.preference == twice.breakdown.preference
            assert once.breakdown.social == twice.breakdown.social
            assert once.breakdown.indirect_social == twice.breakdown.indirect_social
        np.testing.assert_array_equal(once.assignment, twice.assignment)
        np.testing.assert_array_equal(once.counts, twice.counts)

    def test_starts_from_given_configuration(self, tiny_instance):
        config = SAVGConfiguration(assignment=np.array([[0, 2], [0, 1], [2, 3]]), num_items=4)
        delta = DeltaEvaluator(tiny_instance, config)
        _assert_breakdowns_close(delta.breakdown, engine.evaluate(tiny_instance, config))

    def test_owns_its_assignment_copy(self, tiny_instance):
        config = SAVGConfiguration(assignment=np.array([[0, 2], [0, 1], [2, 3]]), num_items=4)
        delta = DeltaEvaluator(tiny_instance, config)
        delta.set_cell(0, 0, 3)
        assert config.assignment[0, 0] == 0  # caller's configuration untouched

    def test_clear_cell_and_reassign_roundtrip(self, tiny_instance):
        config = SAVGConfiguration(assignment=np.array([[0, 2], [0, 1], [2, 3]]), num_items=4)
        delta = DeltaEvaluator(tiny_instance, config)
        before = delta.total
        delta.clear_cell(1, 0)
        delta.set_cell(1, 0, 0)
        assert delta.total == pytest.approx(before, abs=TOLERANCE)

    def test_rejects_out_of_range_item(self, tiny_instance):
        delta = DeltaEvaluator(tiny_instance)
        with pytest.raises(ValueError):
            delta.set_cell(0, 0, 99)

    def test_resync_is_a_noop_when_consistent(self, tiny_instance):
        config = SAVGConfiguration(assignment=np.array([[0, 2], [0, 1], [2, 3]]), num_items=4)
        delta = DeltaEvaluator(tiny_instance, config)
        delta.set_cell(2, 1, 1)
        tracked = delta.breakdown
        _assert_breakdowns_close(delta.resync(), tracked)

    def test_configuration_snapshot_matches_assignment(self, tiny_instance):
        delta = DeltaEvaluator(tiny_instance)
        delta.set_cell(0, 0, 1)
        snapshot = delta.configuration()
        assert snapshot.assignment[0, 0] == 1
        snapshot.assignment[0, 0] = 2
        assert delta.assignment[0, 0] == 1  # snapshot is independent
