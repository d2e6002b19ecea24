"""Equivalence and hot-path tests for the incremental dynamic session.

Pins :class:`repro.extensions.dynamic.DynamicSession` (vectorized, running
utility maintained by event deltas) to
:class:`repro.extensions.dynamic_reference.ReferenceDynamicSession` (the
preserved scalar implementation, every utility recomputed from scratch) at
1e-9 across randomized join/leave/drift traces on SVGIC and SVGIC-ST
instances — and proves the incremental session never falls back to a
from-scratch evaluation on the event hot path.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.objective as objective
from repro.core.avg_d import run_avg_d
from repro.core.configuration import UNASSIGNED, SAVGConfiguration
from repro.core.objective import DeltaEvaluator
from repro.core.pipeline import LocalSearchImprover
from repro.core.problem import SVGICSTInstance
from repro.data import datasets, make_churn_trace
from repro.extensions.churn import replay_incremental
from repro.extensions.dynamic import DynamicSession, check_session_inputs
from repro.extensions.dynamic_reference import ReferenceDynamicSession


def _paired_sessions(st: bool, seed: int, num_users: int = 14, num_items: int = 18):
    if st:
        instance = datasets.make_st_instance(
            "timik",
            num_users=num_users,
            num_items=num_items,
            num_slots=3,
            max_subgroup_size=3,
            seed=seed,
        )
    else:
        instance = datasets.make_instance(
            "timik", num_users=num_users, num_items=num_items, num_slots=3, seed=seed
        )
    config = run_avg_d(instance).configuration
    return (
        instance,
        DynamicSession(instance, config),
        ReferenceDynamicSession(instance, config),
    )


def _random_trace_step(rng, instance, fast, oracle):
    """One random churn operation applied to both sessions in lockstep."""
    active = np.nonzero(fast.active)[0]
    inactive = np.nonzero(~fast.active)[0]
    choice = rng.random()
    if choice < 0.3 and active.size > 2:
        user = int(rng.choice(active))
        fast.remove_user(user)
        oracle.remove_user(user)
    elif choice < 0.6 and inactive.size:
        user = int(rng.choice(inactive))
        fast.add_user(user)
        oracle.add_user(user)
    elif choice < 0.8:
        user = int(rng.integers(instance.num_users))
        values = rng.uniform(0.0, 1.0, instance.num_items)
        fast.update_preference(user, values)
        oracle.update_preference(user, values)
    elif active.size:
        user = int(rng.choice(active))
        assert fast.local_search(user) == oracle.local_search(user)


class TestReferenceEquivalence:
    @pytest.mark.parametrize("st", [False, True], ids=["svgic", "svgic-st"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_randomized_trace_pinned_to_1e9(self, st, seed):
        instance, fast, oracle = _paired_sessions(st, seed)
        rng = np.random.default_rng(seed + 100)
        for _ in range(50):
            _random_trace_step(rng, instance, fast, oracle)
            assert fast.current_utility() == pytest.approx(
                oracle.current_utility(), abs=1e-9
            )
            assert np.array_equal(fast.active, oracle.active)
            assert np.array_equal(
                fast.configuration.assignment[fast.active],
                oracle.configuration.assignment[oracle.active],
            )
        assert len(fast.events) == len(oracle.events)
        for mine, theirs in zip(fast.events, oracle.events):
            assert mine.kind == theirs.kind
            assert mine.user == theirs.user
            assert mine.utility_after == pytest.approx(theirs.utility_after, abs=1e-9)
            assert tuple(mine.skipped_slots) == tuple(theirs.skipped_slots)

    @pytest.mark.parametrize("st", [False, True], ids=["svgic", "svgic-st"])
    def test_generated_churn_trace_equivalence(self, st):
        instance, fast, oracle = _paired_sessions(st, seed=3)
        trace = make_churn_trace(instance, num_events=30, seed=9)
        fast = DynamicSession(
            instance, fast.configuration, active=trace.initial_active.copy()
        )
        oracle = ReferenceDynamicSession(
            instance, oracle.configuration, active=trace.initial_active.copy()
        )
        fast_utilities = replay_incremental(fast, trace)
        oracle_utilities = replay_incremental(oracle, trace)
        np.testing.assert_allclose(fast_utilities, oracle_utilities, atol=1e-9)

    def test_running_total_matches_recompute(self):
        instance, fast, _ = _paired_sessions(st=True, seed=5)
        trace = make_churn_trace(instance, num_events=25, seed=4)
        session = DynamicSession(
            instance, fast.configuration, active=trace.initial_active.copy()
        )
        replay_incremental(session, trace)
        assert session.current_utility() == pytest.approx(
            session.recompute_utility(), abs=1e-9
        )


class TestHotPathIsIncremental:
    def test_events_never_trigger_from_scratch_evaluation(self, monkeypatch):
        """After construction, no event may call a full evaluator or rebuild."""
        instance, session, _ = _paired_sessions(st=True, seed=2)

        def _forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("from-scratch evaluation on the event hot path")

        monkeypatch.setattr(objective, "evaluate", _forbidden)
        monkeypatch.setattr(objective, "evaluate_st", _forbidden)
        monkeypatch.setattr(objective, "_raw_social_components", _forbidden)
        monkeypatch.setattr(objective, "total_utility", _forbidden)
        monkeypatch.setattr(objective.DeltaEvaluator, "_full_breakdown", _forbidden)
        monkeypatch.setattr(objective.DeltaEvaluator, "resync", _forbidden)
        monkeypatch.setattr(
            "repro.extensions.dynamic.total_utility", _forbidden
        )

        rng = np.random.default_rng(0)
        session.remove_user(int(np.nonzero(session.active)[0][0]))
        session.add_user(int(np.nonzero(~session.active)[0][0]))
        session.update_preference(0, rng.uniform(0, 1, instance.num_items))
        session.local_search(int(np.nonzero(session.active)[0][0]))
        assert session.full_recomputes == 0

    def test_full_recomputes_counter_counts_verification_only(self):
        instance, session, _ = _paired_sessions(st=False, seed=1)
        session.remove_user(0)
        session.add_user(0)
        assert session.full_recomputes == 0
        session.recompute_utility()
        assert session.full_recomputes == 1


def _saturated_join_fixture():
    """3 items, 2 slots, M=1: the joiner's second slot has no feasible item."""
    preference = np.array(
        [
            [0.9, 0.5, 0.1],
            [0.5, 0.9, 0.1],
            [0.4, 0.3, 0.9],
        ]
    )
    instance = SVGICSTInstance(
        num_users=3,
        num_items=3,
        num_slots=2,
        social_weight=0.5,
        preference=preference,
        edges=np.empty((0, 2), dtype=np.int64),
        social=np.empty((0, 3), dtype=float),
        teleport_discount=0.5,
        max_subgroup_size=1,
    )
    # Active users 0 and 1 saturate items 0 and 1 in both slots; item 2 is
    # free everywhere but a joiner can use it only once per row.
    assignment = np.array([[0, 1], [1, 0], [UNASSIGNED, UNASSIGNED]])
    config = SAVGConfiguration(assignment=assignment, num_items=3)
    active = np.array([True, True, False])
    return instance, config, active


class TestSaturatedJoin:
    @pytest.mark.parametrize("session_cls", [DynamicSession, ReferenceDynamicSession])
    def test_infeasible_slot_is_skipped_explicitly(self, session_cls):
        instance, config, active = _saturated_join_fixture()
        session = session_cls(instance, config, active=active.copy())
        session.add_user(2)
        row = session.configuration.assignment[2]
        assert int(row[0]) == 2  # the only feasible item at slot 0
        assert int(row[1]) == UNASSIGNED  # explicitly skipped, not -1-assigned
        event = session.events[-1]
        assert event.kind == "join"
        assert event.skipped_slots == (1,)
        # The skipped slot never polluted the cap bookkeeping: a later join
        # of the same user (after leaving) behaves identically.
        session.remove_user(2)
        session.add_user(2)
        assert session.events[-1].skipped_slots == (1,)

    def test_partial_rows_counted_correctly(self):
        instance, config, active = _saturated_join_fixture()
        session = DynamicSession(instance, config, active=active.copy())
        session.add_user(2)
        assert session.counts[2, 0] == 1
        assert session.counts[:, 1].sum() == 2  # only the two original users
        assert session.current_utility() == pytest.approx(
            session.recompute_utility(), abs=1e-9
        )


class TestLifecycle:
    def make_st_session(self, seed=6):
        instance = datasets.make_st_instance(
            "timik",
            num_users=10,
            num_items=12,
            num_slots=3,
            max_subgroup_size=2,
            seed=seed,
        )
        config = run_avg_d(instance).configuration
        return instance, DynamicSession(instance, config)

    def test_leave_then_rejoin_restores_validity(self):
        instance, session = self.make_st_session()
        before = session.current_utility()
        session.remove_user(3)
        assert session.current_utility() <= before + 1e-9
        session.add_user(3)
        assert session.active[3]
        row = session.configuration.assignment[3]
        assigned = row[row != UNASSIGNED]
        assert np.unique(assigned).size == assigned.size
        assert session.configuration.max_subgroup_size() <= instance.max_subgroup_size

    def test_size_cap_enforced_across_many_joins(self):
        instance, session = self.make_st_session()
        users = list(range(instance.num_users))
        for user in users[:5]:
            session.remove_user(user)
        for user in users[:5]:
            session.add_user(user)
        counts = session.counts
        assert counts.max() <= instance.max_subgroup_size
        assert session.configuration.max_subgroup_size() <= instance.max_subgroup_size

    def test_event_log_utilities_match_from_scratch(self):
        instance, session = self.make_st_session()
        oracle = ReferenceDynamicSession(instance, session.configuration)
        rng = np.random.default_rng(1)
        session.remove_user(2)
        oracle.remove_user(2)
        drifted = rng.uniform(0, 1, instance.num_items)
        session.update_preference(4, drifted)
        oracle.update_preference(4, drifted)
        session.add_user(2)
        oracle.add_user(2)
        for mine, theirs in zip(session.events, oracle.events):
            assert mine.utility_after == pytest.approx(theirs.utility_after, abs=1e-9)

    def test_add_active_fully_assigned_raises(self):
        _, session = self.make_st_session()
        with pytest.raises(ValueError):
            session.add_user(0)

    def test_update_preference_of_inactive_user_applies_on_rejoin(self):
        instance, session = self.make_st_session()
        session.remove_user(1)
        boosted = np.zeros(instance.num_items)
        boosted[5] = 10.0
        session.update_preference(1, boosted)
        session.add_user(1)
        assert 5 in session.configuration.assignment[1].tolist()


class TestSessionInputsAndPruning:
    def test_check_session_inputs_rejects_bad_shapes(self, small_timik_instance):
        config = run_avg_d(small_timik_instance).configuration
        with pytest.raises(ValueError):
            check_session_inputs(
                small_timik_instance, config, np.ones(3, dtype=bool)
            )

    def test_check_session_inputs_rejects_incomplete_active_rows(
        self, small_timik_instance
    ):
        config = run_avg_d(small_timik_instance).configuration
        config.assignment[0, 0] = UNASSIGNED
        with pytest.raises(ValueError):
            check_session_inputs(small_timik_instance, config, None)


class TestInPlaceImprover:
    def test_apply_improver_requires_user_restriction(self):
        instance = datasets.make_instance(
            "timik", num_users=8, num_items=10, num_slots=2, seed=4
        )
        session = DynamicSession(instance, run_avg_d(instance).configuration)
        with pytest.raises(ValueError):
            session.apply_improver(LocalSearchImprover(max_passes=1))

    def test_apply_improver_keeps_running_total_consistent(self):
        instance = datasets.make_st_instance(
            "timik",
            num_users=10,
            num_items=12,
            num_slots=3,
            max_subgroup_size=3,
            seed=12,
        )
        session = DynamicSession(instance, run_avg_d(instance).configuration)
        before = session.current_utility()
        info = session.apply_improver(
            LocalSearchImprover(max_passes=2, users=np.arange(5))
        )
        assert info["in_place"] is True
        assert "delta_drift" not in info
        assert session.current_utility() >= before - 1e-9
        assert session.current_utility() == pytest.approx(
            session.recompute_utility(), abs=1e-9
        )
        assert session.counts.max() <= instance.max_subgroup_size
        assert session.configuration.max_subgroup_size() <= instance.max_subgroup_size

    def test_in_place_matches_private_evaluator_mode(self):
        instance = datasets.make_instance(
            "timik", num_users=9, num_items=11, num_slots=2, seed=13
        )
        config = run_avg_d(instance).configuration
        improver = LocalSearchImprover(max_passes=3)
        expected = improver.apply(instance, config)
        evaluator = DeltaEvaluator(instance, config)
        got = improver.apply(instance, None, evaluator=evaluator)
        assert got.info["final_utility"] == pytest.approx(
            expected.info["final_utility"], abs=1e-9
        )
        np.testing.assert_array_equal(
            got.configuration.assignment, expected.configuration.assignment
        )


class TestDriftSupport:
    def test_preference_drift_never_mutates_instance(self):
        instance = datasets.make_instance(
            "timik", num_users=8, num_items=10, num_slots=2, seed=20
        )
        original = instance.preference.copy()
        session = DynamicSession(instance, run_avg_d(instance).configuration)
        session.update_preference(0, np.ones(instance.num_items))
        np.testing.assert_array_equal(instance.preference, original)
        assert session.evaluator.preference_drifted

    def test_drift_rejects_bad_rows(self):
        instance = datasets.make_instance(
            "timik", num_users=8, num_items=10, num_slots=2, seed=20
        )
        session = DynamicSession(instance, run_avg_d(instance).configuration)
        with pytest.raises(ValueError):
            session.update_preference(0, np.ones(3))
        with pytest.raises(ValueError):
            session.update_preference(0, -np.ones(instance.num_items))
        with pytest.raises(ValueError):
            values = np.ones(instance.num_items)
            values[0] = np.nan
            session.update_preference(0, values)
