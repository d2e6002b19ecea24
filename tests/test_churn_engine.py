"""Tests for the churn trace generator and the warm-start churn engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import SolveContext
from repro.data import datasets, make_churn_trace
from repro.data.churn import DRIFT, JOIN, LEAVE, ChurnEvent
from repro.extensions.churn import (
    ChurnEngine,
    ResolvePolicy,
    replay_incremental,
    solve_active,
)
from repro.extensions.dynamic import DynamicSession
from repro.store import ArtifactStore

from oracles.churn_trace_reference import reference_churn_trace


@pytest.fixture(scope="module")
def st_instance():
    return datasets.make_st_instance(
        "timik",
        num_users=16,
        num_items=14,
        num_slots=3,
        max_subgroup_size=4,
        seed=21,
    )


class TestTraceGenerator:
    def test_deterministic_for_equal_seeds(self, st_instance):
        a = make_churn_trace(st_instance, num_events=40, seed=3)
        b = make_churn_trace(st_instance, num_events=40, seed=3)
        np.testing.assert_array_equal(a.initial_active, b.initial_active)
        assert len(a) == len(b) == 40
        for x, y in zip(a.events, b.events):
            assert (x.kind, x.user) == (y.kind, y.user)
            if x.kind == DRIFT:
                np.testing.assert_array_equal(x.preference, y.preference)
        assert make_churn_trace(st_instance, num_events=40, seed=4).events != a.events

    def test_events_are_feasible_by_construction(self, st_instance):
        trace = make_churn_trace(
            st_instance, num_events=80, seed=5, min_active=3
        )
        active = trace.initial_active.copy()
        for event in trace.events:
            if event.kind == JOIN:
                assert not active[event.user]
                active[event.user] = True
            elif event.kind == LEAVE:
                assert active[event.user]
                active[event.user] = False
                assert active.sum() >= 3
            else:
                assert event.preference.shape == (st_instance.num_items,)
                assert np.all(event.preference >= 0)

    def test_event_mix_honours_weights(self, st_instance):
        trace = make_churn_trace(
            st_instance, num_events=60, seed=6, drift_weight=0.0
        )
        assert trace.kind_counts[DRIFT] == 0

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"join_weight": 0.35, "leave_weight": 0.45, "min_active": 8},
            {"join_weight": 0.0},
            {"leave_weight": 0.0},
            {"drift_weight": 0.0},
            {"min_active": 16},
            {"initial_active_fraction": 1.0},
            # No kind stays feasible: joins have no inactive user, leaves
            # would go below min_active, and drift is weighted out.
            {"initial_active_fraction": 1.0, "min_active": 16, "drift_weight": 0.0},
            # Feasible until every user has joined, then the trace ends early.
            {"leave_weight": 0.0, "drift_weight": 0.0},
        ],
    )
    def test_matches_the_per_event_loop(self, st_instance, options):
        """Same draws from the same generator as the choice/nonzero loop."""
        for seed in (0, 1, 5, 9, 23):
            fast = make_churn_trace(st_instance, num_events=120, seed=seed, **options)
            slow = reference_churn_trace(st_instance, num_events=120, seed=seed, **options)
            assert fast.seed == slow.seed
            np.testing.assert_array_equal(fast.initial_active, slow.initial_active)
            assert [(e.kind, e.user) for e in fast.events] == [
                (e.kind, e.user) for e in slow.events
            ]
            for a, b in zip(fast.events, slow.events):
                if a.kind == DRIFT:
                    np.testing.assert_array_equal(a.preference, b.preference)

    def test_no_feasible_kind_ends_the_trace(self, st_instance):
        trace = make_churn_trace(
            st_instance, num_events=10, seed=2, initial_active_fraction=1.0,
            min_active=16, drift_weight=0.0,
        )
        assert len(trace) == 0 and trace.initial_active.all()

    def test_validate_for_rejects_other_universe(self, st_instance):
        other = datasets.make_instance(
            "timik", num_users=5, num_items=6, num_slots=2, seed=0
        )
        trace = make_churn_trace(st_instance, num_events=5, seed=1)
        with pytest.raises(ValueError):
            trace.validate_for(other)

    def test_event_invariants(self):
        with pytest.raises(ValueError):
            ChurnEvent("rejoin", 0)
        with pytest.raises(ValueError):
            ChurnEvent(JOIN, 0, np.ones(3))
        with pytest.raises(ValueError):
            ChurnEvent(DRIFT, 0)


class TestSolveActive:
    def test_scatters_into_full_universe(self, st_instance):
        active = np.zeros(st_instance.num_users, dtype=bool)
        active[:6] = True
        config, utility, context = solve_active(st_instance, active)
        assert utility > 0
        assert context is not None
        rows = config.assignment[active]
        assert not np.any(rows == -1)
        assert np.all(config.assignment[~active] == -1)

    def test_empty_active_set_short_circuits(self, st_instance):
        active = np.zeros(st_instance.num_users, dtype=bool)
        config, utility, context = solve_active(st_instance, active)
        assert utility == 0.0
        assert context is None

    def test_store_warm_start_skips_second_lp(self, st_instance, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        active = np.zeros(st_instance.num_users, dtype=bool)
        active[:8] = True
        _, _, first = solve_active(st_instance, active, store=store)
        assert first.lp_solves >= 1
        _, _, second = solve_active(st_instance, active, store=store)
        assert second.lp_solves == 0
        assert second.lp_store_hits >= 1


class TestChurnEngine:
    def test_replay_keeps_running_total_consistent(self, st_instance):
        trace = make_churn_trace(st_instance, num_events=30, seed=2)
        engine = ChurnEngine(st_instance, trace.initial_active)
        ticks = engine.replay(trace)
        assert len(ticks) == 30
        assert engine.current_utility() == pytest.approx(
            engine.session.recompute_utility(), abs=1e-6
        )
        # The verification recompute above is the only from-scratch pass.
        assert engine.session.full_recomputes == 1

    def test_event_path_validity(self, st_instance):
        trace = make_churn_trace(st_instance, num_events=40, seed=8)
        engine = ChurnEngine(st_instance, trace.initial_active)
        engine.replay(trace)
        session = engine.session
        rows = session.configuration.assignment[session.active]
        for row in rows:
            assigned = row[row != -1]
            assert np.unique(assigned).size == assigned.size
        assert session.counts.max() <= st_instance.max_subgroup_size

    def test_resolve_trigger_fires_under_aggressive_policy(self, st_instance):
        trace = make_churn_trace(st_instance, num_events=25, seed=10)
        engine = ChurnEngine(
            st_instance,
            trace.initial_active,
            policy=ResolvePolicy(
                degradation_threshold=0.0,
                min_events_between_resolves=1,
                repair_max_passes=0,
            ),
        )
        ticks = engine.replay(trace)
        assert any(t.action == "resolve" for t in ticks)
        assert engine.resolves > 1  # initial solve plus at least one re-solve

    def test_disabled_resolves_stay_incremental(self, st_instance):
        trace = make_churn_trace(st_instance, num_events=25, seed=11)
        engine = ChurnEngine(
            st_instance,
            trace.initial_active,
            policy=ResolvePolicy(degradation_threshold=np.inf),
        )
        ticks = engine.replay(trace)
        assert engine.resolves == 1  # only the initial solve
        assert all(t.action == "incremental" for t in ticks)

    def test_repair_beats_no_repair(self, st_instance):
        trace = make_churn_trace(st_instance, num_events=30, seed=12)
        policy_off = ResolvePolicy(
            degradation_threshold=np.inf, repair_max_passes=0
        )
        policy_on = ResolvePolicy(
            degradation_threshold=np.inf, repair_max_passes=2, repair_pairwise=True
        )
        bare = ChurnEngine(st_instance, trace.initial_active, policy=policy_off)
        repaired = ChurnEngine(st_instance, trace.initial_active, policy=policy_on)
        bare.replay(trace)
        repaired.replay(trace)
        assert repaired.current_utility() >= bare.current_utility() - 1e-9
        assert repaired.repair_moves > 0

    def test_drift_survives_resolve(self, st_instance):
        engine = ChurnEngine(
            st_instance,
            np.ones(st_instance.num_users, dtype=bool),
            policy=ResolvePolicy(
                degradation_threshold=0.0, min_events_between_resolves=1
            ),
        )
        boosted = np.zeros(st_instance.num_items)
        boosted[3] = 50.0
        tick = engine.apply_event(ChurnEvent(DRIFT, 0, boosted))
        # Whether or not the policy re-solved, the session must see the drift.
        assert engine.session.evaluator.preference_table[0, 3] == pytest.approx(50.0)
        # Drifted tastes dominate: user 0 gets item 3 after repair/re-solve.
        assert 3 in engine.session.configuration.assignment[0].tolist()
        assert tick.kind == DRIFT

    def test_store_warm_start_across_engines(self, st_instance, tmp_path):
        store = ArtifactStore(tmp_path / "engine-store")
        active = np.ones(st_instance.num_users, dtype=bool)
        first = ChurnEngine(st_instance, active, store=store)
        second = ChurnEngine(st_instance, active, store=store)
        assert first.lp_bound is not None
        assert second.lp_bound == pytest.approx(first.lp_bound)
        # The second engine's initial solve was answered from the store.
        stats = store.stats()
        assert stats.get("lp_hits", stats.get("hits", 1)) >= 1

    def test_ticks_record_bound_telemetry(self, st_instance):
        trace = make_churn_trace(st_instance, num_events=10, seed=14)
        engine = ChurnEngine(st_instance, trace.initial_active)
        ticks = engine.replay(trace)
        for tick in ticks:
            assert tick.bound_estimate >= 0.0
            assert 0.0 <= tick.gap_estimate <= 1.0
            assert tick.seconds >= 0.0
        stats = engine.stats()
        assert stats["events"] == 10
        assert stats["resolves"] >= 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ResolvePolicy(degradation_threshold=-0.1)
        with pytest.raises(ValueError):
            ResolvePolicy(min_events_between_resolves=0)
        with pytest.raises(ValueError):
            ResolvePolicy(repair_max_passes=-1)


class TestPeekLPBound:
    def test_peek_returns_none_before_any_solve(self, st_instance):
        context = SolveContext(st_instance)
        assert context.peek_lp_bound() is None
        assert context.lp_solves == 0

    def test_peek_after_solve_returns_cached_bound(self, st_instance):
        context = SolveContext(st_instance)
        bound = context.lp_upper_bound()
        assert context.peek_lp_bound() == pytest.approx(bound)
        assert context.lp_solves == 1  # peek never re-solved

    def test_peek_promotes_store_entry(self, st_instance, tmp_path):
        store = ArtifactStore(tmp_path / "peek-store")
        warm = SolveContext(st_instance, store=store)
        bound = warm.lp_upper_bound()
        cold = SolveContext(st_instance, store=store)
        assert cold.peek_lp_bound() == pytest.approx(bound)
        assert cold.lp_solves == 0


class TestReplayHelper:
    def test_replay_incremental_matches_manual_loop(self, st_instance):
        trace = make_churn_trace(st_instance, num_events=15, seed=17)
        config, _, _ = solve_active(st_instance, trace.initial_active)
        session = DynamicSession(
            st_instance, config, active=trace.initial_active.copy()
        )
        utilities = replay_incremental(session, trace)
        assert len(utilities) == len(trace.events)
        assert utilities[-1] == pytest.approx(session.current_utility())
        assert [e.kind for e in session.events] == [e.kind for e in trace.events]
