"""SolverService behaviour: admission, batching windows, cancellation, cache hits."""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.data import datasets
from repro.serving import LPParameters, SolverService, compatibility_key
from repro.serving import service as service_module
from repro.serving.batching import _decode_in_worker
from repro.serving.replay import replay_closed_loop, replay_open_loop


def make_instance(seed: int = 900, *, num_slots: int = 3):
    return datasets.make_instance(
        "timik", num_users=8, num_items=20, num_slots=num_slots, seed=seed
    )


class TestCompatibility:
    def test_same_family_same_params_compatible(self):
        a, b = make_instance(1), make_instance(2)
        assert compatibility_key(a, LPParameters()) == compatibility_key(b, LPParameters())

    def test_slot_count_breaks_compatibility(self):
        a = make_instance(1, num_slots=3)
        b = make_instance(1, num_slots=2)
        assert compatibility_key(a, LPParameters()) != compatibility_key(b, LPParameters())

    def test_lp_params_break_compatibility(self):
        a = make_instance(1)
        assert compatibility_key(a, LPParameters()) != compatibility_key(
            a, LPParameters(max_candidate_items=10)
        )


class TestAdmission:
    def test_single_request_window_timeout_solves_alone(self, tmp_path):
        """An empty window times out and the lone request forms a batch of 1."""
        with SolverService(
            tmp_path / "store", batch_window=0.05, max_batch_size=8
        ) as service:
            serve = service.solve(make_instance(10), timeout=60)
        assert serve.batch_size == 1
        assert not serve.cache_hit
        assert serve.lp_solves == 0  # decoded from the installed batch solution

    def test_compatible_requests_share_a_batch(self, tmp_path):
        with SolverService(
            tmp_path / "store", batch_window=0.5, max_batch_size=2
        ) as service:
            first = service.submit(make_instance(11))
            second = service.submit(make_instance(12))
            results = [first.result(timeout=60), second.result(timeout=60)]
            stats = service.stats()
        assert results[0].batch_id == results[1].batch_id
        assert all(result.batch_size == 2 for result in results)
        assert stats["lp_batches"] == 1
        assert stats["lp_instances_solved"] == 2

    def test_incompatible_requests_never_share_a_batch(self, tmp_path):
        """Different slot counts or LP parameters split into separate batches."""
        with SolverService(
            tmp_path / "store", batch_window=0.15, max_batch_size=8
        ) as service:
            a = service.submit(make_instance(13, num_slots=3))
            b = service.submit(make_instance(13, num_slots=2))
            c = service.submit(
                make_instance(13, num_slots=3),
                lp_params=LPParameters(max_candidate_items=10),
            )
            results = [t.result(timeout=60) for t in (a, b, c)]
        assert len({result.batch_id for result in results}) == 3
        assert all(result.batch_size == 1 for result in results)

    def test_full_batch_fires_before_window_expires(self, tmp_path):
        """max_batch_size requests never wait out a long window."""
        with SolverService(
            tmp_path / "store", batch_window=30.0, max_batch_size=2
        ) as service:
            tickets = [service.submit(make_instance(20 + i)) for i in range(2)]
            started = time.perf_counter()
            results = [t.result(timeout=60) for t in tickets]
            waited = time.perf_counter() - started
        assert waited < 10.0
        assert results[0].batch_id == results[1].batch_id

    def test_duplicate_submissions_solve_once(self, tmp_path):
        """In-batch dedupe: one fingerprint solves once, every ticket answers."""
        instance = make_instance(30)
        with SolverService(
            tmp_path / "store", batch_window=0.3, max_batch_size=4
        ) as service:
            tickets = [service.submit(instance, seed=i) for i in range(4)]
            results = [t.result(timeout=60) for t in tickets]
            stats = service.stats()
        assert stats["lp_instances_solved"] == 1
        assert len({r.fingerprint for r in results}) == 1
        objectives = {round(r.objective, 12) for r in results}
        assert len(objectives) == 1  # same instance, deterministic decode


class TestCacheHits:
    def test_warm_request_answers_without_a_solver(self, tmp_path):
        instance = make_instance(40)
        with SolverService(tmp_path / "store", batch_window=0.0) as service:
            cold = service.solve(instance, timeout=60)
            warm = service.solve(instance, timeout=60)
            stats = service.stats()
        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.lp_solves == 0
        assert warm.lp_store_hits >= 1
        assert warm.solve_seconds == 0.0
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert stats["cache_hits"] == 1
        assert stats["lp_instances_solved"] == 1  # the cold request only

    def test_store_survives_service_restart(self, tmp_path):
        instance = make_instance(41)
        with SolverService(tmp_path / "store", batch_window=0.0) as service:
            service.solve(instance, timeout=60)
        with SolverService(tmp_path / "store", batch_window=0.0) as service:
            warm = service.solve(instance, timeout=60)
            assert warm.cache_hit
            assert service.stats()["lp_instances_solved"] == 0


class TestCancellation:
    def test_cancel_before_claim_skips_the_solve(self, tmp_path):
        """A cancel landing in the wait window wins; the request never solves."""
        with SolverService(
            tmp_path / "store", batch_window=0.5, max_batch_size=8
        ) as service:
            doomed = service.submit(make_instance(50))
            assert doomed.cancel()
            assert doomed.cancelled()
            # The service keeps serving: a later request completes normally.
            follow_up = service.solve(make_instance(51), timeout=60)
            stats = service.stats()
        assert follow_up.objective > 0
        assert stats["cancelled"] == 1
        assert stats["lp_instances_solved"] == 1  # only the follow-up solved

    def test_cancelled_result_raises(self, tmp_path):
        from concurrent.futures import CancelledError

        with SolverService(
            tmp_path / "store", batch_window=0.5, max_batch_size=8
        ) as service:
            doomed = service.submit(make_instance(52))
            assert doomed.cancel()
            with pytest.raises(CancelledError):
                doomed.result(timeout=5)


class TestDeterminism:
    def test_results_independent_of_arrival_order(self, tmp_path):
        """Per-request derived seeds make results a function of the request."""
        instances = [make_instance(60 + i) for i in range(3)]
        orders = [(0, 1, 2), (2, 1, 0)]
        by_order = []
        for label, order in enumerate(orders):
            with SolverService(
                tmp_path / f"store-{label}", batch_window=0.3, max_batch_size=3
            ) as service:
                tickets = {
                    index: service.submit(instances[index], seed=index)
                    for index in order
                }
                by_order.append(
                    {index: ticket.result(timeout=60) for index, ticket in tickets.items()}
                )
        for index in range(3):
            first, second = by_order[0][index], by_order[1][index]
            assert first.objective == pytest.approx(second.objective, abs=1e-9)
            np.testing.assert_array_equal(
                first.result.configuration.assignment,
                second.result.configuration.assignment,
            )


class TestLifecycle:
    def test_submit_after_close_raises(self, tmp_path):
        service = SolverService(tmp_path / "store", batch_window=0.0)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(make_instance(70))
        service.close()  # idempotent

    def test_unknown_algorithm_fails_in_the_caller(self, tmp_path):
        with SolverService(tmp_path / "store", batch_window=0.0) as service:
            with pytest.raises(KeyError):
                service.submit(make_instance(71), algorithm="NO-SUCH-ALGORITHM")

    def test_latency_stats_populate(self, tmp_path):
        with SolverService(tmp_path / "store", batch_window=0.0) as service:
            service.solve(make_instance(72), timeout=60)
            stats = service.latency_stats()
        assert stats["count"] == 1
        assert stats["p50"] > 0
        assert stats["p99"] >= stats["p50"]

    def test_latency_window_keeps_the_most_recent(self, tmp_path):
        with SolverService(
            tmp_path / "store", batch_window=0.0, latency_window=2
        ) as service:
            served = [service.solve(make_instance(seed), timeout=60) for seed in (73, 74, 75)]
            stats = service.latency_stats()
        assert stats["count"] == 2
        recent = [serve.total_seconds for serve in served[1:]]
        assert stats["mean"] == pytest.approx(np.mean(recent))

    def test_pool_width_clamps_to_the_affinity_mask(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with pytest.warns(RuntimeWarning, match="clamping to 1"):
            service = SolverService(tmp_path / "store", workers=2)
        with service:
            assert service.workers == 1
        with SolverService(tmp_path / "store", workers=0) as in_thread:
            assert in_thread.workers == 0


class TestReplayHarness:
    def test_closed_loop_replay_answers_everything(self, tmp_path):
        requests = [{"instance": make_instance(80 + i), "seed": i} for i in range(4)]
        with SolverService(
            tmp_path / "store", batch_window=0.02, max_batch_size=2
        ) as service:
            report = replay_closed_loop(service, requests, clients=2)
        assert report.count == 4
        assert all(result is not None for result in report.results)
        assert report.p99 >= report.p50 >= 0
        assert report.requests_per_second > 0
        assert "closed-loop" in report.summary()

    def test_closed_loop_replay_raises_a_client_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_module, "_decode_in_worker", _decode_failing_for_seed_one)
        requests = [{"instance": make_instance(80 + i), "seed": i} for i in range(4)]
        with SolverService(
            tmp_path / "store", batch_window=0.02, max_batch_size=2
        ) as service:
            with pytest.raises(RuntimeError, match="seed 1"):
                replay_closed_loop(service, requests, clients=2)

    def test_closed_loop_error_raised_after_every_client_stops(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_module, "_decode_in_worker", _decode_failing_for_seed_one)
        requests = [{"instance": make_instance(80 + i), "seed": i} for i in range(4)]
        with SolverService(
            tmp_path / "store", batch_window=0.02, max_batch_size=2
        ) as service:
            with pytest.raises(RuntimeError, match="seed 1"):
                replay_closed_loop(service, requests, clients=2)
            clients = [
                thread for thread in threading.enumerate()
                if thread.name.startswith("replay-client-")
            ]
            assert not clients
            assert service.solve(make_instance(84), seed=2, timeout=60).objective > 0

    def test_open_loop_replay_is_seeded_and_complete(self, tmp_path):
        requests = [{"instance": make_instance(90 + i), "seed": i} for i in range(3)]
        with SolverService(tmp_path / "store", batch_window=0.0) as service:
            report = replay_open_loop(service, requests, rate_rps=50.0, seed=5)
        assert report.count == 3
        assert all(result is not None for result in report.results)
        assert report.parameters["rate_rps"] == 50.0


def _decode_failing_for_seed_one(instance, algorithm, seed, *rest):
    """Decode stand-in that fails the request with seed 1 and decodes the rest."""
    if seed == 1:
        raise RuntimeError("decode failed for seed 1")
    return _decode_in_worker(instance, algorithm, seed, *rest)


class TestDecodeFailure:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_failed_decode_fails_only_its_own_ticket(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(service_module, "_decode_in_worker", _decode_failing_for_seed_one)
        with SolverService(
            tmp_path / "store", workers=workers, batch_window=0.5, max_batch_size=3
        ) as service:
            tickets = [service.submit(make_instance(350 + i), seed=i) for i in range(3)]
            with pytest.raises(RuntimeError, match="seed 1"):
                tickets[1].result(timeout=120)
            answered = [tickets[0].result(timeout=120), tickets[2].result(timeout=120)]
            stats = service.stats()
        assert all(serve.batch_size == 3 for serve in answered)
        assert stats["completed"] == 2


class TestParallelDecode:
    """With a pool configured, multi-request batches decode on the workers."""

    def test_decode_fans_out_to_pool_workers(self, tmp_path):
        import os

        with SolverService(
            tmp_path / "store", workers=1, batch_window=0.5, max_batch_size=4
        ) as service:
            tickets = [service.submit(make_instance(300 + i), seed=i) for i in range(3)]
            results = [ticket.result(timeout=120) for ticket in tickets]
        assert all(result.batch_size == 3 for result in results)
        assert all(result.decode_pid != os.getpid() for result in results)
        assert all(result.decode_seconds > 0 for result in results)

    def test_single_request_batches_decode_in_process(self, tmp_path):
        import os

        with SolverService(
            tmp_path / "store", workers=1, batch_window=0.0, max_batch_size=4
        ) as service:
            serve = service.solve(make_instance(310), timeout=120)
        assert serve.batch_size == 1
        assert serve.decode_pid == os.getpid()

    def test_parallel_decode_matches_serial_results(self, tmp_path):
        seeds = [0, 1, 2]
        instances = [make_instance(320 + i) for i in seeds]
        with SolverService(
            tmp_path / "parallel", workers=1, batch_window=0.5, max_batch_size=4
        ) as service:
            tickets = [
                service.submit(instance, seed=seed)
                for instance, seed in zip(instances, seeds)
            ]
            parallel = [ticket.result(timeout=120).objective for ticket in tickets]
        with SolverService(
            tmp_path / "serial", workers=0, batch_window=0.5, max_batch_size=4
        ) as service:
            tickets = [
                service.submit(instance, seed=seed)
                for instance, seed in zip(instances, seeds)
            ]
            serial = [ticket.result(timeout=120).objective for ticket in tickets]
        assert parallel == pytest.approx(serial, abs=0)

    def test_parallel_decode_reuses_workers_across_batches(self, tmp_path):
        with SolverService(
            tmp_path / "store", workers=1, batch_window=0.3, max_batch_size=2
        ) as service:
            first = [service.submit(make_instance(330 + i)) for i in range(2)]
            first_pids = {ticket.result(timeout=120).decode_pid for ticket in first}
            second = [service.submit(make_instance(340 + i)) for i in range(2)]
            second_pids = {ticket.result(timeout=120).decode_pid for ticket in second}
        assert first_pids == second_pids  # persistent pool, not respawned
