"""ArtifactStore under concurrent serving: exactly-one-solve and fault injection.

The store is the serving layer's single shared mutable resource.  These
tests hammer it from threads and processes and corrupt its blobs mid-flight
to check the invariants the service leans on: a warm key is solved exactly
once no matter how many callers race for it, and a corrupted blob is
evicted and transparently re-solved rather than poisoning the answer.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.pipeline import SolveContext, instance_fingerprint, lp_cache_key
from repro.data import datasets
from repro.serving import LPParameters, SolverService
from repro.store import ArtifactStore
from repro.store.codecs import lp_param_key


def make_instance(seed: int = 700):
    return datasets.make_instance(
        "timik", num_users=8, num_items=20, num_slots=3, seed=seed
    )


def _warm_hit_in_process(root: str, seed: int):
    """Open the store in a fresh process and solve from it (module-level for pickling)."""
    store = ArtifactStore(root)
    instance = make_instance(seed)
    context = SolveContext(instance, store=store)
    solution = context.fractional()
    stats = context.stats()
    return float(solution.objective), stats["lp_solves"], stats["lp_store_hits"]


class TestThreadedExactlyOnce:
    def test_racing_identical_requests_solve_once(self, tmp_path):
        """8 threads, one fingerprint: the service performs exactly one solve."""
        instance = make_instance(1)
        outcomes = [None] * 8
        with SolverService(
            tmp_path / "store", batch_window=0.05, max_batch_size=4
        ) as service:

            def client(slot: int) -> None:
                outcomes[slot] = service.solve(instance, seed=slot, timeout=60)

            threads = [
                threading.Thread(target=client, args=(slot,)) for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()

        assert all(outcome is not None for outcome in outcomes)
        # In-batch dedupe plus store hits: the LP ran exactly once.
        assert stats["lp_instances_solved"] == 1
        objectives = {round(outcome.objective, 12) for outcome in outcomes}
        assert len(objectives) == 1

    def test_distinct_requests_all_answered_under_contention(self, tmp_path):
        instances = [make_instance(10 + i) for i in range(6)]
        outcomes = [None] * len(instances)
        with SolverService(
            tmp_path / "store", batch_window=0.02, max_batch_size=3
        ) as service:

            def client(slot: int) -> None:
                outcomes[slot] = service.solve(instances[slot], seed=slot, timeout=60)

            threads = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(len(instances))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()

        assert all(outcome is not None for outcome in outcomes)
        assert len({outcome.fingerprint for outcome in outcomes}) == len(instances)
        assert stats["lp_instances_solved"] == len(instances)


class TestMultiProcessStore:
    def test_processes_share_a_warm_store(self, tmp_path):
        """Every worker process answers from the store without its own solve."""
        root = tmp_path / "store"
        seed = 42
        store = ArtifactStore(root)
        instance = make_instance(seed)
        warm_context = SolveContext(instance, store=store)
        expected = float(warm_context.fractional().objective)
        assert warm_context.stats()["lp_solves"] == 1

        with ProcessPoolExecutor(max_workers=2) as pool:
            reports = list(
                pool.map(_warm_hit_in_process, [str(root)] * 4, [seed] * 4)
            )
        for objective, lp_solves, lp_store_hits in reports:
            assert objective == pytest.approx(expected, abs=1e-12)
            assert lp_solves == 0
            assert lp_store_hits == 1

    def test_index_is_thread_safe_across_sessions(self, tmp_path):
        """Interleaved reads/writes from many threads keep the index coherent."""
        store = ArtifactStore(tmp_path / "store")
        instances = [make_instance(100 + i) for i in range(4)]
        errors = []

        def hammer(instance) -> None:
            try:
                context = SolveContext(instance, store=store)
                for _ in range(3):
                    context.fractional()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(instance,))
            for instance in instances
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.index.count() == len(instances)


class TestCorruptionRecovery:
    def _blob_path(self, store: ArtifactStore, fingerprint: str):
        entry = store.index.get("lp", fingerprint, lp_param_key(lp_cache_key()))
        assert entry is not None
        blob_sha, _ = entry
        path = store._blobs.path_for(blob_sha)
        assert path.exists()
        return path

    def test_corrupted_blob_is_evicted_and_resolved(self, tmp_path):
        """Flip bytes under a warm entry: the service evicts and re-solves."""
        instance = make_instance(55)
        fingerprint = instance_fingerprint(instance)
        with SolverService(tmp_path / "store", batch_window=0.0) as service:
            cold = service.solve(instance, timeout=60)
            store = service.store
            path = self._blob_path(store, fingerprint)
            path.write_bytes(b"garbage that is definitely not an npz payload")

            recovered = service.solve(instance, timeout=60)
            stats = store.stats()

        assert not cold.cache_hit
        assert not recovered.cache_hit  # the poisoned entry did not serve
        assert recovered.objective == pytest.approx(cold.objective, abs=1e-9)
        assert stats["evictions"] >= 1

    def test_truncated_blob_recovers_too(self, tmp_path):
        instance = make_instance(56)
        fingerprint = instance_fingerprint(instance)
        with SolverService(tmp_path / "store", batch_window=0.0) as service:
            cold = service.solve(instance, timeout=60)
            store = service.store
            path = self._blob_path(store, fingerprint)
            payload = path.read_bytes()
            path.write_bytes(payload[: len(payload) // 2])

            recovered = service.solve(instance, timeout=60)

            # The re-solve rewrote the entry; a third request hits again.
            warm = service.solve(instance, timeout=60)
            stats = store.stats()

        assert recovered.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.cache_hit
        assert stats["evictions"] >= 1

    def test_direct_store_load_never_raises_on_corruption(self, tmp_path):
        """ArtifactStore.load_lp returns None (and evicts) for a bad blob."""
        store = ArtifactStore(tmp_path / "store")
        instance = make_instance(57)
        context = SolveContext(instance, store=store)
        solution = context.fractional()
        fingerprint = instance_fingerprint(instance)
        key = LPParameters().cache_key()

        entry = store.index.get("lp", fingerprint, lp_param_key(key))
        path = store._blobs.path_for(entry[0])
        path.write_bytes(b"\x00" * 16)

        assert store.load_lp(fingerprint, key) is None
        assert store.stats()["evictions"] == 1
        # The entry is gone from the index, so the next save repopulates it.
        assert store.index.get("lp", fingerprint, lp_param_key(key)) is None
        store.save_lp(fingerprint, key, solution)
        reloaded = store.load_lp(fingerprint, key)
        assert reloaded is not None
        np.testing.assert_allclose(
            reloaded.compact_factors, solution.compact_factors, atol=1e-12
        )
