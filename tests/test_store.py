"""Tests for the persistent artifact/result store and resumable execution.

Covers the acceptance properties of the `repro.store` subsystem: the blob
payload layout (exact round trips, malformed payloads rejected); LP
solutions persisted per (instance fingerprint, full LP parameter key) and
reused across SolveContexts with ``lp_store_hits`` accounting; robustness
against corrupted/truncated/malformed blobs, stale-schema index entries and
entries an ``.npz``-payload (schema 1) store wrote (evict and re-solve, never
crash); an index holding an older version's ``timings`` table (opened,
used and left alone); counters that add up under threads; executor job checkpoints that
let an interrupted sweep — serial or parallel — complete only its unfinished
jobs; and the ExperimentResult JSON round-trip edge cases (non-finite
values, numpy dtypes).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import pickle
import sqlite3
import struct
import sys
import threading
import zlib
from contextlib import closing

import numpy as np
import pytest

from repro.core.lp import solve_lp_relaxation
from repro.core.pipeline import SolveContext
from repro.core.registry import build_runners
from repro.data import datasets
from repro.experiments.executor import (
    SerialExecutor,
    compile_sweep,
    job_checkpoint_key,
    plan_signature,
    run_job,
)
from repro.experiments.figures import InstanceSweepFactory
from repro.experiments.harness import ExperimentResult, run_plan, sweep
from repro.experiments.scheduler import WorkStealingExecutor
from repro.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    BlobCorruptionError,
    BlobStore,
    lp_param_key,
    pack_payload,
    unpack_payload,
)
from repro.store.store import NS_JOB, NS_LP

#: The default cache key of :meth:`SolveContext.fractional`.
DEFAULT_LP_KEY = ("simplified", True, None, True)

SWEEP_FACTORY = InstanceSweepFactory(
    dataset="timik", vary="n", num_items=15, num_slots=2
)


class SlowFactory:
    """Picklable factory that takes long enough to interrupt mid-sweep."""

    def __init__(self, delay: float = 0.25) -> None:
        self.delay = delay

    def __call__(self, value, rep_seed):
        import time

        time.sleep(self.delay)
        return datasets.make_instance(
            "timik", num_users=int(value), num_items=15, num_slots=2, seed=rep_seed
        )

    def __repr__(self) -> str:  # deterministic, so plan signatures are stable
        return f"SlowFactory(delay={self.delay})"


def _make_plan(values=(5, 6), repetitions=2, algorithms=("AVG", "PER"), seed=0):
    return compile_sweep(
        "store-test", "d", list(values), SWEEP_FACTORY,
        build_runners(list(algorithms)), seed=seed, repetitions=repetitions,
    )


def _lp_blob_path(store, fingerprint, key=DEFAULT_LP_KEY):
    sha, _ = store.index.get(NS_LP, fingerprint, lp_param_key(key))
    return store._blobs.path_for(sha)


def _payload(header, body=b""):
    """Hand-built payload: the magic, the header's length, a JSON (or raw) header, the body."""
    header_bytes = header if isinstance(header, bytes) else json.dumps(header).encode()
    magic = pack_payload({}, {})[:4]
    return struct.pack("<4sI", magic, len(header_bytes)) + header_bytes + body


def _floats_payload(shape, dtype="<f8", values=3):
    """A header declaring one array of ``shape`` over ``values`` float64s."""
    body = zlib.compress(np.arange(values, dtype=np.float64).tobytes(), 1)
    return _payload({"meta": {}, "arrays": [["a", dtype, shape]]}, body)


def _good_payload():
    return pack_payload({"kind": "x"}, {"a": np.arange(3.0)})


#: Payloads ``unpack_payload`` must reject, by what is wrong with them.
MALFORMED_PAYLOADS = {
    "wrong magic": lambda: b"NOPE" + _good_payload()[4:],
    "shorter than the prefix": lambda: _good_payload()[:6],
    "truncated header": lambda: _good_payload()[:20],
    "header length past the end": lambda: struct.pack("<4sI", _good_payload()[:4], 1 << 20)
    + _good_payload()[8:],
    "header not JSON": lambda: _payload(b"\xff{not json"),
    "header without arrays": lambda: _payload({"meta": {}}),
    "fewer bytes than the header's sizes": lambda: _floats_payload([4]),
    "more bytes than the header's sizes": lambda: _floats_payload([2]),
    "truncated body": lambda: _good_payload()[:-3],
    "bytes after the body": lambda: _good_payload() + b"tail",
    "object dtype": lambda: _floats_payload([3], dtype="|O"),
    "negative dim": lambda: _floats_payload([-3]),
    "fractional dim": lambda: _floats_payload([1.5, 2]),
    "npz archive": lambda: _npz_payload({"kind": "x"}, {"a": np.arange(3.0)}),
}


def _npz_payload(meta, arrays):
    """A payload as schema 1 wrote it: a compressed ``.npz`` with a ``__meta__`` entry."""
    buffer = io.BytesIO()
    encoded = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(buffer, __meta__=encoded, **arrays)
    return buffer.getvalue()


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def instance():
    return datasets.make_instance("timik", num_users=8, num_items=18, num_slots=2, seed=11)


class TestBlobsAndPayloads:
    def test_payload_round_trip(self):
        meta = {"a": 1, "b": [1.5, None, "x"], "nan": float("nan")}
        arrays = {"m": np.arange(6, dtype=np.int64).reshape(2, 3), "f": np.ones(3)}
        out_meta, out_arrays = unpack_payload(pack_payload(meta, arrays))
        assert out_meta["a"] == 1 and out_meta["b"] == [1.5, None, "x"]
        assert math.isnan(out_meta["nan"])
        np.testing.assert_array_equal(out_arrays["m"], arrays["m"])
        np.testing.assert_array_equal(out_arrays["f"], arrays["f"])

    def test_edge_arrays_round_trip_exactly(self):
        meta = {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf"), "s": "é"}
        arrays = {
            "empty": np.zeros((0, 3)),
            "empty_ints": np.zeros(0, dtype=np.int32),
            "scalar": np.array(2.5),
            "strided": np.arange(24.0).reshape(4, 6)[::2, ::3],
            "fortran": np.asfortranarray(np.arange(6, dtype=np.int16).reshape(2, 3)),
            "big_endian": np.arange(4, dtype=">u4"),
            "flags": np.array([True, False, True]),
        }
        out_meta, out_arrays = unpack_payload(pack_payload(meta, arrays))
        assert math.isnan(out_meta["nan"])
        assert out_meta["inf"] == math.inf and out_meta["ninf"] == -math.inf
        assert out_meta["s"] == "é"
        assert list(out_arrays) == list(arrays)
        for name, array in arrays.items():
            out = out_arrays[name]
            assert out.dtype == array.dtype and out.shape == array.shape, name
            np.testing.assert_array_equal(out, array)
            assert out.flags.writeable and out.flags.c_contiguous, name
        out_arrays["strided"][0, 0] = -1.0  # writeable, and not a view of the input
        assert arrays["strided"][0, 0] == 0.0

    def test_pack_refuses_dtypes_it_cannot_name(self):
        with pytest.raises(ValueError):
            pack_payload({}, {"o": np.array([1, None], dtype=object)})
        with pytest.raises(ValueError):
            pack_payload({}, {"rec": np.zeros(2, dtype=[("a", "<f8"), ("b", "<i4")])})

    @pytest.mark.parametrize("case", sorted(MALFORMED_PAYLOADS))
    def test_malformed_payloads_are_rejected(self, case):
        with pytest.raises(ValueError):
            unpack_payload(MALFORMED_PAYLOADS[case]())

    def test_blobs_are_content_addressed_and_verified(self, tmp_path):
        blobs = BlobStore(tmp_path / "blobs")
        data = pack_payload({"k": 1}, {"a": np.arange(4)})
        sha1 = blobs.put(data)
        sha2 = blobs.put(data)  # idempotent
        assert sha1 == sha2
        assert blobs.get(sha1) == data
        blobs.path_for(sha1).write_bytes(data[: len(data) // 2])  # truncate
        with pytest.raises(BlobCorruptionError):
            blobs.get(sha1)

    def test_threads_putting_the_same_bytes_all_succeed(self, tmp_path):
        """Threads of one process writing one blob never share a temp file.

        With a temp name unique only per process, two racing threads write
        one path and the loser's ``os.replace`` finds its file already
        moved (``FileNotFoundError``, about 5% of trials at this shape).
        """
        data = np.random.default_rng(0).bytes(256 * 1024)
        digest = hashlib.sha256(data).hexdigest()
        num_threads = 8

        def put(blobs, barrier, errors):
            barrier.wait(timeout=10)
            try:
                blobs.put(data)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        for trial in range(200):
            blobs = BlobStore(tmp_path / f"blobs-{trial}")
            barrier = threading.Barrier(num_threads)
            errors = []
            threads = [
                threading.Thread(target=put, args=(blobs, barrier, errors))
                for _ in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert not errors, f"trial {trial}: {errors[0]!r}"
            assert blobs.get(digest) == data


class TestLPStore:
    def test_lp_round_trip_is_exact(self, store, instance):
        context = SolveContext(instance)
        solved = context.fractional()
        store.save_lp(context.fingerprint, DEFAULT_LP_KEY, solved)
        loaded = store.load_lp(context.fingerprint, DEFAULT_LP_KEY)
        assert loaded.objective == solved.objective
        assert loaded.formulation == solved.formulation
        np.testing.assert_array_equal(loaded.compact_factors, solved.compact_factors)
        np.testing.assert_array_equal(loaded.slot_factors, solved.slot_factors)
        np.testing.assert_array_equal(
            loaded.candidate_item_ids, solved.candidate_item_ids
        )

    @pytest.mark.parametrize(
        "formulation, capped",
        [("simplified", False), ("sparse", False), ("full", False), ("simplified", True)],
    )
    def test_hits_equal_a_fresh_solve(self, store, formulation, capped):
        """Values, dtypes, shapes and writeability of a hit are a solo solve's."""
        if capped:  # a binding SVGIC-ST cap: M * k = 6 < n
            instance = datasets.make_st_instance(
                "timik", num_users=12, num_items=10, num_slots=3,
                max_subgroup_size=2, seed=4,
            )
        else:
            instance = datasets.make_instance(
                "timik", num_users=8, num_items=18, num_slots=3, seed=11
            )
        key = (formulation, True, None, True)
        solved = solve_lp_relaxation(instance, formulation=formulation)
        store.save_lp("fp", key, solved)
        loaded = store.load_lp("fp", key)
        for field in ("objective", "lp_seconds", "formulation"):
            assert getattr(loaded, field) == getattr(solved, field)
        for field in ("compact_factors", "slot_factors", "candidate_item_ids"):
            ours, theirs = getattr(loaded, field), getattr(solved, field)
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, field
            assert np.array_equal(ours, theirs), field
            assert ours.flags.writeable == theirs.flags.writeable, field
        assert loaded.slot_independent == (formulation != "full")

    def test_lp_simp_payloads_omit_slot_factors(self, store, instance):
        solved = solve_lp_relaxation(instance)
        store.save_lp("fp", DEFAULT_LP_KEY, solved)
        meta, arrays = unpack_payload(_lp_blob_path(store, "fp").read_bytes())
        assert set(arrays) == {"compact_factors", "candidate_item_ids"}
        assert meta["num_slots"] == instance.num_slots

    def test_store_is_keyed_by_full_lp_parameters(self, store, instance):
        context = SolveContext(instance, store=store)
        context.fractional()
        assert store.load_lp(context.fingerprint, DEFAULT_LP_KEY) is not None
        assert store.load_lp(context.fingerprint, ("full", True, None, True)) is None
        assert store.load_lp("deadbeef", DEFAULT_LP_KEY) is None

    def test_attached_context_skips_lp_across_contexts(self, store, instance):
        """Acceptance: a warm store makes lp_solves zero, lp_store_hits >= 1."""
        cold = SolveContext(instance, store=store)
        solved = cold.fractional()
        assert cold.lp_solves == 1 and cold.lp_store_hits == 0

        warm = SolveContext(instance, store=store)
        loaded = warm.fractional()
        warm.fractional()  # in-memory hit on the store-loaded entry
        assert warm.lp_solves == 0
        assert warm.lp_store_hits == 2
        assert warm.lp_hits == 2
        assert warm.stats()["lp_store_hits"] == 2
        assert loaded.objective == solved.objective
        np.testing.assert_allclose(
            loaded.compact_factors, solved.compact_factors, atol=1e-12
        )

    def test_store_survives_pickling(self, store, instance):
        SolveContext(instance, store=store).fractional()
        clone = pickle.loads(pickle.dumps(store))
        context = SolveContext(instance, store=clone)
        context.fractional()
        assert context.lp_solves == 0 and context.lp_store_hits == 1


class TestRobustness:
    def _warm(self, store, instance):
        context = SolveContext(instance, store=store)
        context.fractional()
        return context.fingerprint

    def test_truncated_blob_is_evicted_and_resolved(self, store, instance):
        fingerprint = self._warm(store, instance)
        path = _lp_blob_path(store, fingerprint)
        path.write_bytes(path.read_bytes()[:64])

        retry = SolveContext(instance, store=store)
        retry.fractional()  # must re-solve, never crash
        assert retry.lp_solves == 1 and retry.lp_store_hits == 0
        assert store.evictions == 1
        # The re-solve wrote the entry back; the store is healthy again.
        healed = SolveContext(instance, store=store)
        healed.fractional()
        assert healed.lp_solves == 0 and healed.lp_store_hits == 1

    def test_garbage_blob_is_evicted(self, store, instance):
        fingerprint = self._warm(store, instance)
        _lp_blob_path(store, fingerprint).write_bytes(b"not an npz payload")
        assert store.load_lp(fingerprint, DEFAULT_LP_KEY) is None
        assert store.evictions == 1
        assert store.index.get(NS_LP, fingerprint, lp_param_key(DEFAULT_LP_KEY)) is None

    def test_missing_blob_is_evicted(self, store, instance):
        fingerprint = self._warm(store, instance)
        _lp_blob_path(store, fingerprint).unlink()
        assert store.load_lp(fingerprint, DEFAULT_LP_KEY) is None
        assert store.evictions == 1

    @pytest.mark.parametrize("case", sorted(MALFORMED_PAYLOADS))
    def test_malformed_payload_is_evicted_and_resolved(self, store, instance, case):
        """A blob that passes its SHA-256 check but is not a valid payload."""
        fingerprint = self._warm(store, instance)
        sha = store._blobs.put(MALFORMED_PAYLOADS[case]())
        store.index.put(NS_LP, fingerprint, lp_param_key(DEFAULT_LP_KEY), sha, SCHEMA_VERSION)

        retry = SolveContext(instance, store=store)
        retry.fractional()
        assert retry.lp_solves == 1 and retry.lp_store_hits == 0
        assert store.evictions == 1
        assert sha not in store._blobs
        healed = SolveContext(instance, store=store)
        healed.fractional()
        assert healed.lp_solves == 0 and healed.lp_store_hits == 1

    def test_entry_an_npz_store_wrote_is_evicted_and_resolved(self, store, instance):
        """Schema 1 entries (``.npz`` payloads at ``<sha>.npz``) are re-solved."""
        context = SolveContext(instance)
        solved = context.fractional()
        old = _npz_payload(
            {
                "kind": "fractional-solution",
                "objective": solved.objective,
                "lp_seconds": solved.lp_seconds,
                "formulation": solved.formulation,
            },
            {
                "compact_factors": solved.compact_factors,
                "slot_factors": np.ascontiguousarray(solved.slot_factors),
                "candidate_item_ids": solved.candidate_item_ids,
            },
        )
        sha = hashlib.sha256(old).hexdigest()
        npz_path = store._blobs.root / sha[:2] / f"{sha}.npz"
        npz_path.parent.mkdir(parents=True)
        npz_path.write_bytes(old)
        store.index.put(NS_LP, context.fingerprint, lp_param_key(DEFAULT_LP_KEY), sha, 1)

        retry = SolveContext(instance, store=store)
        again = retry.fractional()
        assert retry.lp_solves == 1 and retry.lp_store_hits == 0
        assert store.evictions == 1
        assert again.objective == solved.objective
        _, schema_version = store.index.get(
            NS_LP, context.fingerprint, lp_param_key(DEFAULT_LP_KEY)
        )
        assert schema_version == SCHEMA_VERSION
        healed = SolveContext(instance, store=store)
        healed.fractional()
        assert healed.lp_solves == 0 and healed.lp_store_hits == 1

    def test_stale_schema_entry_is_evicted_and_resolved(self, store, instance):
        fingerprint = self._warm(store, instance)
        with store.index.connection as conn:
            conn.execute("UPDATE entries SET schema_version = schema_version + 1")
        retry = SolveContext(instance, store=store)
        retry.fractional()
        assert retry.lp_solves == 1 and retry.lp_store_hits == 0
        assert store.evictions == 1

    def test_corrupted_checkpoint_reruns_the_job(self, store):
        plan = _make_plan(values=(5,), repetitions=1)
        executor = SerialExecutor(store=store)
        executor.run(plan)
        signature = plan_signature(plan)
        sha, _ = store.index.get(NS_JOB, signature, job_checkpoint_key(plan.jobs[0]))
        store._blobs.path_for(sha).write_bytes(b"garbage")

        again = SerialExecutor(store=store)
        results = again.run(plan)
        assert again.jobs_resumed == 0 and again.jobs_executed == 1
        assert len(results) == 1
        assert store.evictions >= 1


class TestCounters:
    def test_counters_add_up_under_threads(self, store, instance):
        """8 threads load present and absent keys: every call is one hit or one miss."""
        fingerprint = SolveContext(instance, store=store).fingerprint
        store.save_lp(fingerprint, DEFAULT_LP_KEY, solve_lp_relaxation(instance))
        absent = ("full", True, None, True)
        num_threads, calls = 8, 150
        barrier = threading.Barrier(num_threads)
        errors = []

        def load() -> None:
            barrier.wait(timeout=10)
            try:
                for call in range(calls):
                    store.load_lp(fingerprint, DEFAULT_LP_KEY if call % 2 else absent)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load) for _ in range(num_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        stats = store.stats()
        assert stats["hits"] + stats["misses"] == num_threads * calls
        assert stats["hits"] == stats["misses"] == num_threads * calls // 2
        assert stats["writes"] == 1 and stats["evictions"] == 0


class TestJobCheckpoints:
    def test_job_result_round_trip(self, store):
        plan = _make_plan(values=(5,), repetitions=1)
        result = run_job(plan.instance_factory, plan.jobs[0], None)
        signature = plan_signature(plan)
        key = job_checkpoint_key(plan.jobs[0])
        store.save_job(signature, key, result)
        loaded = store.load_job(signature, key)

        assert loaded.job_index == result.job_index
        assert set(loaded.reports) == set(result.reports)
        for name, report in result.reports.items():
            assert loaded.reports[name].as_row() == report.as_row()
            np.testing.assert_array_equal(loaded.reports[name].regrets, report.regrets)
        assert loaded.provenance["lp_solves"] == result.provenance["lp_solves"]
        assert store.job_indices(signature) == [0]

    def test_checkpoint_keys_are_content_based(self):
        """Same plan scope, but any change to a job's content changes its key."""
        assert plan_signature(_make_plan()) == plan_signature(_make_plan())
        assert plan_signature(_make_plan()) == plan_signature(_make_plan(seed=9))

        def first_key(**kwargs):
            return job_checkpoint_key(_make_plan(**kwargs).jobs[0])

        assert first_key() == first_key()
        assert first_key(seed=1) != first_key(seed=2)  # rep seeds differ
        assert first_key(values=(5,)) != first_key(values=(6,))
        assert first_key(algorithms=("AVG",)) != first_key(algorithms=("AVG-D",))

    def test_subset_plans_share_checkpoints_with_their_parent(self):
        plan = _make_plan()
        partial = plan.subset([1, 2])
        assert plan_signature(partial) == plan_signature(plan)
        by_index = {job.index: job_checkpoint_key(job) for job in plan.jobs}
        for job in partial.jobs:
            assert job_checkpoint_key(job) == by_index[job.index]


class TestResumableExecution:
    def test_full_rerun_resumes_every_job(self, store):
        plan = _make_plan()
        baseline = run_plan(plan, SerialExecutor())
        run_plan(plan, SerialExecutor(store=store))

        resumed_executor = SerialExecutor(store=store)
        resumed = run_plan(plan, resumed_executor)
        assert resumed_executor.jobs_resumed == len(plan)
        assert resumed_executor.jobs_executed == 0
        assert resumed.comparable_rows() == baseline.comparable_rows()
        provenance = resumed.parameters["job_provenance"]
        assert all(p.get("resumed") for p in provenance)

    def test_interrupted_serial_run_completes_only_unfinished_jobs(self, store):
        """Acceptance: kill mid-flight, re-run with the same store, finish the rest."""
        plan = _make_plan()
        baseline = run_plan(plan, SerialExecutor())

        interrupted = SerialExecutor(store=store)
        stream = interrupted.iter_run(plan)
        next(stream)
        next(stream)
        stream.close()  # two jobs checkpointed, two never ran
        assert store.job_indices(plan_signature(plan)) == [0, 1]

        finisher = SerialExecutor(store=store)
        finished = run_plan(plan, finisher)
        assert finisher.jobs_resumed == 2
        assert finisher.jobs_executed == 2
        assert finished.comparable_rows() == baseline.comparable_rows()

    def test_killed_parallel_run_completes_only_unfinished_jobs(self, store):
        """Acceptance: a parallel sweep dies after two jobs; the re-run with the
        same store yields those two from checkpoints and executes only the rest."""
        plan = compile_sweep(
            "store-par", "d", [5, 6, 7, 8], SWEEP_FACTORY,
            build_runners(["PER"]), seed=0, repetitions=1,
        )
        baseline = run_plan(plan, SerialExecutor())

        # The first attempt got through jobs 0 and 1 before being killed —
        # subset plans share scope and job keys with their parent, so this
        # is exactly the checkpoint state a mid-flight kill leaves behind.
        interrupted = WorkStealingExecutor(workers=2, store=store)
        interrupted.run(plan.subset([0, 1]))
        assert store.job_indices(plan_signature(plan)) == [0, 1]

        finisher = WorkStealingExecutor(workers=2, store=store)
        finished = run_plan(plan, finisher)
        assert finisher.jobs_resumed == 2
        assert finisher.jobs_executed == 2
        assert finished.comparable_rows() == baseline.comparable_rows()

    def test_closing_a_parallel_stream_cancels_and_resumes_cleanly(self, store):
        """Closing iter_run mid-stream shuts the pool down without losing
        finished work; a re-run completes whatever was not checkpointed."""
        plan = compile_sweep(
            "store-close", "d", [5, 6, 7, 8, 9, 10], SlowFactory(),
            build_runners(["PER"]), seed=0, repetitions=1,
        )
        interrupted = WorkStealingExecutor(workers=1, store=store)
        stream = interrupted.iter_run(plan)
        next(stream)
        stream.close()  # groups not yet claimed are cancelled; running ones finish
        checkpointed = len(store.job_indices(plan_signature(plan)))
        assert 1 <= checkpointed <= len(plan)

        baseline = run_plan(plan, SerialExecutor())
        finisher = WorkStealingExecutor(workers=2, store=store)
        finished = run_plan(plan, finisher)
        assert finisher.jobs_resumed == checkpointed
        assert finisher.jobs_resumed + finisher.jobs_executed == len(plan)
        assert finished.comparable_rows() == baseline.comparable_rows()

    def test_resume_false_reexecutes_with_warm_lp_store(self, store):
        plan = _make_plan()
        cold = run_plan(plan, SerialExecutor(store=store))

        warm_executor = SerialExecutor(store=store, resume=False)
        warm = run_plan(plan, warm_executor)
        assert warm_executor.jobs_resumed == 0
        assert warm_executor.jobs_executed == len(plan)
        for provenance in warm.parameters["job_provenance"]:
            assert provenance["lp_solves"] == 0
            assert provenance["lp_store_hits"] >= 1
        assert warm.comparable_rows() == cold.comparable_rows()

    def test_parallel_workers_share_the_store_on_disk(self, store):
        plan = _make_plan(values=(5, 6), repetitions=1)
        serial = run_plan(plan, SerialExecutor())
        executor = WorkStealingExecutor(workers=2, store=store)
        parallel = run_plan(plan, executor)
        assert executor.jobs_executed == len(plan)
        assert parallel.comparable_rows() == serial.comparable_rows()
        # Workers checkpointed their jobs and persisted their LP solves.
        assert len(store.job_indices(plan_signature(plan))) == len(plan)
        assert store.index.count(NS_LP) == len(plan)

    def test_extended_recompile_resumes_shared_jobs(self, store):
        """Adding sweep values shifts job indices; content keys still match,
        and resumed results are renumbered to the new plan's indices."""
        small = _make_plan(values=(5,), repetitions=2)
        run_plan(small, SerialExecutor(store=store))

        # Prepending a value moves the value-5 jobs from indices 0,1 to 2,3.
        extended = _make_plan(values=(4, 5), repetitions=2)
        baseline = run_plan(extended, SerialExecutor())
        finisher = SerialExecutor(store=store)
        finished = run_plan(extended, finisher)
        assert finisher.jobs_resumed == 2
        assert finisher.jobs_executed == 2
        assert finished.comparable_rows() == baseline.comparable_rows()
        resumed_indices = sorted(
            p["job_index"]
            for p in finished.parameters["job_provenance"]
            if p.get("resumed")
        )
        assert resumed_indices == [2, 3]

    def test_run_plan_binds_store_temporarily(self, store):
        plan = _make_plan(values=(5,), repetitions=1)
        executor = SerialExecutor()
        run_plan(plan, executor, store=store)
        assert executor.store is None  # no lingering mutation
        assert len(store.job_indices(plan_signature(plan))) == 1

    def test_conflicting_store_options_raise(self, store):
        plan = _make_plan(values=(5,), repetitions=1)
        executor = SerialExecutor()
        run_plan(plan, executor)  # fills the in-memory artifacts
        assert executor.artifact_store
        with pytest.raises(ValueError, match="in-memory artifacts"):
            run_plan(plan, executor, store=store)

    def test_sweep_store_passthrough(self, store):
        args = dict(seed=0, repetitions=1, x_label="n")
        first = sweep(
            "pass", "d", [5, 6], SWEEP_FACTORY, build_runners(["PER"]),
            store=store, **args,
        )
        second = sweep(
            "pass", "d", [5, 6], SWEEP_FACTORY, build_runners(["PER"]),
            store=store, **args,
        )
        assert first.comparable_rows() == second.comparable_rows()
        assert all(p.get("resumed") for p in second.parameters["job_provenance"])


class TestExperimentResultJSONEdgeCases:
    def test_non_finite_values_round_trip(self):
        result = ExperimentResult("edge", "non-finite values")
        result.add_row(
            algorithm="A", pos_inf=float("inf"), neg_inf=float("-inf"),
            nan=float("nan"), ratio=np.float64("inf"),
        )
        restored = ExperimentResult.from_json(result.to_json())
        row = restored.rows[0]
        assert row["pos_inf"] == math.inf
        assert row["neg_inf"] == -math.inf
        assert math.isnan(row["nan"])
        assert row["ratio"] == math.inf

    def test_numpy_dtype_edge_cases_round_trip(self):
        result = ExperimentResult(
            "edge", "numpy dtypes",
            parameters={np.int64(3): np.bool_(False), "arr": np.eye(2, dtype=np.float32)},
        )
        result.add_row(
            algorithm="A",
            f32=np.float32(0.25),
            i64=np.int64(2**40),
            i8=np.int8(-5),
            flag=np.bool_(True),
            vec=np.array([1.5, np.nan]),
            ints=np.arange(3, dtype=np.uint16),
            nested={"inner": np.float64(1.0), "list": [np.int32(1), np.bool_(False)]},
        )
        restored = ExperimentResult.from_json(result.to_json())
        row = restored.rows[0]
        assert row["f32"] == 0.25 and isinstance(row["f32"], float)
        assert row["i64"] == 2**40 and isinstance(row["i64"], int)
        assert row["i8"] == -5
        assert row["flag"] is True
        assert row["vec"][0] == 1.5 and math.isnan(row["vec"][1])
        assert row["ints"] == [0, 1, 2]
        assert row["nested"] == {"inner": 1.0, "list": [1, False]}
        # Non-string dict keys become strings (the JSON object-key limitation).
        assert restored.parameters["3"] is False
        assert restored.parameters["arr"] == [[1.0, 0.0], [0.0, 1.0]]


#: The ``timings`` table earlier versions created in every store's index.
OLD_TIMINGS_SQL = """
CREATE TABLE IF NOT EXISTS timings (
    signature   TEXT NOT NULL,
    n           INTEGER NOT NULL,
    m           INTEGER NOT NULL,
    k           INTEGER NOT NULL,
    job_seconds REAL NOT NULL,
    lp_seconds  REAL NOT NULL,
    samples     INTEGER NOT NULL,
    updated_at  TEXT NOT NULL,
    PRIMARY KEY (signature, n, m, k)
)
"""
OLD_TIMINGS_ROW = ("sig", 10, 20, 3, 1.5, 0.4, 1, "2026-10-19T00:00:00+00:00")


def _index_tables(root):
    with closing(sqlite3.connect(str(root / "index.sqlite"))) as conn:
        rows = conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
        ).fetchall()
    return [name for (name,) in rows]


def _old_timings_rows(root):
    with closing(sqlite3.connect(str(root / "index.sqlite"))) as conn:
        return conn.execute("SELECT * FROM timings").fetchall()


def test_a_fresh_index_holds_only_entries(tmp_path, instance):
    store = ArtifactStore(tmp_path / "fresh")
    store.save_lp("fp", DEFAULT_LP_KEY, solve_lp_relaxation(instance))
    run_plan(_make_plan(values=(5,), repetitions=1), SerialExecutor(store=store))
    assert _index_tables(tmp_path / "fresh") == ["entries"]


class TestIndexWithOldTimingsTable:
    """An index an earlier version wrote, ``timings`` table included, serves
    LP hits and resumes jobs, serially and under work stealing, and its
    ``timings`` rows are left as they were."""

    @pytest.fixture
    def root(self, tmp_path):
        root = tmp_path / "old-store"
        root.mkdir()
        with closing(sqlite3.connect(str(root / "index.sqlite"))) as conn, conn:
            conn.execute(OLD_TIMINGS_SQL)
            conn.execute(
                "INSERT INTO timings VALUES (?, ?, ?, ?, ?, ?, ?, ?)", OLD_TIMINGS_ROW
            )
        return root

    def test_lp_hit(self, root, instance):
        solved = solve_lp_relaxation(instance)
        ArtifactStore(root).save_lp("fp", DEFAULT_LP_KEY, solved)
        reopened = ArtifactStore(root)
        assert reopened.load_lp("fp", DEFAULT_LP_KEY).objective == solved.objective
        assert reopened.stats()["hits"] == 1
        assert _old_timings_rows(root) == [OLD_TIMINGS_ROW]

    def test_serial_rerun_resumes_every_job(self, root):
        plan = _make_plan()
        baseline = run_plan(plan, SerialExecutor())
        run_plan(plan, SerialExecutor(store=ArtifactStore(root)))
        resumer = SerialExecutor(store=ArtifactStore(root))
        assert run_plan(plan, resumer).comparable_rows() == baseline.comparable_rows()
        assert (resumer.jobs_resumed, resumer.jobs_executed) == (len(plan), 0)
        assert _old_timings_rows(root) == [OLD_TIMINGS_ROW]

    def test_work_stealing_rerun_resumes_every_job(self, root):
        plan = _make_plan()
        baseline = run_plan(plan, SerialExecutor())
        run_plan(plan, WorkStealingExecutor(workers=2, store=ArtifactStore(root)))
        resumer = WorkStealingExecutor(workers=2, store=ArtifactStore(root))
        assert run_plan(plan, resumer).comparable_rows() == baseline.comparable_rows()
        assert (resumer.jobs_resumed, resumer.jobs_executed) == (len(plan), 0)
        assert _old_timings_rows(root) == [OLD_TIMINGS_ROW]

    def test_clear_leaves_the_old_table_alone(self, root, instance):
        store = ArtifactStore(root)
        store.save_lp("fp", DEFAULT_LP_KEY, solve_lp_relaxation(instance))
        store.clear()
        assert store.load_lp("fp", DEFAULT_LP_KEY) is None
        assert _index_tables(root) == ["entries", "timings"]
        assert _old_timings_rows(root) == [OLD_TIMINGS_ROW]
