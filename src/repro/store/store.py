"""The :class:`ArtifactStore`: one disk directory holding solves and results.

Layout under ``root``::

    root/
      index.sqlite        # SQLite index (WAL), see repro.store.index
      blobs/ab/<sha>.bin  # content-addressed payloads, see repro.store.blobs

The store exposes two keyed surfaces over that substrate:

* ``load_lp`` / ``save_lp`` — LP relaxation solutions keyed by instance
  fingerprint **plus the full LP parameter tuple**.  This is the surface a
  :class:`~repro.core.pipeline.SolveContext` built with ``store=`` consults:
  a cache miss falls through to disk before it falls through to the solver,
  and fresh solves are written through immediately.  The executors'
  in-memory :class:`~repro.experiments.executor.MemoryLPStore` implements
  the same two methods for runs without a persistent store.
* ``load_job`` / ``save_job`` — executor checkpoints keyed by plan signature
  and a per-job content key; the streaming executors write one entry per
  finished job so interrupted sweeps resume instead of restarting.

The index only locates payloads: it records no timings, and a ``timings``
table an older version created is left alone.

Every load verifies schema version and blob integrity; anything stale,
missing, truncated or corrupted is evicted and reported as a miss — callers
re-solve, they never crash.  Instances are picklable (the SQLite connection
is dropped and lazily reopened), so one store object can be shipped to
:class:`~repro.experiments.scheduler.WorkStealingExecutor` workers, which
then share the directory through WAL-mode SQLite.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.lp import FractionalSolution
from repro.experiments.executor import JobResult
from repro.store.blobs import BlobStore
from repro.store.codecs import (
    SCHEMA_VERSION,
    decode_fractional,
    decode_job_result,
    encode_fractional,
    encode_job_result,
    lp_param_key,
    pack_payload,
    unpack_payload,
)
from repro.store.index import SQLiteIndex

#: Index namespaces (see repro.store.index for the key layout per namespace).
NS_LP = "lp"
NS_JOB = "job"


class ArtifactStore:
    """Disk-backed, content-addressed store for LP solves and job results.

    Attributes
    ----------
    hits / misses / evictions / writes:
        Per-instance counters (this process only — not persisted).  A miss
        caused by a stale or corrupted entry also counts one eviction.  They
        are updated under a lock, since the serving layer's batcher thread
        and its callers share one store.
    """

    def __init__(self, root: os.PathLike, *, busy_timeout_ms: int = 30_000) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._index = SQLiteIndex(self.root / "index.sqlite", busy_timeout_ms=busy_timeout_ms)
        self._blobs = BlobStore(self.root / "blobs")
        self._reset_counters()

    def _reset_counters(self) -> None:
        self._counter_lock = threading.Lock()
        self.hits = self.misses = self.evictions = self.writes = 0

    # -- plumbing -------------------------------------------------------- #
    @property
    def index(self) -> SQLiteIndex:
        return self._index

    def close(self) -> None:
        self._index.close()

    def __getstate__(self) -> Dict[str, Any]:
        return {"root": self.root, "_index": self._index, "_blobs": self._blobs}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.root = state["root"]
        self._index = state["_index"]
        self._blobs = state["_blobs"]
        self._reset_counters()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"

    def stats(self) -> Dict[str, int]:
        with self._counter_lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "writes": self.writes,
            }

    def _evict(self, namespace: str, fingerprint: str, param_key: str, blob_sha: str) -> None:
        # Counts one eviction and one miss.  Blobs are content-addressed and
        # may be shared by several entries; deleting a shared blob merely
        # turns the other entries into misses on their next read (they evict
        # themselves and re-solve).
        self._index.delete(namespace, fingerprint, param_key)
        self._blobs.delete(blob_sha)
        with self._counter_lock:
            self.evictions += 1
            self.misses += 1

    def _load(self, namespace: str, fingerprint: str, param_key: str) -> Optional[Tuple[Dict[str, Any], Dict[str, np.ndarray]]]:
        """Verified ``(meta, arrays)`` of one entry, or None (evicting bad state)."""
        row = self._index.get(namespace, fingerprint, param_key)
        if row is None:
            with self._counter_lock:
                self.misses += 1
            return None
        blob_sha, schema_version = row
        if schema_version != SCHEMA_VERSION:
            self._evict(namespace, fingerprint, param_key, blob_sha)
            return None
        try:
            payload = self._blobs.get(blob_sha)
            meta, arrays = unpack_payload(payload)
        except Exception:
            # Missing, truncated, corrupted or undecodable blob: never crash —
            # drop the entry and let the caller re-solve.
            self._evict(namespace, fingerprint, param_key, blob_sha)
            return None
        with self._counter_lock:
            self.hits += 1
        return meta, arrays

    def _save(self, namespace: str, fingerprint: str, param_key: str, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> None:
        blob_sha = self._blobs.put(pack_payload(meta, arrays))
        self._index.put(namespace, fingerprint, param_key, blob_sha, SCHEMA_VERSION)
        with self._counter_lock:
            self.writes += 1

    # -- LP relaxation solutions ----------------------------------------- #
    def load_lp(self, fingerprint: str, key: Tuple[Any, ...]) -> Optional[FractionalSolution]:
        """The stored LP solution for ``(fingerprint, full parameter key)``, or None."""
        loaded = self._load(NS_LP, fingerprint, lp_param_key(key))
        if loaded is None:
            return None
        return decode_fractional(*loaded)

    def save_lp(self, fingerprint: str, key: Tuple[Any, ...], solution: FractionalSolution) -> None:
        self._save(NS_LP, fingerprint, lp_param_key(key), *encode_fractional(solution))

    # -- executor job checkpoints ----------------------------------------- #
    def load_job(self, signature: str, job_key: str) -> Optional[JobResult]:
        """The checkpointed result under plan scope ``signature`` and job key.

        ``job_key`` is the per-job content key produced by
        :func:`repro.experiments.executor.job_checkpoint_key` (the store
        treats it as opaque).
        """
        loaded = self._load(NS_JOB, signature, job_key)
        if loaded is None:
            return None
        return decode_job_result(*loaded)

    def save_job(self, signature: str, job_key: str, result: JobResult) -> None:
        self._save(NS_JOB, signature, job_key, *encode_job_result(result))

    def job_indices(self, signature: str) -> List[int]:
        """Indices of every readable checkpoint under plan scope ``signature``.

        Job keys are content hashes (position-independent), so the index is
        read from each checkpoint's metadata — the index recorded by the
        plan that *wrote* it.  A maintenance helper: unreadable or stale
        entries are skipped (not evicted) and counters are left untouched.
        """
        indices: List[int] = []
        for _, blob_sha, schema_version in self._index.params(NS_JOB, signature):
            if schema_version != SCHEMA_VERSION:
                continue
            try:
                meta, _ = unpack_payload(self._blobs.get(blob_sha))
                indices.append(int(meta["job_index"]))
            except Exception:
                continue
        return sorted(indices)

    # -- maintenance ------------------------------------------------------ #
    def clear(self) -> None:
        """Drop every index entry (blobs are left for the filesystem to reclaim)."""
        self._index.clear()


__all__ = ["ArtifactStore", "NS_LP", "NS_JOB"]
