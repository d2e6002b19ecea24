"""Persistent, content-addressed artifact/result store for solve state.

The store is the disk-backed sibling of the in-memory LP store the
experiment executors use without it
(:class:`~repro.experiments.executor.MemoryLPStore`; both expose
``load_lp``/``save_lp``): a SQLite index (WAL journal, busy-timeout) over
content-addressed ``.bin`` blob payloads, each one JSON header plus the
zlib-compressed raw bytes of its arrays (:mod:`repro.store.codecs`).  Two
kinds of entries share the same index/blob substrate:

* **LP relaxation solutions**, keyed by
  :func:`repro.core.pipeline.instance_fingerprint` plus the *full* LP
  parameter tuple — given to a :class:`~repro.core.pipeline.SolveContext`
  as its ``store=``, the store turns every LP relaxation into a
  once-per-machine cost (the context's ``lp_store_hits`` counter makes the
  reuse assertable across process *and invocation* boundaries).
* **Job results** — finished :class:`~repro.experiments.executor.JobResult`
  records keyed by the plan's scope signature
  (:func:`~repro.experiments.executor.plan_signature`) and a per-job content
  key (:func:`~repro.experiments.executor.job_checkpoint_key`), written
  incrementally by the streaming executors so an interrupted sweep resumes
  from its checkpoints instead of restarting.

Robustness is eviction-based: a stale schema version, a missing blob, a
truncated or corrupted payload — every failure mode deletes the offending
index entry (and blob, best effort) and reports a miss, so consumers simply
re-solve.  The store never raises on bad persisted state.  Entries written
with schema 1 (``.npz`` payloads) are stale, so they are evicted and
re-solved the same way; their ``*.npz`` files can be deleted.
"""

from repro.store.blobs import BlobCorruptionError, BlobStore
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
from repro.store.store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "BlobStore",
    "BlobCorruptionError",
    "SQLiteIndex",
    "SCHEMA_VERSION",
    "pack_payload",
    "unpack_payload",
    "lp_param_key",
    "encode_fractional",
    "decode_fractional",
    "encode_job_result",
    "decode_job_result",
]
