"""SQLite index over the blob store: who owns which payload, at which schema.

One ``entries`` table maps ``(namespace, fingerprint, param_key)`` to a blob
digest plus the codec schema version it was written with.  The namespaces in
use are ``"lp"`` (LP relaxation solutions; ``fingerprint`` is the instance
fingerprint and ``param_key`` the canonical LP parameter key) and ``"job"``
(executor job checkpoints; ``fingerprint`` is the plan signature and
``param_key`` the job's content key, whose index lives in the payload).
A ``timings`` table next to it holds observed job wall times.

The connection is configured for concurrent multi-process access — workers
of a :class:`~repro.experiments.scheduler.WorkStealingExecutor` all write to
the same index: ``journal_mode=WAL`` (readers never block the writer),
``synchronous=NORMAL`` and a 30-second ``busy_timeout``.  The connection is
opened lazily and dropped on pickling, so an index object can ride into a
worker process and reconnect there.

The index is also safe to share across *threads* of one process (the
serving layer's batcher thread and callers hit one store concurrently): the
connection is opened with ``check_same_thread=False`` and every operation
holds a process-local re-entrant lock, serializing access to the shared
connection.  The lock, like the connection, does not survive pickling.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS entries (
    namespace      TEXT NOT NULL,
    fingerprint    TEXT NOT NULL,
    param_key      TEXT NOT NULL,
    blob_sha       TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    created_at     TEXT NOT NULL,
    PRIMARY KEY (namespace, fingerprint, param_key)
)
"""

# Observed job wall times, the sweep scheduler's cost-model training data.
# One row per (line-up signature, instance size): repeated observations fold
# into a running mean via the WAL-safe upsert in record_timing(), so the
# table stays bounded no matter how many sweeps run against the store.
_TIMINGS_SQL = """
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


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


class SQLiteIndex:
    """Lazy-connecting, picklable, thread-safe index over store entries."""

    def __init__(self, path: os.PathLike, *, busy_timeout_ms: int = 30_000) -> None:
        self.path = Path(path)
        self.busy_timeout_ms = int(busy_timeout_ms)
        self._conn: Optional[sqlite3.Connection] = None
        self._lock = threading.RLock()

    # -- connection lifecycle ------------------------------------------- #
    @property
    def connection(self) -> sqlite3.Connection:
        with self._lock:
            if self._conn is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(
                    str(self.path),
                    timeout=self.busy_timeout_ms / 1000.0,
                    # Shared across threads; every use holds self._lock.
                    check_same_thread=False,
                )
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
                conn.execute("PRAGMA foreign_keys=ON")
                with conn:
                    conn.execute(_SCHEMA_SQL)
                    conn.execute(_TIMINGS_SQL)
                self._conn = conn
            return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __getstate__(self) -> Dict[str, Any]:
        # Connections and locks cannot cross process boundaries; reconnect lazily.
        return {"path": self.path, "busy_timeout_ms": self.busy_timeout_ms}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.path = state["path"]
        self.busy_timeout_ms = state["busy_timeout_ms"]
        self._conn = None
        self._lock = threading.RLock()

    # -- entry operations ------------------------------------------------ #
    def put(
        self,
        namespace: str,
        fingerprint: str,
        param_key: str,
        blob_sha: str,
        schema_version: int,
    ) -> None:
        """Insert or replace one entry (upsert on the primary key)."""
        with self._lock, self.connection as conn:
            conn.execute(
                "INSERT INTO entries (namespace, fingerprint, param_key, blob_sha,"
                " schema_version, created_at) VALUES (?, ?, ?, ?, ?, ?)"
                " ON CONFLICT (namespace, fingerprint, param_key) DO UPDATE SET"
                " blob_sha=excluded.blob_sha, schema_version=excluded.schema_version,"
                " created_at=excluded.created_at",
                (namespace, fingerprint, param_key, blob_sha, int(schema_version), _utc_now()),
            )

    def get(
        self, namespace: str, fingerprint: str, param_key: str
    ) -> Optional[Tuple[str, int]]:
        """``(blob_sha, schema_version)`` of one entry, or None."""
        with self._lock:
            row = self.connection.execute(
                "SELECT blob_sha, schema_version FROM entries"
                " WHERE namespace = ? AND fingerprint = ? AND param_key = ?",
                (namespace, fingerprint, param_key),
            ).fetchone()
        if row is None:
            return None
        return str(row[0]), int(row[1])

    def delete(self, namespace: str, fingerprint: str, param_key: str) -> None:
        with self._lock, self.connection as conn:
            conn.execute(
                "DELETE FROM entries WHERE namespace = ? AND fingerprint = ?"
                " AND param_key = ?",
                (namespace, fingerprint, param_key),
            )

    def params(self, namespace: str, fingerprint: str) -> List[Tuple[str, str, int]]:
        """All ``(param_key, blob_sha, schema_version)`` rows for one fingerprint."""
        with self._lock:
            rows = self.connection.execute(
                "SELECT param_key, blob_sha, schema_version FROM entries"
                " WHERE namespace = ? AND fingerprint = ? ORDER BY param_key",
                (namespace, fingerprint),
            ).fetchall()
        return [(str(pk), str(sha), int(sv)) for pk, sha, sv in rows]

    def count(self, namespace: Optional[str] = None) -> int:
        """Number of entries (in one namespace, or overall)."""
        with self._lock:
            if namespace is None:
                row = self.connection.execute("SELECT COUNT(*) FROM entries").fetchone()
            else:
                row = self.connection.execute(
                    "SELECT COUNT(*) FROM entries WHERE namespace = ?", (namespace,)
                ).fetchone()
        return int(row[0])

    def clear(self) -> None:
        with self._lock, self.connection as conn:
            conn.execute("DELETE FROM entries")

    # -- observed job timings (cost-model training data) ------------------ #
    def record_timing(
        self,
        signature: str,
        n: int,
        m: int,
        k: int,
        job_seconds: float,
        lp_seconds: float = 0.0,
    ) -> None:
        """Fold one observed job wall time into the timings table.

        The upsert keeps a running mean per ``(signature, n, m, k)`` cell —
        WAL-safe, so :class:`~repro.experiments.scheduler.WorkStealingExecutor`
        workers of several processes can all report into one index.  Negative
        durations (clock skew) are clamped to zero rather than poisoning the
        mean.
        """
        job_seconds = max(0.0, float(job_seconds))
        lp_seconds = max(0.0, float(lp_seconds))
        with self._lock, self.connection as conn:
            conn.execute(
                "INSERT INTO timings (signature, n, m, k, job_seconds, lp_seconds,"
                " samples, updated_at) VALUES (?, ?, ?, ?, ?, ?, 1, ?)"
                " ON CONFLICT (signature, n, m, k) DO UPDATE SET"
                " job_seconds = (timings.job_seconds * timings.samples + excluded.job_seconds)"
                "   / (timings.samples + 1),"
                " lp_seconds = (timings.lp_seconds * timings.samples + excluded.lp_seconds)"
                "   / (timings.samples + 1),"
                " samples = timings.samples + 1,"
                " updated_at = excluded.updated_at",
                (signature, int(n), int(m), int(k), job_seconds, lp_seconds, _utc_now()),
            )

    def timings(
        self, signature: Optional[str] = None
    ) -> List[Tuple[str, int, int, int, float, float, int]]:
        """``(signature, n, m, k, job_seconds, lp_seconds, samples)`` rows.

        With ``signature`` the result is restricted to one line-up; rows are
        ordered by instance size so calibration code can consume them
        directly.
        """
        query = (
            "SELECT signature, n, m, k, job_seconds, lp_seconds, samples"
            " FROM timings"
        )
        params: Tuple[Any, ...] = ()
        if signature is not None:
            query += " WHERE signature = ?"
            params = (signature,)
        query += " ORDER BY signature, n, m, k"
        with self._lock:
            rows = self.connection.execute(query, params).fetchall()
        return [
            (str(sig), int(n), int(m), int(k), float(js), float(ls), int(s))
            for sig, n, m, k, js, ls, s in rows
        ]

    def timing_signatures(self) -> List[str]:
        """Distinct line-up signatures with at least one recorded timing."""
        with self._lock:
            rows = self.connection.execute(
                "SELECT DISTINCT signature FROM timings ORDER BY signature"
            ).fetchall()
        return [str(row[0]) for row in rows]


__all__ = ["SQLiteIndex"]
