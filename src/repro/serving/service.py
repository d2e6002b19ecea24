"""The long-lived :class:`SolverService`: warm store, worker pool, micro-batcher.

The service owns a warm :class:`repro.store.ArtifactStore` and (optionally) a
persistent process pool, and answers concurrent configuration requests
through a thread-safe submit/future API:

* ``submit()`` enqueues a :class:`~repro.serving.request.ConfigurationRequest`
  and returns a :class:`~repro.serving.request.ServingTicket` immediately.
* A single daemon **batcher thread** claims pending requests.  It opens a
  bounded wait window (``batch_window`` seconds) on the oldest request and
  co-batches every compatible request — same instance family and LP
  parameters (:func:`~repro.serving.batching.compatibility_key`) — that is
  already queued or arrives within the window, up to ``max_batch_size``.
* Requests whose LP relaxation is already in the store are answered from it
  without touching a solver (``cache_hit=True``, zero LP solves).  The
  remaining requests are deduplicated by instance fingerprint, and each
  distinct instance's LP relaxation is solved on its own, exactly as a solo
  :func:`~repro.core.lp.solve_lp_relaxation` would
  (:func:`~repro.core.lp.solve_lp_relaxations_stacked`) — in-process, or as
  one task on the persistent pool when ``workers >= 1``.  Every fresh
  solution is written to the store under its own instance fingerprint.
* Each request is then decoded independently: a fresh
  :class:`~repro.core.pipeline.SolveContext` is seeded with the request's LP
  solution (:meth:`~repro.core.pipeline.SolveContext.install_lp_solution`)
  and the registered algorithm runs with a generator derived from
  ``derive_seed(request.seed, algorithm)`` — results are a function of the
  request alone, never of arrival order or batch composition.  With
  ``workers >= 1`` and more than one live request, the decode stage is
  fanned out across the same persistent pool (one task per request,
  ``ServeResult.decode_pid`` records where each ran); the per-request
  seeding makes the parallel and serial paths produce identical results.

Cancellation is deterministic: futures are claimed
(``set_running_or_notify_cancel``) only when the batcher starts processing
their batch, so a ``ticket.cancel()`` that lands during the wait window
always wins and the request is never solved.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.pipeline import instance_fingerprint
from repro.core.problem import SVGICInstance
from repro.core.registry import get_algorithm
from repro.experiments.executor import resolve_worker_count
from repro.serving.batching import (
    _decode_in_worker,
    _solve_batch_in_worker,
    compatibility_key,
    solve_fractional_batch,
)
from repro.serving.request import (
    ConfigurationRequest,
    LPParameters,
    ServeResult,
    ServingTicket,
)
from repro.store import ArtifactStore


@dataclass
class _Pending:
    """One queued request: its ticket, compatibility key and arrival time."""

    ticket: ServingTicket
    key: tuple
    submitted_at: float

    @property
    def request(self) -> ConfigurationRequest:
        return self.ticket.request


class SolverService:
    """Thread-safe micro-batching front end over the solver pipeline.

    Parameters
    ----------
    store:
        ``None`` (no persistence — every request solves), a path (an
        :class:`~repro.store.ArtifactStore` is opened there), or an existing
        store instance.  The store index is thread-safe, so the batcher and
        callers may share it.
    workers:
        ``0`` (default) solves batches in the batcher thread; ``>= 1``
        maintains a **persistent** :class:`~concurrent.futures.ProcessPoolExecutor`
        of that many workers (clamped to the CPUs the process may use, with
        a warning, :func:`~repro.experiments.executor.resolve_worker_count`) that
        survives across batches — workers are reused, never respawned per
        request.
    batch_window:
        Seconds the batcher waits, after claiming the oldest pending
        request, for further compatible requests before solving.
    max_batch_size:
        Upper bound on requests per batch; a full batch fires immediately
        without waiting out the window.
    default_algorithm:
        Registered algorithm used when a request does not name one.
    mp_context:
        Optional multiprocessing start method for the worker pool.
    latency_window:
        How many of the most recent end-to-end request latencies
        :meth:`latency_stats` summarizes.
    """

    def __init__(
        self,
        store: Union[None, str, os.PathLike, ArtifactStore] = None,
        *,
        workers: int = 0,
        batch_window: float = 0.01,
        max_batch_size: int = 16,
        default_algorithm: str = "AVG-D",
        mp_context: Optional[str] = None,
        latency_window: int = 4096,
    ) -> None:
        if batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if isinstance(store, (str, os.PathLike)):
            store = ArtifactStore(store)
        self.store = store
        self.workers = 0 if workers == 0 else resolve_worker_count(workers)
        self.batch_window = float(batch_window)
        self.max_batch_size = int(max_batch_size)
        self.default_algorithm = default_algorithm
        self.mp_context = mp_context

        self._queue: Deque[_Pending] = deque()
        self._wakeup = threading.Condition()
        self._closed = False
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._next_request_id = 0
        self._next_batch_id = 0
        self._stats_lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "cancelled": 0,
            "cache_hits": 0,
            "batches": 0,
            "lp_batches": 0,
            "lp_instances_solved": 0,
            "fallback_solves": 0,
        }
        self._latencies: Deque[float] = deque(maxlen=int(latency_window))
        self._batcher = threading.Thread(
            target=self._batch_loop, name="solver-service-batcher", daemon=True
        )
        self._batcher.start()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def submit(
        self,
        instance: SVGICInstance,
        *,
        algorithm: Optional[str] = None,
        seed: int = 0,
        lp_params: Optional[LPParameters] = None,
    ) -> ServingTicket:
        """Enqueue one configuration request; returns its ticket immediately."""
        name = algorithm if algorithm is not None else self.default_algorithm
        get_algorithm(name)  # fail fast in the caller, not the batcher
        request = ConfigurationRequest(
            instance=instance,
            algorithm=name,
            seed=int(seed),
            lp_params=lp_params if lp_params is not None else LPParameters(),
        )
        future: "Future[ServeResult]" = Future()
        with self._wakeup:
            if self._closed:
                raise RuntimeError("SolverService is closed")
            self._next_request_id += 1
            ticket = ServingTicket(self._next_request_id, request, future)
            self._queue.append(
                _Pending(
                    ticket=ticket,
                    key=compatibility_key(instance, request.lp_params),
                    submitted_at=time.perf_counter(),
                )
            )
            self._wakeup.notify_all()
        with self._stats_lock:
            self._counters["submitted"] += 1
        return ticket

    def solve(
        self,
        instance: SVGICInstance,
        *,
        algorithm: Optional[str] = None,
        seed: int = 0,
        lp_params: Optional[LPParameters] = None,
        timeout: Optional[float] = None,
    ) -> ServeResult:
        """Submit one request and block for its result (convenience wrapper)."""
        return self.submit(
            instance, algorithm=algorithm, seed=seed, lp_params=lp_params
        ).result(timeout=timeout)

    def stats(self) -> Dict[str, int]:
        """Snapshot of the service counters (see the class docstring)."""
        with self._stats_lock:
            return dict(self._counters)

    def latency_stats(self) -> Dict[str, float]:
        """p50/p99/mean end-to-end latency over the recent-request window."""
        with self._stats_lock:
            latencies = list(self._latencies)
        if not latencies:
            return {"count": 0, "p50": 0.0, "p99": 0.0, "mean": 0.0}
        arr = np.asarray(latencies, dtype=float)
        return {
            "count": int(arr.size),
            "p50": float(np.percentile(arr, 50)),
            "p99": float(np.percentile(arr, 99)),
            "mean": float(arr.mean()),
        }

    def close(self) -> None:
        """Drain pending requests, stop the batcher and shut the pool down."""
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify_all()
        self._batcher.join()
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Batcher
    # ------------------------------------------------------------------ #
    def _batch_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            try:
                self._process_batch(batch)
            except Exception as exc:  # defensive: never kill the batcher
                for pending in batch:
                    future = pending.ticket._future
                    if not future.done():
                        future.set_exception(exc)

    def _collect_batch(self) -> Optional[List[_Pending]]:
        """Claim the oldest request plus compatible arrivals within the window.

        Returns ``None`` exactly once: when the service is closed and the
        queue has drained.  On close with work still queued, the window is
        skipped so the backlog drains batch by batch without waiting.
        """
        with self._wakeup:
            while not self._queue:
                if self._closed:
                    return None
                self._wakeup.wait(timeout=0.1)
            head = self._queue.popleft()
            batch = [head]
            deadline = time.perf_counter() + self.batch_window
            while len(batch) < self.max_batch_size:
                kept: List[_Pending] = []
                while self._queue and len(batch) < self.max_batch_size:
                    pending = self._queue.popleft()
                    if pending.key == head.key:
                        batch.append(pending)
                    else:
                        kept.append(pending)
                for pending in reversed(kept):
                    self._queue.appendleft(pending)
                remaining = deadline - time.perf_counter()
                if len(batch) >= self.max_batch_size or remaining <= 0 or self._closed:
                    break
                self._wakeup.wait(timeout=remaining)
            return batch

    def _process_batch(self, batch: List[_Pending]) -> None:
        with self._stats_lock:
            self._next_batch_id += 1
            batch_id = self._next_batch_id
            self._counters["batches"] += 1

        # Claim the futures: a cancel() that landed during the wait window
        # wins here, deterministically.
        live: List[_Pending] = []
        cancelled = 0
        for pending in batch:
            if pending.ticket._future.set_running_or_notify_cancel():
                live.append(pending)
            else:
                cancelled += 1
        if cancelled:
            with self._stats_lock:
                self._counters["cancelled"] += cancelled
        if not live:
            return

        started = time.perf_counter()
        lp_params = live[0].request.lp_params
        key = lp_params.cache_key()
        fingerprints = [instance_fingerprint(p.request.instance) for p in live]

        # Warm path: answer from the store without touching a solver.
        solutions: Dict[str, Any] = {}
        store_hits: set = set()
        if self.store is not None:
            for fingerprint in fingerprints:
                if fingerprint in solutions:
                    continue
                stored = self.store.load_lp(fingerprint, key)
                if stored is not None:
                    solutions[fingerprint] = stored
                    store_hits.add(fingerprint)

        # Cold path: dedupe by fingerprint, then one LP solve per distinct instance.
        solve_order: List[str] = []
        to_solve: List[SVGICInstance] = []
        for fingerprint, pending in zip(fingerprints, live):
            if fingerprint not in solutions and fingerprint not in solve_order:
                solve_order.append(fingerprint)
                to_solve.append(pending.request.instance)
        solver_pid = os.getpid()
        if to_solve:
            if self.workers:
                fresh, solver_pid = self._pool_solve(to_solve, lp_params)
            else:
                fresh = solve_fractional_batch(to_solve, lp_params)
            for fingerprint, solution in zip(solve_order, fresh):
                solutions[fingerprint] = solution
                if self.store is not None:
                    self.store.save_lp(fingerprint, key, solution)

        hit_count = sum(1 for fp in fingerprints if fp in store_hits)
        with self._stats_lock:
            self._counters["cache_hits"] += hit_count
            self._counters["lp_instances_solved"] += len(to_solve)
            if to_solve:
                self._counters["lp_batches"] += 1

        # Decode each request on its own seeded context: in the batcher thread,
        # or — with a pool and more than one live request — on the persistent
        # workers, all submitted up front.  Each request is published as soon
        # as its own decode ends; a failed decode fails only its own ticket.
        # Results depend on the request alone (per-request derived seeds), so
        # both paths and any worker interleaving give identical configurations.
        pool = self._ensure_pool() if self.workers and len(live) > 1 else None
        decodes = []
        for fingerprint, pending in zip(fingerprints, live):
            args = (
                pending.request.instance,
                pending.request.algorithm,
                pending.request.seed,
                key,
                solutions[fingerprint],
                "store" if fingerprint in store_hits else "external",
                self.store,
            )
            if pool is not None:
                decodes.append(pool.submit(_decode_in_worker, *args).result)
            else:
                decodes.append(functools.partial(_decode_in_worker, *args))
        for fingerprint, pending, decode in zip(fingerprints, live, decodes):
            try:
                outcome = decode()
            except Exception as exc:
                pending.ticket._future.set_exception(exc)
                continue
            self._finish_decode(
                pending,
                fingerprint,
                fingerprint in store_hits,
                outcome,
                solutions=solutions,
                batch_id=batch_id,
                batch_size=len(live),
                started=started,
                solver_pid=solver_pid,
            )

    def _finish_decode(
        self,
        pending: _Pending,
        fingerprint: str,
        cache_hit: bool,
        outcome: tuple,
        *,
        solutions: Dict[str, Any],
        batch_id: int,
        batch_size: int,
        started: float,
        solver_pid: int,
    ) -> None:
        """Assemble and publish one request's ServeResult from a decode outcome."""
        result, lp_solves, lp_store_hits, decode_seconds, decode_pid = outcome
        request = pending.request
        completed_at = time.perf_counter()
        serve = ServeResult(
            request_id=pending.ticket.request_id,
            algorithm=request.algorithm,
            result=result,
            fingerprint=fingerprint,
            cache_hit=cache_hit,
            batch_id=batch_id,
            batch_size=batch_size,
            queue_seconds=started - pending.submitted_at,
            solve_seconds=0.0 if cache_hit else float(solutions[fingerprint].lp_seconds),
            decode_seconds=decode_seconds,
            total_seconds=completed_at - pending.submitted_at,
            solver_pid=solver_pid if not cache_hit else os.getpid(),
            lp_solves=lp_solves,
            lp_store_hits=lp_store_hits,
            submitted_at=pending.submitted_at,
            completed_at=completed_at,
            decode_pid=decode_pid,
        )
        with self._stats_lock:
            self._counters["completed"] += 1
            self._counters["fallback_solves"] += lp_solves
            self._latencies.append(serve.total_seconds)
        pending.ticket._future.set_result(serve)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                mp_ctx = None
                if self.mp_context is not None:
                    import multiprocessing

                    mp_ctx = multiprocessing.get_context(self.mp_context)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=mp_ctx
                )
            return self._pool

    def _pool_solve(self, instances: Sequence[SVGICInstance], lp_params: LPParameters):
        return self._ensure_pool().submit(
            _solve_batch_in_worker, list(instances), lp_params
        ).result()


__all__ = ["SolverService"]
