"""Traffic replay over a :class:`~repro.serving.service.SolverService`.

Two arrival processes drive latency measurement:

* :func:`replay_closed_loop` — ``clients`` threads each keep exactly one
  request in flight (submit, block, repeat).  Latency is the client-side
  wall time per request; throughput is requests finished over the run.
* :func:`replay_open_loop` — requests arrive on a Poisson process at
  ``rate_rps``; latency is measured against the **scheduled** arrival time,
  so backlog (queueing delay) shows up in the tail — the standard
  open-loop correction that closed-loop replays hide.

Both return a :class:`ReplayReport` carrying every
:class:`~repro.serving.request.ServeResult`, the latency vector and the
p50/p99/throughput summary the benchmark prints and gates on.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

import numpy as np

from repro.serving.request import ServeResult
from repro.serving.service import SolverService
from repro.utils.rng import SeedLike, ensure_rng

#: One replay request: keyword arguments for :meth:`SolverService.submit`
#: (``instance`` required; ``algorithm`` / ``seed`` / ``lp_params`` optional).
ReplayRequest = Mapping[str, Any]


@dataclass
class ReplayReport:
    """Latencies and results of one replay run."""

    mode: str
    latencies: List[float]
    results: List[ServeResult]
    total_seconds: float
    parameters: Dict[str, Any] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.latencies)

    @property
    def p50(self) -> float:
        return float(np.percentile(self.latencies, 50)) if self.latencies else 0.0

    @property
    def p99(self) -> float:
        return float(np.percentile(self.latencies, 99)) if self.latencies else 0.0

    @property
    def mean(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else 0.0

    @property
    def requests_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.count / self.total_seconds

    def summary(self) -> str:
        return (
            f"{self.mode}: {self.count} request(s) in {self.total_seconds:.3f}s — "
            f"{self.requests_per_second:.1f} req/s, "
            f"p50 {self.p50 * 1e3:.1f} ms, p99 {self.p99 * 1e3:.1f} ms"
        )


def replay_closed_loop(
    service: SolverService,
    requests: Sequence[ReplayRequest],
    *,
    clients: int = 4,
) -> ReplayReport:
    """Drive ``requests`` through ``service`` with a fixed number of clients.

    Each client thread repeatedly takes the next unclaimed request, submits
    it and blocks on the result — the classic closed-loop load generator
    whose concurrency equals ``clients``.  Requests are claimed in order, so
    the submission sequence is deterministic up to thread scheduling.  A
    client whose request fails stops; once every client has stopped, the
    first such error is raised.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    requests = list(requests)
    results: List[Any] = [None] * len(requests)
    latencies: List[float] = [0.0] * len(requests)
    cursor = {"next": 0}
    claim_lock = threading.Lock()
    errors: List[Exception] = []

    def worker() -> None:
        while True:
            with claim_lock:
                index = cursor["next"]
                if index >= len(requests):
                    return
                cursor["next"] = index + 1
            begun = time.perf_counter()
            try:
                results[index] = service.submit(**requests[index]).result()
            except Exception as exc:
                with claim_lock:
                    errors.append(exc)
                return
            latencies[index] = time.perf_counter() - begun

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, name=f"replay-client-{i}", daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    total = time.perf_counter() - started
    return ReplayReport(
        mode="closed-loop",
        latencies=latencies,
        results=results,
        total_seconds=total,
        parameters={"clients": clients},
    )


def replay_open_loop(
    service: SolverService,
    requests: Sequence[ReplayRequest],
    *,
    rate_rps: float,
    seed: SeedLike = 0,
) -> ReplayReport:
    """Drive ``requests`` through ``service`` on a Poisson arrival process.

    Inter-arrival gaps are exponential with mean ``1 / rate_rps`` (seeded,
    so a replay is reproducible).  Submission never waits for earlier
    results, and each latency is measured from the request's *scheduled*
    arrival to its completion — a service that falls behind accumulates
    backlog that inflates the tail, exactly as it would in production.
    """
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    requests = list(requests)
    rng = ensure_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=len(requests)))

    started = time.perf_counter()
    tickets = []
    for request, arrival in zip(requests, arrivals):
        delay = arrival - (time.perf_counter() - started)
        if delay > 0:
            time.sleep(delay)
        tickets.append(service.submit(**request))
    results = [ticket.result() for ticket in tickets]
    # ServeResult timestamps share the perf_counter clock, so scheduled
    # arrival and completion subtract cleanly.
    latencies = [
        float(result.completed_at - (started + arrival))
        for result, arrival in zip(results, arrivals)
    ]
    total = max(result.completed_at for result in results) - started if results else 0.0
    return ReplayReport(
        mode="open-loop",
        latencies=latencies,
        results=results,
        total_seconds=total,
        parameters={"rate_rps": rate_rps, "seed": seed},
    )


__all__ = ["ReplayReport", "ReplayRequest", "replay_closed_loop", "replay_open_loop"]
