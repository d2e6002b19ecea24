"""Request, ticket and result records of the serving layer.

A caller hands the :class:`~repro.serving.service.SolverService` one
:class:`ConfigurationRequest` — the instance to configure, the registered
algorithm to run, a seed, and the LP relaxation parameters — and receives a
:class:`ServingTicket`, a thin wrapper over a
:class:`concurrent.futures.Future` that resolves to a :class:`ServeResult`.
The result couples the algorithm's configuration with serving provenance:
whether the request was answered from the warm store, which micro-batch it
rode in, the queue/solve/decode latency split, and the LP counters of its
:class:`~repro.core.pipeline.SolveContext`.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.core.pipeline import lp_cache_key
from repro.core.problem import SVGICInstance
from repro.core.result import AlgorithmResult


@dataclass(frozen=True)
class LPParameters:
    """The LP relaxation parameters a request solves under.

    Mirrors the keyword surface of
    :meth:`repro.core.pipeline.SolveContext.fractional`; requests sharing an
    equal ``LPParameters`` (and a compatible instance family) may be
    co-batched, and every LP solved for the batch uses these parameters.
    """

    formulation: str = "simplified"
    prune_items: bool = True
    max_candidate_items: Optional[int] = None
    enforce_size_constraint: bool = True

    def cache_key(self) -> Tuple[Any, ...]:
        """The canonical context/store cache key these parameters map to."""
        return lp_cache_key(
            formulation=self.formulation,
            prune_items=self.prune_items,
            max_candidate_items=self.max_candidate_items,
            enforce_size_constraint=self.enforce_size_constraint,
        )


@dataclass(frozen=True)
class ConfigurationRequest:
    """One configuration request: instance, algorithm, seed, LP parameters.

    ``seed`` feeds the per-request generator
    (``derive_seed(seed, algorithm)``), so a request's result is a function
    of the request alone — never of arrival order or batch composition.
    """

    instance: SVGICInstance
    algorithm: str = "AVG-D"
    seed: int = 0
    lp_params: LPParameters = field(default_factory=LPParameters)


@dataclass
class ServeResult:
    """An answered request: the algorithm result plus serving provenance.

    ``cache_hit`` means the LP relaxation came off the warm store and no
    solver ran for this request; ``batch_id`` / ``batch_size`` identify the
    micro-batch cycle that processed it (co-batched requests share an id).
    ``solve_seconds`` is the time of the LP solve that answered the
    request's instance (zero on cache hits; co-batched duplicates of one
    instance report the same solve); ``lp_solves`` is the solver
    invocations its decode context performed — zero unless the algorithm
    requested LP parameters other than the request's (the fallback path).
    ``decode_pid`` is the process that ran the decode stage: the service
    process for serial decodes, a pool worker when the service fanned the
    batch's decodes out to its persistent pool.
    """

    request_id: int
    algorithm: str
    result: AlgorithmResult
    fingerprint: str
    cache_hit: bool
    batch_id: int
    batch_size: int
    queue_seconds: float
    solve_seconds: float
    decode_seconds: float
    total_seconds: float
    solver_pid: int
    lp_solves: int
    lp_store_hits: int
    submitted_at: float
    completed_at: float
    decode_pid: int = 0

    @property
    def objective(self) -> float:
        """The configuration's scaled objective value (convenience accessor)."""
        return float(self.result.objective)


class ServingTicket:
    """Caller-side handle on one submitted request.

    Wraps the service's :class:`~concurrent.futures.Future`: ``result()``
    blocks for the :class:`ServeResult`, ``cancel()`` withdraws a request
    the batcher has not yet claimed (claimed requests are past the point of
    no return and run to completion).
    """

    def __init__(self, request_id: int, request: ConfigurationRequest, future: "Future[ServeResult]") -> None:
        self.request_id = request_id
        self.request = request
        self._future = future

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        """Block until the request is answered (or ``timeout`` expires)."""
        return self._future.result(timeout=timeout)

    def cancel(self) -> bool:
        """Try to withdraw the request; True if it will never be processed."""
        return self._future.cancel()

    def cancelled(self) -> bool:
        return self._future.cancelled()

    def done(self) -> bool:
        return self._future.done()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._future.done() else "pending"
        return f"ServingTicket(id={self.request_id}, {state})"


__all__ = [
    "LPParameters",
    "ConfigurationRequest",
    "ServeResult",
    "ServingTicket",
]
