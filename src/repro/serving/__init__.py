"""Online serving layer: a long-lived solver service with micro-batched requests.

The experiment layer (:mod:`repro.experiments`) runs *offline* sweeps; this
package serves *online* configuration requests the way a production VR
platform would face them — concurrent, latency-sensitive, heavily repeated:

* :class:`~repro.serving.service.SolverService` — a thread-safe service
  owning a warm :class:`~repro.store.ArtifactStore` and an optional
  persistent worker pool.  Requests whose LP relaxation is already stored
  are answered without touching a solver; the rest are micro-batched —
  compatible requests arriving within a bounded window are claimed
  together, each distinct instance's LP is solved once, on its own
  (:func:`~repro.core.lp.solve_lp_relaxations_stacked`), and every request
  is decoded independently with a per-request derived seed.
* :mod:`~repro.serving.replay` — open-loop (Poisson) and closed-loop
  traffic replay harnesses producing p50/p99 latency and throughput
  reports; ``benchmarks/bench_serving_replay.py`` builds on them.
"""

from repro.serving.batching import compatibility_key, solve_fractional_batch
from repro.serving.replay import (
    ReplayReport,
    replay_closed_loop,
    replay_open_loop,
)
from repro.serving.request import (
    ConfigurationRequest,
    LPParameters,
    ServeResult,
    ServingTicket,
)
from repro.serving.service import SolverService

__all__ = [
    "SolverService",
    "ConfigurationRequest",
    "LPParameters",
    "ServeResult",
    "ServingTicket",
    "ReplayReport",
    "replay_closed_loop",
    "replay_open_loop",
    "compatibility_key",
    "solve_fractional_batch",
]
