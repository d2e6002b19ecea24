"""Serving-replay benchmark: micro-batched latency/throughput vs serial.

The repo's first latency-oriented benchmark.  It drives the
:class:`repro.serving.SolverService` with replayed traffic
(:mod:`repro.serving.replay`) and reports p50/p99 latency plus throughput
for three regimes, gating the acceptance properties of the serving layer:

* **Serial baseline** — closed-loop replay against a service with
  ``max_batch_size=1`` (every request is its own LP solve).
* **Micro-batched** — the same traffic against a service whose batch window
  claims compatible requests together (each distinct instance's LP is still
  its own solve).  Objectives must match the serial run's (same requests,
  same seeds), multi-request batches must actually form, and on hosts with
  >= 2 CPU cores the batched throughput must reach **1.3x** the serial
  baseline.
* **Warm replay** — the same traffic once more against the now-warm store:
  every request must be a cache hit performing **zero** LP solves (the
  service's solve counter must not move).

An open-loop (Poisson-arrival) replay against the warm service closes the
run with the latency profile a production arrival process would see.

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_serving_replay.py [--quick]

``--quick`` shrinks the workload; it is the mode the CI smoke job runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import List, Optional

try:
    from benchmarks._reporting import emit_bench_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from _reporting import emit_bench_json

from repro.data import datasets
from repro.serving import SolverService, replay_closed_loop, replay_open_loop


def build_requests(count: int, num_users: int, num_items: int) -> List[dict]:
    """``count`` distinct instances (distinct fingerprints), one request each."""
    return [
        {
            "instance": datasets.make_instance(
                "timik",
                num_users=num_users,
                num_items=num_items,
                num_slots=3,
                seed=1000 + index,
            ),
            "algorithm": "AVG-D",
            "seed": index,
        }
        for index in range(count)
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: a smaller request set",
    )
    parser.add_argument(
        "--clients", type=int, default=4,
        help="closed-loop client threads (default 4)",
    )
    parser.add_argument(
        "--window-ms", type=float, default=20.0,
        help="micro-batch wait window in milliseconds (default 20)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        count, num_users, num_items = 8, 10, 20
    else:
        count, num_users, num_items = 24, 14, 30
    requests = build_requests(count, num_users, num_items)
    cores = os.cpu_count() or 1
    print(
        f"Replaying {count} distinct requests (n={num_users}, m={num_items}, k=3) "
        f"with {args.clients} clients on a {cores}-core host"
    )

    failures: List[str] = []

    # --- Serial baseline: every request is its own LP solve. -------------- #
    with SolverService(
        tempfile.mkdtemp(prefix="repro-serve-serial-"),
        max_batch_size=1,
        batch_window=0.0,
    ) as serial_service:
        serial = replay_closed_loop(serial_service, requests, clients=args.clients)
        serial_stats = serial_service.stats()
    print(f"\nSerial   {serial.summary()}")
    print(f"         lp_batches={serial_stats['lp_batches']}, "
          f"lp_instances_solved={serial_stats['lp_instances_solved']}")

    # --- Micro-batched: compatible requests share one batch cycle. -------- #
    batched_service = SolverService(
        tempfile.mkdtemp(prefix="repro-serve-batched-"),
        max_batch_size=args.clients,
        batch_window=args.window_ms / 1000.0,
    )
    batched = replay_closed_loop(batched_service, requests, clients=args.clients)
    batched_stats = batched_service.stats()
    max_batch = max(result.batch_size for result in batched.results)
    print(f"Batched  {batched.summary()}")
    print(f"         lp_batches={batched_stats['lp_batches']}, "
          f"lp_instances_solved={batched_stats['lp_instances_solved']}, "
          f"largest batch={max_batch}")

    if args.clients >= 2 and max_batch < 2:
        failures.append(
            f"micro-batching never co-solved requests (largest batch {max_batch})"
        )
    for serial_result, batched_result in zip(serial.results, batched.results):
        if abs(serial_result.objective - batched_result.objective) > 1e-6:
            failures.append(
                f"objective diverged between serial and batched serving: "
                f"{serial_result.objective} vs {batched_result.objective}"
            )
            break
    if cores >= 2:
        floor = 1.3 * serial.requests_per_second
        if batched.requests_per_second < floor:
            failures.append(
                f"batched throughput {batched.requests_per_second:.1f} req/s is "
                f"below 1.3x the serial baseline ({floor:.1f} req/s) on a "
                f"{cores}-core host"
            )
    else:
        print("         (1-core host: the 1.3x throughput gate is skipped)")

    # --- Warm replay: every request answered from the store, zero solves. -- #
    solved_before = batched_service.stats()["lp_instances_solved"]
    warm = replay_closed_loop(batched_service, requests, clients=args.clients)
    warm_stats = batched_service.stats()
    print(f"Warm     {warm.summary()}")
    misses = [r for r in warm.results if not r.cache_hit]
    solver_touches = sum(r.lp_solves for r in warm.results)
    if misses:
        failures.append(
            f"{len(misses)} warm request(s) missed the cache "
            f"(first: request {misses[0].request_id})"
        )
    if solver_touches:
        failures.append(
            f"warm requests performed {solver_touches} LP solve(s); expected zero"
        )
    if warm_stats["lp_instances_solved"] != solved_before:
        failures.append(
            "the service's solve counter moved during the warm replay "
            f"({solved_before} -> {warm_stats['lp_instances_solved']})"
        )

    # --- Open-loop (Poisson) replay on the warm service. ------------------- #
    rate = max(4.0, 2.0 * warm.requests_per_second)
    open_loop = replay_open_loop(batched_service, requests, rate_rps=rate, seed=7)
    print(f"Open     {open_loop.summary()}  (rate {rate:.1f} req/s, warm store)")
    batched_service.close()

    emit_bench_json(
        "serving_replay",
        {
            "requests": count,
            "clients": args.clients,
            "cores": cores,
            "serial_rps": serial.requests_per_second,
            "batched_rps": batched.requests_per_second,
            "throughput_speedup": batched.requests_per_second / serial.requests_per_second
            if serial.requests_per_second
            else None,
            "warm_rps": warm.requests_per_second,
            "largest_batch": max_batch,
            "throughput_asserted": cores >= 2,
        },
        failures=len(failures),
    )

    if failures:
        print("\nFAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "\nOK: batched serving matched serial objectives, warm replay touched "
        "no solver, open-loop profile reported"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
