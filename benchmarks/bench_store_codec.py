"""Store codec benchmark: one JSON header plus zlib'd raw arrays against ``.npz``.

Every :class:`~repro.store.ArtifactStore` blob is one
:func:`repro.store.codecs.pack_payload` byte string: a magic, a JSON header
naming each array's dtype and shape, and one zlib stream over the arrays'
raw bytes.  The baseline, kept only in this script, is the compressed
NumPy archive the store wrote before (schema 1): ``np.savez_compressed`` of
the same meta and arrays, read back with ``np.load``.

Cases (Timik, the LP_SIMP solution of ``solve_lp_relaxation``'s defaults,
encoded by :func:`repro.store.codecs.encode_fractional`):

* the perfbench serve-mixed shape, n=14, m=30, k=3, seed 0;
* n=300, m=150, k=5, seed 0.

Each case reports the pack and unpack times of both codecs, both payload
sizes (and the size of the schema-1 payload, which also stored the
``(n, m, k)`` slot factors), and the time of one ``ArtifactStore.load_lp``
hit: the index lookup, the blob read, its SHA-256 check and the decode.

Gates:

* **exact** — unpacking returns the packed meta and the arrays' values,
  dtypes and shapes, and a ``load_lp`` hit returns the fresh solve's
  objective, compact factors and candidate ids, with slot factors equal to
  the solve's read-only LP_SIMP view;
* **speed-up** — at serve-mixed's shape, unpacking is at least 4x faster
  than ``np.load`` of the same arrays.

Times are the best of several alternating rounds of a loop of calls
(``--quick``: fewer rounds).

Run as a script (not collected by pytest — benchmarks use the ``bench_``
prefix on purpose)::

    PYTHONPATH=src python benchmarks/bench_store_codec.py [--quick]
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

try:
    from benchmarks._reporting import emit_bench_json
except ImportError:  # executed as a script: benchmarks/ is sys.path[0]
    from _reporting import emit_bench_json

from repro.core.lp import solve_lp_relaxation
from repro.data import datasets
from repro.store import ArtifactStore, encode_fractional, pack_payload, unpack_payload

#: (n, m, k, seed, calls per timed loop) per case.
CASES = [(14, 30, 3, 0, 200), (300, 150, 5, 0, 10)]
#: The shape whose decode speed-up is gated, and the gate.
GATED_SHAPE = (14, 30, 3)
MIN_DECODE_SPEEDUP = 4.0
LP_KEY = ("simplified", True, None, True)


def npz_pack(meta: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> bytes:
    """The schema-1 payload: a compressed ``.npz`` with the meta as ``__meta__``."""
    buffer = io.BytesIO()
    encoded = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(
        buffer,
        **{"__meta__": encoded, **{k: np.ascontiguousarray(v) for k, v in arrays.items()}},
    )
    return buffer.getvalue()


def npz_unpack(data: bytes) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        meta = json.loads(bytes(archive["__meta__"].tobytes()).decode("utf-8"))
        arrays = {name: archive[name] for name in archive.files if name != "__meta__"}
    return meta, arrays


def _best_times(legs: Dict[str, Callable[[], Any]], calls: int, rounds: int) -> Dict[str, float]:
    """Best per-call seconds of each leg over ``rounds`` alternating loops of ``calls``."""
    best = {name: float("inf") for name in legs}
    for _ in range(rounds):
        for name, leg in legs.items():
            began = time.perf_counter()
            for _ in range(calls):
                leg()
            best[name] = min(best[name], (time.perf_counter() - began) / calls)
    return best


def _same_arrays(ours: Dict[str, np.ndarray], theirs: Dict[str, np.ndarray]) -> bool:
    return list(ours) == list(theirs) and all(
        ours[name].dtype == theirs[name].dtype
        and ours[name].shape == theirs[name].shape
        and np.array_equal(ours[name], theirs[name])
        for name in theirs
    )


def _same_solution(hit, solved) -> bool:
    """A store hit equals the fresh solve, LP_SIMP's read-only slot view included."""
    fields = ("compact_factors", "candidate_item_ids", "slot_factors")
    return (
        hit.objective == solved.objective
        and hit.formulation == solved.formulation
        and _same_arrays(
            {name: getattr(hit, name) for name in fields},
            {name: getattr(solved, name) for name in fields},
        )
        and not hit.slot_factors.flags.writeable
        and not solved.slot_factors.flags.writeable
    )


def run_case(n: int, m: int, k: int, seed: int, calls: int, rounds: int) -> Dict[str, Any]:
    instance = datasets.make_instance("timik", num_users=n, num_items=m, num_slots=k, seed=seed)
    solved = solve_lp_relaxation(instance)
    meta, arrays = encode_fractional(solved)
    payload, baseline = pack_payload(meta, arrays), npz_pack(meta, arrays)
    schema1 = npz_pack(meta, {**arrays, "slot_factors": solved.slot_factors})

    exact = all(
        out_meta == meta and _same_arrays(out_arrays, arrays)
        for out_meta, out_arrays in (unpack_payload(payload), npz_unpack(baseline))
    )
    with tempfile.TemporaryDirectory(prefix="bench-store-codec-") as root:
        store = ArtifactStore(root)
        store.save_lp("bench", LP_KEY, solved)
        exact = exact and _same_solution(store.load_lp("bench", LP_KEY), solved)
        seconds = _best_times(
            {
                "pack": lambda: pack_payload(meta, arrays),
                "npz_pack": lambda: npz_pack(meta, arrays),
                "unpack": lambda: unpack_payload(payload),
                "npz_unpack": lambda: npz_unpack(baseline),
                "hit": lambda: store.load_lp("bench", LP_KEY),
            },
            calls,
            rounds,
        )
        store.close()
    return {
        "n": n,
        "m": m,
        "k": k,
        "seed": seed,
        "exact": exact,
        "pack_seconds": seconds["pack"],
        "npz_pack_seconds": seconds["npz_pack"],
        "unpack_seconds": seconds["unpack"],
        "npz_unpack_seconds": seconds["npz_unpack"],
        "decode_speedup": seconds["npz_unpack"] / seconds["unpack"],
        "load_lp_hit_seconds": seconds["hit"],
        "payload_bytes": len(payload),
        "npz_bytes": len(baseline),
        "schema1_bytes": len(schema1),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: fewer timing rounds"
    )
    args = parser.parse_args(argv)
    bench_started = time.perf_counter()
    rounds = 5 if args.quick else 15

    header = (
        f"{'n':>4} {'m':>4} {'k':>2} {'pack us':>8} {'npz pack':>9} {'unpack us':>9} "
        f"{'npz unpack':>10} {'speedup':>8} {'hit us':>7} {'bytes':>7} {'npz':>7} "
        f"{'schema 1':>8} {'exact':>5}"
    )
    print("Store payloads: JSON header + zlib'd raw arrays vs np.savez_compressed/np.load")
    print(header)
    print("-" * len(header))
    failures = 0
    rows = []
    for n, m, k, seed, calls in CASES:
        row = run_case(n, m, k, seed, calls, rounds)
        rows.append(row)
        print(
            f"{n:>4} {m:>4} {k:>2} {row['pack_seconds'] * 1e6:>8.1f} "
            f"{row['npz_pack_seconds'] * 1e6:>9.1f} {row['unpack_seconds'] * 1e6:>9.1f} "
            f"{row['npz_unpack_seconds'] * 1e6:>10.1f} {row['decode_speedup']:>7.1f}x "
            f"{row['load_lp_hit_seconds'] * 1e6:>7.1f} {row['payload_bytes']:>7} "
            f"{row['npz_bytes']:>7} {row['schema1_bytes']:>8} {'yes' if row['exact'] else 'NO':>5}"
        )
        if not row["exact"]:
            print("FAIL: a round trip or a store hit differs from what was stored")
            failures += 1
        if (n, m, k) == GATED_SHAPE and row["decode_speedup"] < MIN_DECODE_SPEEDUP:
            print(
                f"FAIL: decode speed-up {row['decode_speedup']:.1f}x is below "
                f"{MIN_DECODE_SPEEDUP:.0f}x"
            )
            failures += 1

    emit_bench_json(
        "store_codec",
        {
            "wall_seconds": time.perf_counter() - bench_started,
            "mode": "quick" if args.quick else "full",
            "min_decode_speedup": {
                f"n={GATED_SHAPE[0]},m={GATED_SHAPE[1]},k={GATED_SHAPE[2]}": MIN_DECODE_SPEEDUP
            },
            "cases": rows,
        },
        failures=failures,
    )

    print()
    if failures:
        print(f"{failures} acceptance check(s) failed.")
        return 1
    print(
        "All checks passed: payloads and store hits round-trip exactly, and the "
        f"serve-mixed decode is at least {MIN_DECODE_SPEEDUP:.0f}x np.load's."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
