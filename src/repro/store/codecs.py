"""Codecs between library objects and the store's blob payloads.

Every blob is one self-describing byte string::

    magic (4 bytes) | header length (4 bytes, little-endian) | header | body

The header is UTF-8 JSON, ``{"meta": ..., "arrays": [[name, dtype.str,
shape], ...]}``: ``meta`` is the scalar part of the object and ``arrays``
lists the payload's arrays in order.  The body is one zlib stream (level 1)
over the arrays' C-order bytes, back to back in header order.  Floats
survive the JSON leg exactly (``json`` serializes via ``repr``, which
round-trips IEEE doubles, and writes NaN/inf as ``NaN``/``Infinity``) and
arrays travel as raw bytes, so a decoded object is value-identical to the
encoded one.  Decoding is one header parse and one ``zlib`` pass; the
arrays come back as writeable views into one ``bytearray``.

``SCHEMA_VERSION`` stamps every index entry; bumping it (because a codec
here changed shape) makes every previously written entry *stale* — the store
evicts stale entries on read and the caller re-solves, so old stores never
need migration and never crash a new library version.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from typing import Any, Dict, Tuple

import numpy as np

from repro.core.lp import FractionalSolution
from repro.experiments.executor import JobResult
from repro.experiments.harness import _jsonify
from repro.metrics.evaluation import EvaluationReport

#: Version of the blob payload layout; bump on any codec shape change.
SCHEMA_VERSION = 2

ArrayDict = Dict[str, np.ndarray]

_MAGIC = b"RPB\x02"
#: The magic and the header's byte length.
_PREFIX = struct.Struct("<4sI")


# --------------------------------------------------------------------------- #
# Payload packing
# --------------------------------------------------------------------------- #
def pack_payload(meta: Dict[str, Any], arrays: ArrayDict) -> bytes:
    """Serialize ``(meta, arrays)`` into one payload byte string.

    Raises ``ValueError`` for an array whose dtype holds objects or is not
    named exactly by its ``dtype.str`` (structured dtypes), since those
    would not come back as they went in.
    """
    specs = []
    compressor = zlib.compressobj(1)
    body = []
    for name, value in arrays.items():
        array = np.asarray(value, order="C")
        if array.dtype.hasobject or np.dtype(array.dtype.str) != array.dtype:
            raise ValueError(f"array {name!r} has dtype {array.dtype}, which payloads cannot hold")
        specs.append([name, array.dtype.str, list(array.shape)])
        body.append(compressor.compress(array.reshape(-1).view(np.uint8)))
    body.append(compressor.flush())
    header = json.dumps({"meta": meta, "arrays": specs}).encode("utf-8")
    return b"".join([_PREFIX.pack(_MAGIC, len(header)), header, *body])


def unpack_payload(data: bytes) -> Tuple[Dict[str, Any], ArrayDict]:
    """Inverse of :func:`pack_payload`; raises ``ValueError`` on malformed payloads.

    Checks the magic, that the header fits in ``data``, that no dtype holds
    objects, that every dimension is a non-negative integer and that the
    body decompresses to exactly the bytes the header's arrays need.
    """
    view = memoryview(data)
    if len(view) < _PREFIX.size:
        raise ValueError(f"payload of {len(view)} bytes is shorter than its prefix")
    magic, header_length = _PREFIX.unpack_from(view)
    if magic != _MAGIC:
        raise ValueError(f"payload magic {bytes(magic)!r} is not {_MAGIC!r}")
    body_start = _PREFIX.size + header_length
    if body_start > len(view):
        raise ValueError(
            f"header of {header_length} bytes runs past the {len(view)}-byte payload"
        )
    header = json.loads(bytes(view[_PREFIX.size:body_start]).decode("utf-8"))
    if not (
        isinstance(header, dict)
        and header.keys() == {"meta", "arrays"}
        and isinstance(header["arrays"], list)
    ):
        raise ValueError("payload header is not a {meta, arrays} object")
    layout = []
    total = 0
    for spec in header["arrays"]:
        if not (
            isinstance(spec, list)
            and len(spec) == 3
            and isinstance(spec[0], str)
            and isinstance(spec[1], str)
        ):
            raise ValueError(f"malformed array entry {spec!r}")
        name, dtype_str, shape = spec
        dtype = np.dtype(dtype_str)
        if dtype.hasobject:
            raise ValueError(f"array {name!r} has object dtype {dtype}")
        if not isinstance(shape, list) or not all(
            type(dim) is int and dim >= 0 for dim in shape
        ):
            raise ValueError(f"array {name!r} has shape {shape!r}")
        count = math.prod(shape)
        layout.append((name, dtype, shape, total, count))
        total += count * dtype.itemsize
    decompressor = zlib.decompressobj()
    raw = decompressor.decompress(view[body_start:], total + 1)
    if len(raw) != total or not decompressor.eof or decompressor.unused_data:
        raise ValueError(f"payload body does not hold the header's {total} bytes")
    buffer = bytearray(raw)
    arrays = {
        name: np.frombuffer(buffer, dtype=dtype, count=count, offset=offset).reshape(shape)
        for name, dtype, shape, offset, count in layout
    }
    return header["meta"], arrays


# --------------------------------------------------------------------------- #
# LP relaxation solutions
# --------------------------------------------------------------------------- #
def lp_param_key(key: Tuple[Any, ...]) -> str:
    """Canonical string form of a :meth:`SolveContext.fractional` cache key.

    The key tuple is ``(formulation, prune_items, max_candidate_items,
    enforce_size_constraint)`` — JSON over those primitives is stable and
    order-preserving, so equal parameters always map to equal index rows.
    """
    return json.dumps(list(key))


def encode_fractional(solution: FractionalSolution) -> Tuple[Dict[str, Any], ArrayDict]:
    """``(meta, arrays)`` of an LP solution.

    The ``(n, m, k)`` slot factors are stored only for ``"full"`` solutions:
    for the LP_SIMP forms they are ``compact / k`` in every slot, which
    :func:`decode_fractional` rebuilds from ``compact`` and ``num_slots``.
    """
    meta = {
        "kind": "fractional-solution",
        "objective": float(solution.objective),
        "lp_seconds": float(solution.lp_seconds),
        "formulation": str(solution.formulation),
        "num_slots": solution.num_slots,
    }
    arrays = {
        "compact_factors": solution.compact_factors,
        "candidate_item_ids": solution.candidate_item_ids,
    }
    if not solution.slot_independent:
        arrays["slot_factors"] = solution.slot_factors
    return meta, arrays


def decode_fractional(meta: Dict[str, Any], arrays: ArrayDict) -> FractionalSolution:
    compact = arrays["compact_factors"]
    slot = arrays.get("slot_factors")
    if slot is None:
        # The read-only view solve_lp_relaxation returns for LP_SIMP, so a
        # store hit's factors equal a fresh solve's bit for bit.
        num_slots = int(meta["num_slots"])
        slot = np.broadcast_to(
            (compact / num_slots)[:, :, None], compact.shape + (num_slots,)
        )
    return FractionalSolution(
        compact_factors=compact,
        slot_factors=slot,
        objective=float(meta["objective"]),
        lp_seconds=float(meta["lp_seconds"]),
        formulation=str(meta["formulation"]),
        candidate_item_ids=arrays["candidate_item_ids"],
    )


# --------------------------------------------------------------------------- #
# Job results (executor checkpoints)
# --------------------------------------------------------------------------- #
def encode_job_result(result: JobResult) -> Tuple[Dict[str, Any], ArrayDict]:
    reports = []
    arrays: ArrayDict = {}
    for position, (name, report) in enumerate(result.reports.items()):
        reports.append(
            {
                "name": name,
                "algorithm": report.algorithm,
                "total_utility": float(report.total_utility),
                "preference_utility": float(report.preference_utility),
                "social_utility": float(report.social_utility),
                "personal_share": float(report.personal_share),
                "social_share": float(report.social_share),
                "seconds": float(report.seconds),
                "mean_regret": float(report.mean_regret),
                "subgroup": _jsonify(report.subgroup),
                "feasible": bool(report.feasible),
                "excess_users": int(report.excess_users),
                "info": _jsonify(report.info),
            }
        )
        arrays[f"regrets::{position}"] = np.asarray(report.regrets, dtype=float)
    meta = {
        "kind": "job-result",
        "job_index": int(result.job_index),
        "provenance": _jsonify(result.provenance),
        "reports": reports,
    }
    return meta, arrays


def decode_job_result(meta: Dict[str, Any], arrays: ArrayDict) -> JobResult:
    reports: Dict[str, EvaluationReport] = {}
    for position, record in enumerate(meta["reports"]):
        reports[str(record["name"])] = EvaluationReport(
            algorithm=str(record["algorithm"]),
            total_utility=record["total_utility"],
            preference_utility=record["preference_utility"],
            social_utility=record["social_utility"],
            personal_share=record["personal_share"],
            social_share=record["social_share"],
            seconds=record["seconds"],
            mean_regret=record["mean_regret"],
            subgroup=dict(record["subgroup"]),
            regrets=arrays[f"regrets::{position}"],
            feasible=bool(record["feasible"]),
            excess_users=int(record["excess_users"]),
            info=dict(record["info"]),
        )
    return JobResult(
        job_index=int(meta["job_index"]),
        reports=reports,
        provenance=dict(meta["provenance"]),
    )


__all__ = [
    "SCHEMA_VERSION",
    "pack_payload",
    "unpack_payload",
    "lp_param_key",
    "encode_fractional",
    "decode_fractional",
    "encode_job_result",
    "decode_job_result",
]
