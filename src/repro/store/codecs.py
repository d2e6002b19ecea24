"""Codecs between library objects and the store's ``.npz`` blob payloads.

Every blob is one compressed NumPy archive holding the payload's arrays plus
a ``__meta__`` entry — the JSON-encoded scalar part of the object, stored as
a ``uint8`` byte array so the whole payload stays a single self-contained
``.npz`` file.  Floats survive the JSON leg exactly (``json`` serializes via
``repr``, which round-trips IEEE doubles), and arrays travel natively, so a
decoded object is value-identical to the encoded one.

``SCHEMA_VERSION`` stamps every index entry; bumping it (because a codec
here changed shape) makes every previously written entry *stale* — the store
evicts stale entries on read and the caller re-solves, so old stores never
need migration and never crash a new library version.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, Tuple

import numpy as np

from repro.core.lp import FractionalSolution
from repro.experiments.executor import JobResult
from repro.experiments.harness import _jsonify
from repro.metrics.evaluation import EvaluationReport

#: Version of the blob payload layout; bump on any codec shape change.
SCHEMA_VERSION = 1

ArrayDict = Dict[str, np.ndarray]


# --------------------------------------------------------------------------- #
# Payload packing
# --------------------------------------------------------------------------- #
def pack_payload(meta: Dict[str, Any], arrays: ArrayDict) -> bytes:
    """Serialize ``(meta, arrays)`` into one compressed ``.npz`` byte string."""
    encoded = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        **{"__meta__": encoded, **{k: np.ascontiguousarray(v) for k, v in arrays.items()}},
    )
    return buffer.getvalue()


def unpack_payload(data: bytes) -> Tuple[Dict[str, Any], ArrayDict]:
    """Inverse of :func:`pack_payload`; raises on malformed payloads."""
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        meta = json.loads(bytes(archive["__meta__"].tobytes()).decode("utf-8"))
        arrays = {name: archive[name] for name in archive.files if name != "__meta__"}
    return meta, arrays


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
    meta = {
        "kind": "fractional-solution",
        "objective": float(solution.objective),
        "lp_seconds": float(solution.lp_seconds),
        "formulation": str(solution.formulation),
    }
    arrays = {
        "compact_factors": solution.compact_factors,
        "slot_factors": solution.slot_factors,
        "candidate_item_ids": solution.candidate_item_ids,
    }
    return meta, arrays


def decode_fractional(meta: Dict[str, Any], arrays: ArrayDict) -> FractionalSolution:
    return FractionalSolution(
        compact_factors=arrays["compact_factors"],
        slot_factors=arrays["slot_factors"],
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
