"""In-memory span tracing of :mod:`repro`'s public entry points (traced runs only).

:class:`Tracer` wraps each boundary in :data:`BOUNDARIES` for the duration of
a ``with tracer.installed():`` block.  A module-level function is rebound in
every loaded ``repro`` module that holds it, and in the algorithm registry's
specs, so every place the name is looked up sees the wrapper; a method is
replaced on its class.  Each call records one span ``(id, name, bucket,
start, end, parent, op, attrs)`` in memory: ``parent`` is the enclosing span
on the same thread and ``op`` the operation id the driving thread set with
:meth:`Tracer.set_op`.  Nothing under ``src/`` is modified on disk; leaving
the block restores every original.

:func:`rollup` turns spans into per-bucket self-times (a span's duration minus
the durations of its child spans), call counts and summed attributes.  The
evaluator methods ``set_cell`` and ``probe_many`` carry no bucket of their
own: under a local-search span they are ``ls.set_cell`` / ``ls.cell_probe``,
elsewhere they count toward the layer that called them (for example a
session's join writes cells through ``set_cell``).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: One recorded span: (id, name, bucket, start, end, parent id, op id, attrs).
Span = Tuple[int, str, Optional[str], float, float, Optional[int], Any, Optional[Dict[str, float]]]

AttrFn = Callable[[tuple, dict, Any], Optional[Dict[str, float]]]


def _linprog_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    rows = 0
    for name in ("A_ub", "A_eq"):
        matrix = kwargs.get(name)
        if matrix is not None:
            rows += int(matrix.shape[0])
    return {"vars": float(len(kwargs["c"])), "rows": float(rows)}


def _round_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"iterations": float(result.info.get("iterations", 0))}


def _search_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"moves": float(result.info["moves"]), "passes": float(result.info["passes"])}


def _load_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"hits": 0.0 if result is None else 1.0}


@dataclass(frozen=True)
class Boundary:
    """One traced entry point: ``owner`` is a module path, or ``module:Class``."""

    owner: str
    attr: str
    bucket: Optional[str]
    attrs: Optional[AttrFn] = None

    @property
    def name(self) -> str:
        return f"{self.owner.split(':')[-1]}.{self.attr}"


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("repro.data.datasets", "make_instance", "data.build"),
    Boundary("repro.data.datasets", "make_st_instance", "data.build"),
    Boundary("repro.data.churn", "make_churn_trace", "data.build"),
    Boundary("repro.core.lp", "solve_lp_relaxation", "lp.assemble"),
    Boundary("repro.core.lp", "solve_lp_relaxations_stacked", "lp.assemble"),
    Boundary("repro.core.lp", "candidate_items", "lp.candidates"),
    Boundary("repro.core.sparse", "per_user_candidate_lists", "lp.candidates"),
    Boundary("repro.solvers.linprog", "linprog", "lp.highs", _linprog_attrs),
    Boundary("repro.core.avg_d", "run_avg_d", "round", _round_attrs),
    Boundary("repro.core.pipeline:LocalSearchImprover", "apply", "ls.search", _search_attrs),
    # The pairwise-exchange probe: private, but it is the unit ls.accept_ratio counts.
    Boundary("repro.core.pipeline:LocalSearchImprover", "_try_swap", "ls.pair_probe"),
    Boundary("repro.core.objective:DeltaEvaluator", "probe_many", None),
    Boundary("repro.core.objective:DeltaEvaluator", "set_cell", None),
    Boundary("repro.store.store:ArtifactStore", "load_lp", "store.load", _load_attrs),
    Boundary("repro.store.store:ArtifactStore", "save_lp", "store.save"),
    Boundary("repro.extensions.dynamic:DynamicSession", "add_user", "churn.update"),
    Boundary("repro.extensions.dynamic:DynamicSession", "remove_user", "churn.update"),
    Boundary("repro.extensions.dynamic:DynamicSession", "update_preference", "churn.update"),
    Boundary("repro.extensions.dynamic:DynamicSession", "apply_improver", "churn.repair"),
    Boundary("repro.extensions.churn", "solve_active", "churn.resolve"),
)

#: Bucket an evaluator span takes under a local-search span.
_EVALUATOR_LS_BUCKET = {"probe_many": "ls.cell_probe", "set_cell": "ls.set_cell"}

#: Modules whose import defines every boundary and registers every algorithm.
_LAYER_MODULES = (
    "repro.core.registry",
    "repro.core.sharding",
    "repro.extensions.churn",
    "repro.serving.service",
    "repro.store.store",
    "repro.data.churn",
)


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records spans at the :data:`BOUNDARIES` while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    def set_op(self, op: Any) -> None:
        """Tag spans the calling thread records from now on with ``op``."""
        self._local.op = op

    def _wrap(self, function: Callable, boundary: Boundary) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        name, bucket, attrs = boundary.name, boundary.bucket, boundary.attrs
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((span_id, name, bucket, start, clock(), parent, getattr(local, "op", None), None))
                raise
            end = clock()
            stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            spans.append((span_id, name, bucket, start, end, parent, getattr(local, "op", None), extra))
            return result

        return traced

    def _rebind_function(self, original: Callable, wrapper: Callable) -> None:
        """Point every ``repro`` module global and registry spec holding ``original`` at ``wrapper``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append(functools.partial(setattr, module, attr, original))
        from repro.core import registry

        for key, spec in list(registry._REGISTRY.items()):
            if spec.runner is original:
                registry._REGISTRY[key] = dataclasses.replace(spec, runner=wrapper)
                self._restore.append(functools.partial(registry._REGISTRY.__setitem__, key, spec))

    def install(self) -> None:
        """Wrap every boundary; :meth:`uninstall` before installing again."""
        for module_name in _LAYER_MODULES:
            importlib.import_module(module_name)
        from repro.core.registry import algorithm_names

        algorithm_names()  # imports every provider module, registering its runners
        for boundary in BOUNDARIES:
            owner = _resolve(boundary.owner)
            if isinstance(owner, type):
                original = vars(owner)[boundary.attr]
                setattr(owner, boundary.attr, self._wrap(original, boundary))
                self._restore.append(functools.partial(setattr, owner, boundary.attr, original))
            else:
                original = getattr(owner, boundary.attr)
                self._rebind_function(original, self._wrap(original, boundary))

    def uninstall(self) -> None:
        """Restore every original, last patch first."""
        while self._restore:
            self._restore.pop()()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: str) -> int:
        """Write the spans as JSON lines to ``path``; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, bucket, start, end, parent, op, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "bucket": bucket,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                            "attrs": attrs,
                        }
                    )
                )
                handle.write("\n")
        return len(self.spans)


@dataclass
class Rollup:
    """Per-bucket self-time (seconds), call counts and summed span attributes."""

    self_s: Dict[str, float] = dataclasses.field(default_factory=lambda: defaultdict(float))
    calls: Dict[str, int] = dataclasses.field(default_factory=lambda: defaultdict(int))
    attrs: Dict[str, float] = dataclasses.field(default_factory=lambda: defaultdict(float))


def rollup(spans: List[Span], start: float = float("-inf"), end: float = float("inf")) -> Rollup:
    """Roll the spans that begin within ``[start, end]`` up by bucket.

    Self-time is a span's duration minus its direct children's durations
    (children run nested on the parent's thread, so they never overlap);
    summed over a bucket it is the time that bucket's own code ran.
    """
    by_id = {span[0]: span for span in spans}
    children_s: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[5] is not None:
            children_s[span[5]] += span[4] - span[3]

    resolved: Dict[int, str] = {}

    def bucket_of(span: Span) -> str:
        if span[2] is not None:
            return span[2]
        cached = resolved.get(span[0])
        if cached is not None:
            return cached
        parent = by_id.get(span[5]) if span[5] is not None else None
        while parent is not None and parent[2] is None:
            parent = by_id.get(parent[5]) if parent[5] is not None else None
        if parent is None:
            bucket = "unattributed"
        elif parent[2].startswith("ls."):
            bucket = _EVALUATOR_LS_BUCKET[span[1].rsplit(".", 1)[-1]]
        else:
            bucket = parent[2]
        resolved[span[0]] = bucket
        return bucket

    result = Rollup()
    for span in spans:
        if not start <= span[3] <= end:
            continue
        bucket = bucket_of(span)
        result.self_s[bucket] += (span[4] - span[3]) - children_s.get(span[0], 0.0)
        result.calls[bucket] += 1
        if span[7]:
            for key, value in span[7].items():
                result.attrs[f"{bucket}.{key}"] += value
    return result


__all__ = ["BOUNDARIES", "Boundary", "Rollup", "Span", "Tracer", "rollup"]
