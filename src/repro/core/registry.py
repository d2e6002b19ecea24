"""Algorithm registry: one dispatch surface for every solver in the library.

Every algorithm — the seven of the paper's line-up (AVG, AVG-D, PER, FMG,
SDP, GRF, IP), the baselines, and the Section-5 extension variants —
registers itself with :func:`register_algorithm` in the module that defines
it.  The experiment harness and the figure functions are thin queries over
this registry: ``names_by_tag("paper")`` replaces the old hand-maintained
lambda dictionaries, and :func:`build_runners` produces harness-compatible
callables that share one :class:`~repro.core.pipeline.SolveContext` per
instance (so the whole line-up performs a single LP relaxation solve).

A spec may carry post-processing :class:`~repro.core.pipeline.Stage` objects
(greedy completion, duplicate repair, the local-search improver); dispatch
applies them after the base runner and records provenance — stages applied,
LP cache hits, improver move counts — on the returned
:class:`~repro.core.result.AlgorithmResult`.

Registration happens at import time of the defining modules; the registry
lazily imports the known provider modules on first query, so
``get_algorithm("AVG")`` works without callers importing
:mod:`repro.core.avg` themselves.  That same property makes specs cheap to
ship across process boundaries: :func:`runner_payloads` lowers a harness
line-up to picklable :class:`AlgorithmPayload` name+kwargs records, and a
worker process rehydrates them simply by importing this module and
rebinding (:meth:`AlgorithmPayload.rehydrate`).
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.pipeline import SolveContext, Stage, apply_stages
from repro.core.problem import SVGICInstance
from repro.core.result import AlgorithmResult
from repro.utils.rng import SeedLike

AlgorithmRunner = Callable[..., AlgorithmResult]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm: its runner, tags, defaults and stages.

    Attributes
    ----------
    name:
        Registry key (``"AVG"``, ``"AVG-D+LS"``, ...).
    runner:
        Callable ``runner(instance, *, context=None, rng=None, **params)``
        returning an :class:`AlgorithmResult`.
    tags:
        Query labels: ``paper`` (the Section-6 line-up), ``baseline`` (the
        four baseline recommenders), ``st`` (safe on SVGIC-ST instances),
        ``extension`` (Section-5 variants), ``local-search``, ``exact``, ...
    defaults:
        Keyword defaults merged under call-time overrides.
    stages:
        Post-processing stages dispatch applies to the base configuration.
    """

    name: str
    runner: AlgorithmRunner
    tags: frozenset = frozenset()
    description: str = ""
    defaults: Mapping[str, Any] = field(default_factory=dict)
    stages: Tuple[Stage, ...] = ()


_REGISTRY: Dict[str, AlgorithmSpec] = {}

#: Modules whose import registers algorithms.  Imported lazily on first query.
_PROVIDER_MODULES: Tuple[str, ...] = (
    "repro.core.avg",
    "repro.core.avg_d",
    "repro.core.ip",
    "repro.core.rounding",
    "repro.baselines.personalized",
    "repro.baselines.group",
    "repro.baselines.subgroup",
    "repro.extensions.commodity",
    "repro.extensions.slot_significance",
    "repro.extensions.multi_view",
    "repro.extensions.groupwise",
    "repro.extensions.subgroup_change",
    "repro.extensions.dynamic",
    "repro.extensions.seo",
)
_providers_loaded = False


def _ensure_providers() -> None:
    global _providers_loaded
    if _providers_loaded:
        return
    _providers_loaded = True
    for module in _PROVIDER_MODULES:
        importlib.import_module(module)


def register_algorithm(
    name: str,
    *,
    tags: Sequence[str] = (),
    description: str = "",
    defaults: Optional[Mapping[str, Any]] = None,
    stages: Sequence[Stage] = (),
) -> Callable[[AlgorithmRunner], AlgorithmRunner]:
    """Decorator registering ``runner`` under ``name``; returns it unchanged.

    Re-registering an existing name replaces the spec (supports module
    reloads in interactive sessions).
    """

    def decorator(runner: AlgorithmRunner) -> AlgorithmRunner:
        doc = description
        if not doc and runner.__doc__:
            doc = runner.__doc__.strip().splitlines()[0]
        _REGISTRY[name] = AlgorithmSpec(
            name=name,
            runner=runner,
            tags=frozenset(tags),
            description=doc,
            defaults=dict(defaults or {}),
            stages=tuple(stages),
        )
        return runner

    return decorator


def get_algorithm(name: str) -> AlgorithmSpec:
    """The spec registered under ``name``; raises ``KeyError`` with suggestions."""
    _ensure_providers()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"no algorithm registered under {name!r}; known: {known}") from None


def algorithm_names() -> List[str]:
    """All registered algorithm names, sorted."""
    _ensure_providers()
    return sorted(_REGISTRY)


def names_by_tag(*tags: str) -> List[str]:
    """Names of algorithms carrying every one of ``tags`` (sorted)."""
    _ensure_providers()
    wanted = frozenset(tags)
    return sorted(name for name, spec in _REGISTRY.items() if wanted <= spec.tags)


def run_registered(
    name: str,
    instance: SVGICInstance,
    *,
    context: Optional[SolveContext] = None,
    rng: SeedLike = None,
    **overrides: Any,
) -> AlgorithmResult:
    """Dispatch one algorithm by name, applying its stages and recording provenance."""
    spec = get_algorithm(name)
    params = {**spec.defaults, **overrides}
    result = spec.runner(instance, context=context, rng=rng, **params)

    if spec.stages:
        stage_start = time.perf_counter()
        configuration, applied, stage_info = apply_stages(
            instance, result.configuration, spec.stages, context=context, rng=rng
        )
        stage_seconds = time.perf_counter() - stage_start
        result = AlgorithmResult.from_configuration(
            result.algorithm,
            instance,
            configuration,
            result.seconds + stage_seconds,
            optimal=result.optimal,
            info={**result.info, "stages": stage_info, "stage_seconds": stage_seconds},
            stages_applied=result.stages_applied + applied,
            provenance=dict(result.provenance),
        )
    result.provenance.setdefault("registry_name", spec.name)
    if context is not None:
        result.provenance.update(context.stats())
    return result


class _BoundRunner:
    """Harness-compatible callable dispatching one registered algorithm.

    The ``accepts_context`` attribute tells the harness it may pass a shared
    :class:`SolveContext`; plain lambdas (the legacy interface) lack it and
    are called with ``(instance, rng=...)`` only.
    """

    accepts_context = True

    def __init__(self, name: str, overrides: Mapping[str, Any]):
        self.name = name
        self.overrides = dict(overrides)

    def __call__(
        self,
        instance: SVGICInstance,
        *,
        rng: SeedLike = None,
        context: Optional[SolveContext] = None,
        **extra: Any,
    ) -> AlgorithmResult:
        return run_registered(
            self.name, instance, context=context, rng=rng, **{**self.overrides, **extra}
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_BoundRunner({self.name!r}, overrides={self.overrides!r})"


def build_runners(
    names: Sequence[str],
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Dict[str, AlgorithmRunner]:
    """Harness-style ``{name: runner}`` dict over registered algorithms.

    ``overrides`` maps algorithm name to extra keyword arguments bound into
    that runner (e.g. ``{"AVG": {"repetitions": 3}}``).
    """
    overrides = overrides or {}
    runners: Dict[str, AlgorithmRunner] = {}
    for name in names:
        get_algorithm(name)  # fail fast on unknown names
        runners[name] = _BoundRunner(name, overrides.get(name, {}))
    return runners


# --------------------------------------------------------------------------- #
# Serializable runner payloads (the process-pool executor ships these)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AlgorithmPayload:
    """Picklable description of one harness runner — names, not closures.

    For registry-backed runners the payload stores the registry name plus
    the bound override kwargs; a worker process rehydrates it by importing
    the registry (which lazily imports every provider module, re-running the
    ``@register_algorithm`` decorators) and rebinding.  Legacy plain
    callables travel as the callable itself in ``runner`` — fine for
    module-level functions, but closures/lambdas cannot cross a process
    boundary and fail with the standard pickling error.

    ``bind`` maps keyword-argument names to *sweep column labels*: at
    rehydration time each bound kwarg takes its value from the job's column
    mapping, so a plan can scan an **algorithm parameter** (e.g. figure 12's
    ``balancing_ratio``) declaratively — the sweep coordinate becomes the
    runner kwarg, with the payload staying pure picklable data.
    """

    display_name: str
    registry_name: Optional[str] = None
    overrides: Mapping[str, Any] = field(default_factory=dict)
    runner: Optional[AlgorithmRunner] = None
    bind: Mapping[str, str] = field(default_factory=dict)

    def rehydrate(
        self, columns: Optional[Mapping[str, Any]] = None
    ) -> AlgorithmRunner:
        """Rebuild the harness-compatible runner this payload describes.

        ``columns`` is the job's sweep-point column mapping; it is required
        exactly when the payload carries ``bind`` entries.
        """
        overrides = dict(self.overrides)
        if self.bind:
            if self.registry_name is None:
                raise ValueError(
                    f"payload {self.display_name!r} binds sweep columns but is "
                    "not registry-backed; plain callables take no kwargs"
                )
            if columns is None:
                raise ValueError(
                    f"payload {self.display_name!r} binds sweep columns "
                    f"{sorted(self.bind.values())} but no columns were provided"
                )
            for kwarg, column in self.bind.items():
                if column not in columns:
                    raise KeyError(
                        f"payload {self.display_name!r} binds kwarg {kwarg!r} to "
                        f"column {column!r}, absent from {sorted(columns)}"
                    )
                overrides[kwarg] = columns[column]
        if self.registry_name is not None:
            return _BoundRunner(self.registry_name, overrides)
        if self.runner is None:
            raise ValueError(
                f"payload {self.display_name!r} carries neither a registry name "
                "nor a callable"
            )
        return self.runner


def runner_payloads(
    algorithms: Mapping[str, AlgorithmRunner],
    bindings: Optional[Mapping[str, Mapping[str, str]]] = None,
) -> Tuple[AlgorithmPayload, ...]:
    """Convert a harness ``{name: runner}`` dict into serializable payloads.

    Registry-bound runners (anything produced by :func:`build_runners`)
    become pure name+kwargs records; other callables are carried verbatim.
    Order is preserved — it determines the line-up's evaluation order.
    ``bindings`` optionally maps display names to ``{kwarg: column label}``
    bindings resolved per job at rehydration time (see
    :class:`AlgorithmPayload`); binding a non-registry callable raises.
    """
    bindings = bindings or {}
    unknown = set(bindings) - set(algorithms)
    if unknown:
        raise KeyError(
            f"bindings reference unknown algorithm(s) {sorted(unknown)}; "
            f"line-up is {sorted(algorithms)}"
        )
    payloads = []
    for display_name, runner in algorithms.items():
        bind = dict(bindings.get(display_name, {}))
        if isinstance(runner, _BoundRunner):
            payloads.append(
                AlgorithmPayload(
                    display_name=display_name,
                    registry_name=runner.name,
                    overrides=dict(runner.overrides),
                    bind=bind,
                )
            )
        else:
            if bind:
                raise ValueError(
                    f"algorithm {display_name!r} is not registry-backed; "
                    "column bindings require a registry runner"
                )
            payloads.append(AlgorithmPayload(display_name=display_name, runner=runner))
    return tuple(payloads)


__all__ = [
    "AlgorithmSpec",
    "AlgorithmPayload",
    "AlgorithmRunner",
    "register_algorithm",
    "get_algorithm",
    "algorithm_names",
    "names_by_tag",
    "run_registered",
    "build_runners",
    "runner_payloads",
]
