"""``repro.api`` — the one front door for requests and results.

Every surface that accepts a planning request — the ``primepar`` CLI, the
``repro.serve`` HTTP daemon, and the typed :class:`~repro.serve.client.PlanClient`
— speaks this single schema:

* **Request types** — frozen dataclasses (:class:`SearchRequest`,
  :class:`SimulateRequest`, :class:`ExplainRequest`,
  :class:`RobustnessRequest`) with ``schema_version`` stamps,
  ``to_json``/``from_json`` round-trips, and validation errors that carry
  the offending field path (:class:`ValidationError`, mapped to HTTP 400
  by the server).
* **Executors** — one per request kind (:func:`run_search`,
  :func:`run_simulate`, :func:`run_explain`, :func:`run_robustness`, and
  :func:`run_robust_search` for the CLI's plan portfolio), all planning
  against the ``(model, profiler, graph)`` setting of
  :func:`build_setting`.  The CLI and the daemon both execute requests
  through them; the CLI only renders the results, the daemon only
  caches, coalesces and admits them.
* **Result envelopes** — helpers (:func:`stamp`, :func:`check_schema`,
  :func:`plan_to_json`, :func:`plan_from_json`) used by the schema-versioned
  ``to_json``/``from_json`` pairs on :class:`~repro.IterationReport`,
  :class:`~repro.SearchResult`, ``PipelineReport`` and ``RobustnessReport``.

Wire compatibility: field names, defaults, canonicalization (``batch == 0``
resolves to ``max(8, min(devices, 32))``) and the plan cache key are
bit-identical to the pre-``repro.api`` serving layer, so warm plan stores
and checked-in bench baselines remain valid.

The executors import the optimizer and simulators lazily, so importing
this module stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from . import cache as diskcache
from .graph.models import MODELS_BY_KEY

__all__ = [
    "ExplainRequest",
    "MAX_DEVICES",
    "OBJECTIVES",
    "RobustnessRequest",
    "SCHEMA_VERSION",
    "SearchRequest",
    "SimulateRequest",
    "ValidationError",
    "build_setting",
    "check_schema",
    "plan_from_json",
    "plan_to_json",
    "resolve_plan",
    "run_explain",
    "run_robust_search",
    "run_robustness",
    "run_search",
    "run_simulate",
    "stamp",
]

#: Version stamp carried by every request body and result document this
#: module emits; bump when any schema changes meaning.
SCHEMA_VERSION = 1

#: Largest cluster a request may ask for (guards against absurd bodies).
MAX_DEVICES = 4096

#: Plan-scoring objectives understood by the robustness layer.
OBJECTIVES = ("nominal", "p50", "p95", "p99", "blend")


class ValidationError(Exception):
    """A malformed request or document (HTTP 400).

    Args:
        message: Human-readable description of the failure.
        field: Dotted path of the offending field (``""`` when the body as
            a whole is malformed), surfaced in error payloads so clients
            can point at the exact input.
    """

    def __init__(self, message: str, field: str = "") -> None:
        super().__init__(message)
        self.field = field

    @property
    def message(self) -> str:
        return str(self.args[0]) if self.args else ""


def _field(body: Mapping[str, Any], name: str, kind, default, path: str = ""):
    value = body.get(name, default)
    where = f"{path}.{name}" if path else name
    if isinstance(value, bool) and kind is not bool:
        raise ValidationError(f"field {name!r} must be {kind.__name__}", where)
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ValidationError(f"field {name!r} must be {kind.__name__}", where)
    return value


def _require_object(body: Any) -> Mapping[str, Any]:
    if not isinstance(body, Mapping):
        raise ValidationError("request body must be a JSON object")
    version = body.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {version!r}; this build speaks "
            f"{SCHEMA_VERSION}",
            "schema_version",
        )
    return body


# ----------------------------------------------------------------------
# request types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SearchRequest:
    """One plan-search request (CLI ``primepar search``, ``POST /v1/search``).

    ``batch == 0`` resolves to the default workload scaling
    (``max(8, min(devices, 32))``) during :meth:`from_json`; ``beam == 0``
    means exact search; ``deadline == 0`` defers to the server default.
    """

    model: str = "opt-6.7b"
    devices: int = 8
    batch: int = 0
    alpha: float = 2e-11
    beam: int = 0
    include_temporal: bool = True
    deadline: float = 0.0

    @classmethod
    def from_json(cls, body: Any) -> "SearchRequest":
        """Validate and canonicalize a raw JSON body.

        Raises:
            ValidationError: With the offending field path on any
                malformed or out-of-range field.
        """
        body = _require_object(body)
        model = _field(body, "model", str, "opt-6.7b")
        if model not in MODELS_BY_KEY:
            raise ValidationError(
                f"unknown model {model!r}; expected one of "
                f"{sorted(MODELS_BY_KEY)}",
                "model",
            )
        devices = _field(body, "devices", int, 8)
        if not 2 <= devices <= MAX_DEVICES or devices & (devices - 1):
            raise ValidationError(
                f"devices must be a power of two in [2, {MAX_DEVICES}], "
                f"got {devices}",
                "devices",
            )
        batch = _field(body, "batch", int, 0)
        if batch < 0:
            raise ValidationError(f"batch must be >= 0, got {batch}", "batch")
        if batch == 0:
            batch = max(8, min(devices, 32))
        alpha = _field(body, "alpha", float, 2e-11)
        if alpha < 0:
            raise ValidationError(f"alpha must be >= 0, got {alpha}", "alpha")
        beam = _field(body, "beam", int, 0)
        if beam < 0:
            raise ValidationError(f"beam must be >= 0, got {beam}", "beam")
        include_temporal = _field(body, "include_temporal", bool, True)
        deadline = _field(body, "deadline", float, 0.0)
        if deadline < 0:
            raise ValidationError(
                f"deadline must be >= 0, got {deadline}", "deadline"
            )
        return cls(
            model=model,
            devices=devices,
            batch=batch,
            alpha=alpha,
            beam=beam,
            include_temporal=include_temporal,
            deadline=deadline,
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "model": self.model,
            "devices": self.devices,
            "batch": self.batch,
            "alpha": self.alpha,
            "beam": self.beam,
            "include_temporal": self.include_temporal,
            "deadline": self.deadline,
        }

    def cache_key(self) -> str:
        """Content hash identifying this request's plan payload.

        ``deadline`` is deliberately excluded — it shapes *when* a search
        may be cut off, never *what* plan it yields — so the key is
        bit-identical to the pre-``repro.api`` serving layer.
        """
        return diskcache.content_key(
            "plan",
            SCHEMA_VERSION,
            self.model,
            self.devices,
            self.batch,
            self.alpha,
            self.beam,
            self.include_temporal,
        )


@dataclass(frozen=True)
class SimulateRequest:
    """One plan-replay request (``primepar simulate``, ``POST /v1/simulate``)."""

    search: SearchRequest = field(default_factory=SearchRequest)
    engine: str = "analytic"
    layers: int = 0

    @classmethod
    def from_json(cls, body: Any) -> "SimulateRequest":
        search = SearchRequest.from_json(body)
        body = _require_object(body)
        engine = _field(body, "engine", str, "analytic")
        if engine not in ("analytic", "event"):
            raise ValidationError(
                f"engine must be 'analytic' or 'event', got {engine!r}",
                "engine",
            )
        layers = _field(body, "layers", int, 0)
        if layers < 0:
            raise ValidationError(f"layers must be >= 0, got {layers}", "layers")
        return cls(search=search, engine=engine, layers=layers)

    def to_json(self) -> Dict[str, Any]:
        return {
            **self.search.to_json(),
            "engine": self.engine,
            "layers": self.layers,
        }

    @property
    def n_layers(self) -> int:
        """Layers to replay: ``layers``, or the model's depth when 0."""
        return self.layers or MODELS_BY_KEY[self.search.model].n_layers


@dataclass(frozen=True)
class ExplainRequest:
    """One cost-decomposition request (``primepar explain``, ``POST /v1/explain``)."""

    search: SearchRequest = field(default_factory=SearchRequest)
    links: bool = False

    @classmethod
    def from_json(cls, body: Any) -> "ExplainRequest":
        search = SearchRequest.from_json(body)
        body = _require_object(body)
        links = _field(body, "links", bool, False)
        return cls(search=search, links=links)

    def to_json(self) -> Dict[str, Any]:
        return {**self.search.to_json(), "links": self.links}


@dataclass(frozen=True)
class RobustnessRequest:
    """One robustness-scoring request (``primepar faults``, ``POST /v1/robustness``).

    ``faults`` is either a compact spec string (``"straggler=0.2:1.8,..."``,
    see :meth:`repro.sim.faults.FaultModel.from_spec`) or a JSON object of
    :class:`~repro.sim.faults.FaultModel` fields.  Only its *shape* is
    checked here; the fault layer performs semantic validation and its
    errors are re-raised under the ``faults`` field path.
    """

    search: SearchRequest = field(default_factory=SearchRequest)
    faults: Any = ""
    scenarios: int = 16
    seed: int = 0
    objective: str = "p99"
    blend: float = 0.5
    layers: int = 8

    @classmethod
    def from_json(cls, body: Any) -> "RobustnessRequest":
        search = SearchRequest.from_json(body)
        body = _require_object(body)
        faults = body.get("faults", "")
        if not isinstance(faults, (str, Mapping)):
            raise ValidationError(
                "field 'faults' must be a spec string or a JSON object",
                "faults",
            )
        scenarios = _field(body, "scenarios", int, 16)
        if not 1 <= scenarios <= 1024:
            raise ValidationError(
                f"scenarios must be in [1, 1024], got {scenarios}", "scenarios"
            )
        seed = _field(body, "seed", int, 0)
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}", "seed")
        objective = _field(body, "objective", str, "p99")
        if objective not in OBJECTIVES:
            raise ValidationError(
                f"objective must be one of {OBJECTIVES}, got {objective!r}",
                "objective",
            )
        blend = _field(body, "blend", float, 0.5)
        if not 0.0 <= blend <= 1.0:
            raise ValidationError(
                f"blend must be in [0, 1], got {blend}", "blend"
            )
        layers = _field(body, "layers", int, 8)
        if layers < 0:
            raise ValidationError(f"layers must be >= 0, got {layers}", "layers")
        return cls(
            search=search,
            faults=dict(faults) if isinstance(faults, Mapping) else faults,
            scenarios=scenarios,
            seed=seed,
            objective=objective,
            blend=blend,
            layers=layers,
        )

    def to_json(self) -> Dict[str, Any]:
        faults = dict(self.faults) if isinstance(self.faults, Mapping) else self.faults
        return {
            **self.search.to_json(),
            "faults": faults,
            "scenarios": self.scenarios,
            "seed": self.seed,
            "objective": self.objective,
            "blend": self.blend,
            "layers": self.layers,
        }

    @property
    def n_layers(self) -> int:
        """Layers per replay: ``layers``, or the model's depth when 0."""
        return self.layers or MODELS_BY_KEY[self.search.model].n_layers

    def fault_model(self):
        """The parsed :class:`~repro.sim.faults.FaultModel`.

        Raises:
            ValidationError: Under the ``faults`` field path when the spec
                string or JSON object is malformed.
        """
        from .sim.faults import FaultModel

        if isinstance(self.faults, str):
            return FaultModel.from_spec(self.faults)
        return FaultModel.from_json(self.faults)


# ----------------------------------------------------------------------
# result envelopes
# ----------------------------------------------------------------------


def stamp(kind: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Wrap a result payload with its schema version and document kind."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **payload}


def check_schema(payload: Any, kind: str) -> Mapping[str, Any]:
    """Validate a stamped result document before rehydration.

    Tolerates unstamped payloads (pre-``repro.api`` documents carry no
    ``schema_version``) but rejects version or kind mismatches.
    """
    if not isinstance(payload, Mapping):
        raise ValidationError(f"{kind} document must be a JSON object")
    version = payload.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported schema_version {version!r} for {kind}; this build "
            f"speaks {SCHEMA_VERSION}",
            "schema_version",
        )
    got = payload.get("kind", kind)
    if got != kind:
        raise ValidationError(
            f"expected a {kind!r} document, got {got!r}", "kind"
        )
    return payload


def plan_to_json(plan: Mapping[str, Any]) -> Dict[str, str]:
    """A plan as sorted ``{operator: str(spec)}`` — the serving wire shape."""
    return {name: str(spec) for name, spec in sorted(plan.items())}


def plan_from_json(payload: Mapping[str, str], n_bits: int) -> Dict[str, Any]:
    """Rehydrate a wire-shape plan into :class:`~repro.PartitionSpec` values."""
    from .core.spec import PartitionSpec

    plan: Dict[str, Any] = {}
    for name, text in payload.items():
        if text == "(replicated)":
            plan[name] = PartitionSpec((), n_bits)
        else:
            plan[name] = PartitionSpec.from_string(text, n_bits)
    return plan


# ----------------------------------------------------------------------
# executors: one per request kind, shared by the CLI and the daemon
# ----------------------------------------------------------------------


def build_setting(request: SearchRequest) -> Tuple[Any, Any, Any]:
    """The ``(model, profiler, graph)`` every request kind plans against."""
    from .cluster.profiler import FabricProfiler
    from .cluster.topology import v100_cluster
    from .graph.transformer import build_block_graph

    model = MODELS_BY_KEY[request.model]
    profiler = FabricProfiler(v100_cluster(request.devices))
    graph = build_block_graph(model.block_shape(batch=request.batch))
    return model, profiler, graph


def run_search(request: SearchRequest, *, jobs: int = 1, deadline=None,
               setting=None, memo=None):
    """The plan search for ``request`` (a :class:`~repro.SearchResult`).

    ``deadline`` is an optional cooperative
    :class:`~repro.core.optimizer.deadline.Deadline`; ``memo`` an optional
    :class:`~repro.core.optimizer.memo.SearchMemo` whose alpha-free work
    the search reuses and extends.
    """
    from .core.optimizer.strategy import PrimeParOptimizer

    model, profiler, graph = setting or build_setting(request)
    optimizer = PrimeParOptimizer(
        profiler,
        alpha=request.alpha,
        include_temporal=request.include_temporal,
        beam=request.beam or None,
        jobs=jobs,
        memo=memo,
    )
    return optimizer.optimize(
        graph, n_layers=model.n_layers, deadline=deadline
    )


def resolve_plan(request: SearchRequest, plan, setting, *, jobs: int = 1):
    """``plan`` as ``{operator: PartitionSpec}`` for ``request``.

    ``plan`` is ``"primepar"`` (run the search), ``"megatron"`` (the best
    Megatron-LM baseline), or an explicit plan whose values are
    :class:`~repro.PartitionSpec` objects or their wire-shape strings.
    """
    model, profiler, graph = setting
    if plan == "primepar":
        return run_search(request, jobs=jobs, setting=setting).plan
    if plan == "megatron":
        from .baselines.megatron import best_megatron_plan
        from .sim.executor import TrainingSimulator

        return best_megatron_plan(
            TrainingSimulator(profiler), graph, request.batch, model.n_layers
        ).plan
    if all(isinstance(spec, str) for spec in plan.values()):
        return plan_from_json(plan, profiler.topology.n_bits)
    return plan


def _planned(search: SearchRequest, plan, setting, jobs: int):
    """``(profiler, graph, plan)`` with ``plan`` resolved for ``search``."""
    setting = setting or build_setting(search)
    _, profiler, graph = setting
    return profiler, graph, resolve_plan(search, plan, setting, jobs=jobs)


def run_simulate(request: SimulateRequest, plan="primepar", *, jobs: int = 1,
                 setting=None):
    """Replay ``plan`` on the request's engine (an
    :class:`~repro.IterationReport`)."""
    from .sim.engine import EventDrivenSimulator
    from .sim.executor import TrainingSimulator

    search = request.search
    profiler, graph, plan = _planned(search, plan, setting, jobs)
    if request.engine == "event":
        simulator = EventDrivenSimulator(profiler)
    else:
        simulator = TrainingSimulator(profiler)
    return simulator.run_model(graph, plan, search.batch, request.n_layers)


def run_explain(request: ExplainRequest, plan="primepar", *, jobs: int = 1,
                setting=None) -> Dict[str, Any]:
    """The cost decomposition of ``plan`` (see :mod:`repro.core.explain`)."""
    from .core.explain import explain_plan

    search = request.search
    profiler, graph, plan = _planned(search, plan, setting, jobs)
    return explain_plan(
        profiler, graph, plan, alpha=search.alpha,
        include_links=request.links, global_batch=search.batch,
    )


def run_robustness(request: RobustnessRequest, plan="primepar", *,
                   jobs: int = 1, setting=None):
    """``plan``'s :class:`~repro.sim.faults.RobustnessReport` under the
    request's fault model."""
    from .sim.faults import evaluate_robustness

    search = request.search
    profiler, graph, plan = _planned(search, plan, setting, jobs)
    return evaluate_robustness(
        profiler, graph, plan, search.batch, request.n_layers,
        request.fault_model(), scenarios=request.scenarios,
        seed=request.seed, jobs=jobs,
    )


def run_robust_search(request: RobustnessRequest, *, jobs: int = 1,
                      setting=None):
    """Rank the plan portfolio by the request's objective under its fault
    model (a :class:`~repro.sim.faults.RobustSearchResult`)."""
    from .sim.faults import robust_search

    fault_model = request.fault_model()  # a bad spec fails before any work
    search = request.search
    model, profiler, graph = setting or build_setting(search)
    return robust_search(
        profiler,
        graph,
        global_batch=search.batch,
        n_layers=model.n_layers,
        fault_model=fault_model,
        objective=request.objective,
        blend=request.blend,
        scenarios=request.scenarios,
        seed=request.seed,
        sim_layers=request.n_layers,
        alpha=search.alpha,
        beam=search.beam or None,
        jobs=jobs,
    )
