"""The serving brain: validated requests → coalesced, cached, admitted work.

:class:`PlanService` is the transport-free core of the daemon — the HTTP
layer (:mod:`repro.serve.server`) and in-process tests drive the same
object.  One search request flows through:

1. **validation** — :meth:`repro.api.SearchRequest.from_json` rejects
   malformed bodies with :class:`repro.api.ValidationError` (HTTP 400);
2. **plan store** — the content-hashed key is answered from the in-memory
   LRU or the disk cache without any computation;
3. **coalescing** — concurrent identical misses collapse onto one search
   via :class:`~repro.serve.singleflight.SingleFlight`;
4. **admission** — the single leader takes an execution slot (or is
   rejected 429/503 with ``Retry-After``);
5. **search** — :func:`repro.api.run_search` runs under the request's
   cooperative :class:`~repro.core.optimizer.deadline.Deadline`, reusing
   the alpha-free work of earlier searches from the service's
   :class:`~repro.core.optimizer.memo.SearchMemo`; the JSON-shaped payload
   is written through both store tiers.

Simulate, explain and robustness requests resolve their plan through the
same search path, then run the matching :mod:`repro.api` executor once per
content key — coalesced and admitted exactly like a search.

Payloads are plain dicts of spec strings and floats, so responses are
bit-identical to a direct ``PrimeParOptimizer`` run of the same
parameters: same plan strings (``str(spec)``), same float costs.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, Mapping, Optional

from .. import cache as diskcache
from ..api import (
    ExplainRequest,
    RobustnessRequest,
    SearchRequest,
    SimulateRequest,
    plan_to_json,
    run_explain,
    run_robustness,
    run_search,
    run_simulate,
)
from ..core.optimizer.deadline import Deadline, SearchDeadlineExceeded
from ..core.optimizer.memo import SearchMemo
from ..graph.models import MODELS_BY_KEY
from ..obs.logsetup import get_logger
from ..obs.metrics import counter
from ..obs.reqtrace import current_trace, trace_event
from .admission import AdmissionController
from .singleflight import SingleFlight
from .store import PlanStore, default_store

logger = get_logger("serve.service")

#: Version stamp folded into every plan key; bump when the payload shape
#: or anything upstream of it changes meaning.  Tracks
#: :data:`repro.api.SCHEMA_VERSION` (the request schema is the payload
#: schema's front door).
SERVE_SCHEMA = 1

#: Plan-derived request kinds: content-key namespace -> executions counter.
DERIVED_KINDS = {
    "simrequest": "serve.simulations",
    "explainrequest": "serve.explains",
    "robustness": "serve.robustness",
}


def resolve_deadline(request, default: Optional[float]) -> Optional[float]:
    """Per-request deadline: the request's ``deadline`` capped by the
    server default (a request may tighten the budget, never extend it)."""
    requested = getattr(request, "search", request).deadline
    if requested == 0:
        return default
    if default is not None:
        return min(requested, default)
    return requested


class PlanService:
    """Transport-free request execution over a shared plan store.

    Every public method takes a validated :mod:`repro.api` request and an
    optional deadline in seconds (``None`` = unbounded; see
    :func:`resolve_deadline` for the server's cap).

    Args:
        store: Plan store shared across requests (``None`` → the
            process-wide :func:`~repro.serve.store.default_store`).
        admission: Execution-slot controller (``None`` → defaults).
        jobs: Process-pool width each admitted search may use.
        default_deadline: Server-wide per-request budget in seconds
            (``None`` = unbounded); request bodies can only tighten it.
    """

    def __init__(
        self,
        store: Optional[PlanStore] = None,
        admission: Optional[AdmissionController] = None,
        jobs: int = 1,
        default_deadline: Optional[float] = None,
    ) -> None:
        self.store = store if store is not None else default_store()
        self.admission = admission if admission is not None else AdmissionController()
        self.jobs = jobs
        self.default_deadline = default_deadline
        self._searches = SingleFlight()
        self._flights = {kind: SingleFlight() for kind in DERIVED_KINDS}
        #: Operator spaces and edge traffic shared by every search this
        #: service runs (fixed-size LRUs; see :mod:`repro.core.optimizer.memo`).
        self.memo = SearchMemo()

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(
        self, params: SearchRequest, deadline_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """The plan payload for ``params`` — cached, coalesced or computed.

        The returned dict always carries ``key`` (the content hash, usable
        with ``GET /v1/plans/<key>``) and ``source`` — one of ``memory``,
        ``disk``, ``computed``, ``coalesced``.
        """
        key = params.cache_key()
        trace = current_trace()
        if trace is not None:
            trace.key = key
        value, tier = self.store.get(key)
        if value is not None:
            if trace is not None:
                trace.outcome = tier
            return {**value, "key": key, "source": tier}
        deadline = Deadline(deadline_s) if deadline_s else None

        def compute() -> Dict[str, Any]:
            timeout = deadline.remaining() if deadline else None
            with self.admission.admit(timeout=timeout):
                counter("serve.searches").inc()
                payload = self._run_search(params, deadline)
                self.store.put(key, payload)
                return payload

        try:
            value, leader = self._searches.run(
                key, compute, timeout=deadline.remaining() if deadline else None
            )
        except FutureTimeoutError:
            counter("serve.rejected", reason="coalesce_timeout").inc()
            trace_event("coalesce.timeout", key=key)
            raise
        source = "computed" if leader else "coalesced"
        if trace is not None:
            trace.outcome = source
        if deadline is not None:
            trace_event("deadline.slack", remaining_s=deadline.remaining())
        return {**value, "key": key, "source": source}

    def _run_search(
        self, params: SearchRequest, deadline: Optional[Deadline]
    ) -> Dict[str, Any]:
        started = time.perf_counter()
        try:
            result = run_search(
                params, jobs=self.jobs, deadline=deadline, memo=self.memo
            )
        except SearchDeadlineExceeded:
            counter("serve.rejected", reason="deadline").inc()
            raise
        trace = current_trace()
        if trace is not None and result.telemetry:
            trace.attach_spans(result.telemetry.get("spans") or [])
        logger.info(
            "search %s x%d batch %d: cost %.6g in %.2fs",
            params.model, params.devices, params.batch, result.cost,
            time.perf_counter() - started,
        )
        return {
            "model": params.model,
            "devices": params.devices,
            "batch": params.batch,
            "alpha": params.alpha,
            "beam": params.beam,
            "include_temporal": params.include_temporal,
            "n_layers": MODELS_BY_KEY[params.model].n_layers,
            "plan": plan_to_json(result.plan),
            "cost": result.cost,
            "model_cost": result.model_cost,
            "elapsed": result.elapsed,
        }

    # ------------------------------------------------------------------
    # plan lookup
    # ------------------------------------------------------------------

    def plan(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for a content-hash key, or ``None``."""
        trace = current_trace()
        if trace is not None:
            trace.key = key
        value, tier = self.store.get(key)
        if value is None:
            if trace is not None:
                trace.outcome = "miss"
            return None
        if trace is not None:
            trace.outcome = tier
        return {**value, "key": key, "source": tier}

    # ------------------------------------------------------------------
    # plan-derived requests: simulate, explain, robustness
    # ------------------------------------------------------------------

    def _derived(
        self,
        kind: str,
        params: SearchRequest,
        deadline_s: Optional[float],
        run,
        *key_parts: Any,
    ) -> Dict[str, Any]:
        """Resolve the plan for ``params`` through :meth:`search` (warming
        and reusing the plan store), then compute ``run(plan_payload)``
        once per ``(kind, plan key, *key_parts)`` content key — coalesced
        and admission-controlled like a search."""
        plan_payload = self.search(params, deadline_s)
        key = diskcache.content_key(
            kind, SERVE_SCHEMA, plan_payload["key"], *key_parts
        )
        deadline = Deadline(deadline_s) if deadline_s else None

        def compute() -> Dict[str, Any]:
            timeout = deadline.remaining() if deadline else None
            with self.admission.admit(timeout=timeout):
                counter(DERIVED_KINDS[kind]).inc()
                return run(plan_payload)

        value, leader = self._flights[kind].run(
            key, compute, timeout=deadline.remaining() if deadline else None
        )
        return {
            **value,
            "plan_key": plan_payload["key"],
            "plan_source": plan_payload["source"],
            "source": "computed" if leader else "coalesced",
        }

    def simulate(
        self, request: SimulateRequest, deadline_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """Replay the plan for ``request.search`` on a simulator engine.

        Coalesced per ``(plan key, engine, layers)``; simulation reports
        are additionally disk-cached by :mod:`repro.sim.simcache`
        underneath ``run_model``.
        """
        search = request.search

        def run(plan_payload: Mapping[str, Any]) -> Dict[str, Any]:
            report = run_simulate(request, plan_payload["plan"])
            return {
                "model": search.model,
                "devices": search.devices,
                "batch": search.batch,
                "engine": request.engine,
                "layers": request.n_layers,
                "latency": report.latency,
                "throughput": report.throughput,
                "peak_memory_bytes": report.peak_memory_bytes,
                "breakdown": {
                    kind: seconds
                    for kind, seconds in sorted(report.breakdown.items())
                },
            }

        return self._derived(
            "simrequest", search, deadline_s, run,
            request.engine, request.n_layers,
        )

    def explain(
        self, request: ExplainRequest, deadline_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """Cost decomposition of the plan for ``request.search``.

        Coalesced per ``(plan key, links)``, since the ``links`` variant
        replays a layer through the event engine.  The document's
        ``components`` fold equals its ``total_cost`` bit-exactly (the
        plan re-priced through ``OverallCostModel``); the search payload's
        ``cost`` is echoed as ``plan_cost`` — the DP's own incremental
        fold, which may differ from re-pricing in the last ulp.
        """

        def run(plan_payload: Mapping[str, Any]) -> Dict[str, Any]:
            doc = run_explain(request, plan_payload["plan"])
            return {**doc, "plan_cost": plan_payload["cost"]}

        return self._derived(
            "explainrequest", request.search, deadline_s, run, request.links
        )

    def robustness(
        self, request: RobustnessRequest, deadline_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """Score the plan for ``request.search`` under a fault model.

        Coalesced per ``(plan key, fault model, scenarios, seed, layers)``.
        The coalesced work is the report alone; ``objective``, ``blend``
        and ``score`` are each caller's own, so concurrent requests that
        differ only in objective share one Monte-Carlo sweep.  The returned
        ``report`` is a schema-versioned
        :class:`~repro.sim.faults.RobustnessReport` document; same seed +
        plan + fault spec reproduces it bit-identically regardless of the
        service's ``jobs`` fan-out.
        """
        fault_model = request.fault_model()  # a bad spec fails before search
        search = request.search

        def run(plan_payload: Mapping[str, Any]) -> Dict[str, Any]:
            return {
                "report": run_robustness(
                    request, plan_payload["plan"], jobs=self.jobs
                )
            }

        shared = self._derived(
            "robustness", search, deadline_s, run,
            fault_model.canonical(), request.scenarios, request.seed,
            request.n_layers,
        )
        report = shared.pop("report")
        return {
            "model": search.model,
            "devices": search.devices,
            "batch": search.batch,
            "layers": request.n_layers,
            "objective": request.objective,
            "blend": request.blend,
            "score": report.score(request.objective, request.blend),
            "report": report.to_json(),
            **shared,
        }
