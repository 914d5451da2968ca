"""Output checks, run outside every timed window.

Each check returns a list of problems; an empty list means the output is
correct.  They take plain values so a test can hand them a tampered output.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: Response fields that name where a payload came from, not what it is.
PROVENANCE_FIELDS = ("source", "plan_source", "key", "plan_key", "trace")


#: How far ``explain_plan``'s re-priced total may sit from the DP's cost.
#: The two fold the same Eq. 10 terms in different orders; 2 ulps were
#: measured at the default alpha (llama2-70b, batch 32, 16 devices), so
#: the documented "last ulp" does not always hold.  The distance itself is
#: reported as ``search.explain_ulps``.
EXPLAIN_ULPS = 4


def ulp_distance(a: float, b: float) -> float:
    """``|a - b|`` in units of the last place of the larger magnitude."""
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def check_search(
    node_names: Sequence[str],
    plan: Mapping[str, object],
    cost: float,
    explained_total: float,
) -> List[str]:
    """The plan covers every node and explain's re-pricing matches the DP."""
    problems = []
    missing = sorted(set(node_names) - set(plan))
    extra = sorted(set(plan) - set(node_names))
    if missing or extra:
        problems.append(f"plan nodes differ: missing {missing}, extra {extra}")
    if not math.isfinite(cost) or cost <= 0:
        problems.append(f"non-positive cost {cost!r}")
    elif ulp_distance(explained_total, cost) > EXPLAIN_ULPS:
        problems.append(
            f"explain total {explained_total!r} != search cost {cost!r}"
        )
    return problems


def check_outcomes(outcomes: Sequence[Any]) -> List[str]:
    """Every outcome's latency is exactly its attributed parts' sum."""
    problems = []
    for o in outcomes:
        parts = (o.nominal_latency + o.compute_delay + o.link_delay
                 + o.recovery_delay)
        if o.latency != parts:
            problems.append(
                f"scenario {o.index}: latency {o.latency!r} != "
                f"nominal+compute+link+recovery {parts!r}"
            )
    return problems


def check_report(report: Any, scenarios: int) -> List[str]:
    problems = check_outcomes(report.outcomes)
    if report.n_scenarios != scenarios or len(report.outcomes) != scenarios:
        problems.append(
            f"{len(report.outcomes)} outcomes for {scenarios} scenarios"
        )
    if any(o.nominal_latency != report.nominal_latency
           for o in report.outcomes):
        problems.append("outcome nominal latency differs from the report's")
    return problems


def check_same_report(piecewise: Mapping, whole: Mapping) -> List[str]:
    """The traced piecewise replay equals ``evaluate_robustness``'s report."""
    if piecewise != whole:
        keys = sorted(k for k in set(piecewise) | set(whole)
                      if piecewise.get(k) != whole.get(k))
        return [f"piecewise report differs from evaluate_robustness in {keys}"]
    return []


def payload_body(payload: Mapping[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in payload.items() if k not in PROVENANCE_FIELDS}


def check_response(
    status: int,
    payload: Optional[Mapping[str, Any]],
    expected_key: str,
    key_field: str,
    sources: Sequence[str],
    source_field: str,
    reference: Optional[Mapping[str, Any]] = None,
) -> List[str]:
    """HTTP 200, the request's own cache key, an expected source tier and,
    when a reference payload exists, an identical body."""
    if status != 200 or payload is None:
        return [f"HTTP {status}"]
    problems = []
    if payload.get(key_field) != expected_key:
        problems.append(
            f"{key_field} {payload.get(key_field)!r} != cache key "
            f"{expected_key!r}"
        )
    if payload.get(source_field) not in sources:
        problems.append(
            f"{source_field} {payload.get(source_field)!r} not in {sources}"
        )
    if reference is not None and payload_body(payload) != payload_body(
        reference
    ):
        problems.append(
            f"payload from {payload.get(source_field)!r} differs from the "
            f"{reference.get(source_field)!r} payload of the same key"
        )
    return problems
