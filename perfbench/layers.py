"""Metric names and units (from ``BENCHMARK.json``) and the per-layer
roll-up of a traced run.

Every workload prints every metric of its mode (``--trace 0``: the
end-to-end list, ``--trace 1``: the per-layer list). A layer a workload
does not exercise reads 0, as measured: no span of that layer ran.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from common import metric
from tracing import Tracer, counts, durations, self_times


def _declared() -> Dict[str, List[Tuple[str, str]]]:
    """Metric names and units per mode, as ``BENCHMARK.json`` declares them."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        kind: [(m["name"], m["unit"]) for m in spec[kind]]
        for kind in ("end_to_end", "per_layer")
    }


_DECLARED = _declared()
END_TO_END = _DECLARED["end_to_end"]
PER_LAYER = _DECLARED["per_layer"]

_UNITS = dict(END_TO_END + PER_LAYER)


def scale_times(values: Dict[str, float], factor: float) -> Dict[str, float]:
    """Times to reference-speed units (see ``common.SpeedProbe``)."""
    return {
        name: value * factor if _UNITS[name] == "ms" else value
        for name, value in values.items()
    }


def as_metrics(values: Dict[str, float], names: List) -> Dict[str, Dict[str, object]]:
    """Every name of ``names`` with its unit; absent values read 0."""
    unknown = set(values) - {name for name, _ in names}
    if unknown:
        raise KeyError(f"values for undeclared metrics: {sorted(unknown)}")
    return {name: metric(values.get(name, 0.0), unit) for name, unit in names}


def tracer_layers(tracer: Tracer) -> Dict[str, float]:
    """Per-report layer times (ms), counts and ratios from one process's
    tracer: self time per span name, plus the work its reports tallied."""
    reports = tracer.reports["reports"]
    if reports <= 0:
        return {}
    spans = tracer.spans
    own = self_times(spans)
    seen = counts(spans)

    def per_report_ms(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names) * 1000.0 / reports

    values = {
        "sqlparser.parse_resolve_ms": per_report_ms("sqlparser.resolve"),
        "predicates.dnf_ms": per_report_ms("predicates.dnf"),
        "predicates.classify_ms": per_report_ms("predicates.classify"),
        "predicates.satisfiability_ms": per_report_ms("predicates.satisfiability"),
        "predicates.sat_checks_per_report": seen["predicates.satisfiability"] / reports,
        "core.plan_ms": per_report_ms("core.plan"),
        # A report that built no plan took it from the reporter's cache.
        "core.plan_cache_hit_ratio": max(0.0, 1.0 - seen["core.plan"] / reports),
        "core.recency_query_ms": per_report_ms(
            "backends.memory.recency", "backends.sqlite.recency"
        ),
        "core.subqueries_per_report": tracer.reports["subqueries"] / reports,
        "core.guard_queries_per_report": tracer.reports["guards"] / reports,
        "core.relevant_sources_per_report": tracer.reports["relevant"] / reports,
        "core.statistics_ms": per_report_ms("core.statistics"),
        "core.report_self_ms": per_report_ms("core.report"),
        "engine.user_query_ms": per_report_ms("backends.memory.user"),
        "backends.sqlite.user_query_ms": per_report_ms("backends.sqlite.user"),
        "backends.snapshot_ms": per_report_ms("backends.snapshot"),
    }
    if seen["federation.report"]:
        rpc = durations(spans, "federation.rpc")
        values["federation.plan_ms"] = (
            sum(durations(spans, "federation.plan")) * 1000.0 / reports
        )
        values["federation.rpc_ms"] = sum(rpc) * 1000.0 / len(rpc) if rpc else 0.0
        values["federation.rpc_bytes_per_report"] = tracer.rpc_bytes / reports
        values["federation.coordinator_self_ms"] = per_report_ms("federation.report")
        values["federation.hedges_per_report"] = tracer.rpc_hedges / reports
        values["federation.retries_per_report"] = (
            sum(calls - 1 for calls in tracer.rpc_calls.values()) / reports
        )
    return values


def shard_layers(tracer: Tracer) -> Dict[str, float]:
    """Totals (ms) of a shard process's spans, to be divided by the
    coordinator's report count."""
    own = self_times(tracer.spans)
    return {
        "exec_ms": sum(
            v for k, v in own.items() if k.startswith("backends.") or k.startswith("sqlparser.")
        )
        * 1000.0
    }


def profile_layers(profiles: List[object]) -> Dict[str, float]:
    """Per-operator engine times from the reports' ``QueryProfile``s."""
    if not profiles:
        return {}
    seconds = {"scan": 0.0, "join": 0.0, "filter": 0.0}
    scanned = 0
    returned = 0
    for profile in profiles:
        for op in profile.operators:
            if op.op in seconds:
                seconds[op.op] += op.seconds
            if op.op == "scan":
                scanned += op.rows_out
        returned += max(profile.rows, 1)
    n = len(profiles)
    return {
        "engine.scan_ms": seconds["scan"] * 1000.0 / n,
        "engine.join_ms": seconds["join"] * 1000.0 / n,
        "engine.filter_ms": seconds["filter"] * 1000.0 / n,
        "engine.rows_scanned_per_row_returned": scanned / returned,
    }


def hit_ratio(before: Dict[str, int], after: Dict[str, int]) -> float:
    """Resolved-query cache hits over lookups between two ``stats()``."""
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / max(1, hits + misses)


def overhead(traced_ms: List[float], untraced_ms: List[float]) -> Dict[str, float]:
    """Tracing overhead: mean traced minus mean untraced latency."""
    if not traced_ms or not untraced_ms:
        return {}
    traced = sum(traced_ms) / len(traced_ms)
    plain = sum(untraced_ms) / len(untraced_ms)
    return {
        "trace.report_ms": traced,
        "trace.overhead_ms": traced - plain,
        "trace.overhead_pct": (traced / plain - 1.0) * 100.0 if plain else 0.0,
    }


def summary_line(workload: str, values: Dict[str, float], report_ms: Optional[float]) -> str:
    """A human-readable layer split (self time per report) for stderr."""
    keys = [
        "sqlparser.parse_resolve_ms",
        "predicates.dnf_ms",
        "predicates.classify_ms",
        "predicates.satisfiability_ms",
        "core.plan_ms",
        "engine.user_query_ms",
        "backends.sqlite.user_query_ms",
        "core.recency_query_ms",
        "core.statistics_ms",
        "backends.snapshot_ms",
        "core.report_self_ms",
        "federation.coordinator_self_ms",
        "federation.shard_exec_ms",
        "serve.report_ms",
        "serve.queue_wait_ms",
        "serve.http_json_ms",
    ]
    parts = [f"{k}={values[k]:.3f}" for k in keys if values.get(k)]
    head = f"[{workload}] report={report_ms:.3f}ms " if report_ms else f"[{workload}] "
    return head + " ".join(parts)
