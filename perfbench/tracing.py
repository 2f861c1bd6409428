"""Benchmark-side tracing: wrappers around the layers' public entry points.

Nothing here touches ``src/``. :class:`Tracer` swaps each entry point, in
every loaded ``repro`` module that holds it, for a wrapper that records a
:class:`Span` (name, start, end, parent, request id) and calls through.
``uninstall`` puts the originals back, so an untraced stretch runs the
unmodified program.

Root spans are the report entry points (``RecencyReporter.report``,
``FederationCoordinator.report``); each root starts a new request id. A
span opened on a thread with no open span (the coordinator's fan-out
threads) takes the single open root as its parent.

:func:`self_times` gives each span's duration minus the part of it that
its children cover, so layer times add up to the report time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.backends.base import Backend, Snapshot

#: Entry points (defining module, function) and their span names. Each is
#: wrapped in every module that holds a reference to it.
FUNCTIONS = {
    ("repro.engine.cache", "resolve_cached"): "sqlparser.resolve",
    ("repro.core.relevance", "build_relevance_plan"): "core.plan",
    ("repro.predicates.dnf", "to_dnf"): "predicates.dnf",
    ("repro.predicates.classify", "classify_conjunct"): "predicates.classify",
    ("repro.predicates.satisfiability", "check_conjunction"): "predicates.satisfiability",
    ("repro.core.statistics", "zscore_split"): "core.statistics",
    ("repro.core.statistics", "describe"): "core.statistics",
}


#: Where traced runs write their spans, relative to the checkout root.
OUT_DIR = ".perfbench_out"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "request")

    def __init__(self, sid: int, name: str, parent: Optional["Span"], request: int) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.request = request
        self.start = 0.0
        self.end = 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent.sid if self.parent is not None else None,
            "request": self.request,
        }


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``user_query_first``: the first ``Snapshot.execute`` after a snapshot
    opens is the user query (the reporter's order); later ones are the
    recency subqueries and guards. A shard process sets it False, because
    a shard runs only recency subqueries.
    """

    def __init__(self, user_query_first: bool = True) -> None:
        self.spans: List[Span] = []
        self.user_query_first = user_query_first
        self.rpc_bytes = 0
        self.rpc_hedges = 0
        self.rpc_calls: Counter = Counter()  # (request, host, port) -> calls
        self.reports: Counter = Counter()  # work tallied from finished reports
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self._requests = 0
        self._open_roots: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, root: bool = False) -> Span:
        stack = self._stack()
        with self._lock:
            self._ids += 1
            if root:
                self._requests += 1
                span = Span(self._ids, name, None, self._requests)
                self._open_roots.append(span)
            else:
                parent = stack[-1] if stack else None
                if parent is None and len(self._open_roots) == 1:
                    parent = self._open_roots[0]
                span = Span(self._ids, name, parent, parent.request if parent else 0)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            if span.parent is None and span in self._open_roots:
                self._open_roots.remove(span)
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable, root: bool = False) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, root)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if root:
                tracer._count_report(result)
            return result

        return traced

    def _count_report(self, report) -> None:
        """Tally the work a finished report's plan and result describe."""
        plan = report.plan
        with self._lock:
            self.reports["reports"] += 1
            self.reports["subqueries"] += len(plan.subqueries)
            self.reports["guards"] += len({g for sub in plan.subqueries for g in sub.guards})
            self.reports["relevant"] += len(report.relevant_source_ids)

    # -- installing ---------------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every entry point (idempotent)."""
        if self._patches:
            return
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name.startswith("repro") and module is not None
        ]
        for (home, attr), span_name in FUNCTIONS.items():
            original = getattr(importlib.import_module(home), attr)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        for cls in Snapshot.__subclasses__():
            self._patch(cls, "execute", self._execute_wrapper(cls.__dict__["execute"]))
        for cls in Backend.__subclasses__():
            if "snapshot" in cls.__dict__:
                self._patch(cls, "snapshot", self._snapshot_wrapper(cls.__dict__["snapshot"]))
        self._install_optional()

    def _install_optional(self) -> None:
        report_mod = sys.modules.get("repro.core.report")
        if report_mod is not None:
            cls = report_mod.RecencyReporter
            self._patch(cls, "report", self.wrap("core.report", cls.__dict__["report"], root=True))
        coord_mod = sys.modules.get("repro.federation.coordinator")
        if coord_mod is not None:
            cls = coord_mod.FederationCoordinator
            self._patch(cls, "report", self.wrap("federation.report", cls.__dict__["report"], root=True))
            self._patch(cls, "plan_for", self.wrap("federation.plan", cls.__dict__["plan_for"]))
            rpc = sys.modules["repro.federation.rpc"]
            self._patch(rpc, "call", self._rpc_wrapper(rpc.__dict__["call"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- special wrappers -----------------------------------------------------

    def _snapshot_wrapper(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def snapshot(backend, *args, **kwargs):
            span = tracer._open("backends.snapshot")
            try:
                manager = original(backend, *args, **kwargs)
                view = manager.__enter__()
            finally:
                tracer._close(span)
            tracer._local.user_pending = tracer.user_query_first
            return _TimedExit(tracer, manager, view)

        return snapshot

    def _execute_wrapper(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def execute(snapshot, sql, *args, **kwargs):
            kind = "sqlite" if "sqlite" in type(snapshot).__module__ else "memory"
            user = getattr(tracer._local, "user_pending", False)
            tracer._local.user_pending = False
            role = "user" if user else "recency"
            span = tracer._open(f"backends.{kind}.{role}")
            try:
                return original(snapshot, sql, *args, **kwargs)
            finally:
                tracer._close(span)

        return execute

    def _rpc_wrapper(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def call(host, port, request, *args, **kwargs):
            hedge = threading.current_thread().name.startswith("fed-hedge")
            span = tracer._open("federation.rpc")
            reply = None
            try:
                reply = original(host, port, request, *args, **kwargs)
                return reply
            finally:
                tracer._close(span)
                size = len(json.dumps(request)) + (len(json.dumps(reply)) if reply else 0)
                with tracer._lock:
                    tracer.rpc_bytes += size
                    if hedge:
                        tracer.rpc_hedges += 1
                    else:
                        tracer.rpc_calls[(span.request, host, port)] += 1

        return call

    # -- output ---------------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.reports.clear()
            self.rpc_calls.clear()
            self.rpc_bytes = self.rpc_hedges = 0

    def write(self, name: str) -> None:
        """Write every span as one JSON object per line to
        ``.perfbench_out/spans-<name>.jsonl`` under the working directory."""
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"spans-{name}.jsonl"), "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


class _TimedExit:
    """Context manager returned by a traced ``Backend.snapshot``: times the
    release of the snapshot as part of ``backends.snapshot``."""

    def __init__(self, tracer: Tracer, manager, view) -> None:
        self._tracer = tracer
        self._manager = manager
        self._view = view

    def __enter__(self):
        return self._view

    def __exit__(self, *exc):
        span = self._tracer._open("backends.snapshot")
        try:
            return self._manager.__exit__(*exc)
        finally:
            self._tracer._close(span)
            self._tracer._local.user_pending = False


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Sum of self time (seconds) per span name."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent.sid].append(span)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        totals[span.name] += (span.end - span.start) - covered
    return totals


def counts(spans: List[Span]) -> Counter:
    return Counter(span.name for span in spans)


def durations(spans: List[Span], name: str) -> List[float]:
    return [span.end - span.start for span in spans if span.name == name]
