"""``many-rows`` and ``many-sources``: one closed-loop client, in process.

The client sends Q1..Q4 ``focused`` reports in round-robin, each with a
seeded six-machine list, and checks every answer and relevant-source set
against :class:`data.Oracle`. It measures whole Q1..Q4 cycles until
``--seconds`` have passed. The data lives in this process, so its CPU time
and peak RSS are the data holder's.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from typing import Dict, List, NamedTuple, Optional

from common import SpeedProbe, median, per_kind, proc_peak_rss_mb
from data import PaperData, requests
from layers import (
    hit_ratio,
    overhead,
    profile_layers,
    scale_times,
    summary_line,
    tracer_layers,
)
from tracing import Tracer

from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SQLiteBackend
from repro.core.report import RecencyReporter
from repro.engine.cache import get_cache
from repro.errors import TracError
from repro.obs.instrument import Telemetry

SETUP_REPEATS = 3
#: Speed probes taken between two reports.
PROBE_REPEATS = 3


class Spec(NamedTuple):
    """One in-process workload: data size, backend, the reporter's plan
    cache, the list pool (``None``: a fresh list per request) and the tail
    percentile."""

    sources: int
    ratio: int
    backend: str
    plan_cache_size: int
    pool_size: Optional[int]
    tail_q: int


SPECS = {
    # The paper sweep point: 200k Activity rows on the memory engine.
    "many-rows": Spec(2000, 100, "memory", 0, None, 80),
    # 100k rows over 20k sources on SQLite, reporter set up like a serving
    # worker; 5,000 lists overflow both the 256-entry resolved-query cache
    # and the 128-entry plan cache.
    "many-sources": Spec(20000, 5, "sqlite", 128, 5000, 90),
}


def _build(spec: Spec, seed: int):
    data = PaperData(spec.sources, spec.ratio, seed)
    if spec.backend == "memory":
        backend = MemoryBackend(data.catalog())
    else:
        backend = SQLiteBackend(data.catalog())
    data.load(backend)
    reporter = RecencyReporter(
        backend, create_temp_tables=False, plan_cache_size=spec.plan_cache_size
    )
    return data, backend, reporter


def setup(spec: Spec, seed: int, probe: SpeedProbe):
    """Generate, load and warm (one Q1 report), ``SETUP_REPEATS`` times;
    keep the last build. Each repeat is scaled by a speed probe taken
    right after it."""
    setups = []
    built = None
    warm = next(requests(seed + 1000003, spec.sources))
    for _ in range(SETUP_REPEATS):
        if built is not None:
            built[1].close()
        built = None
        gc.collect()
        start = time.perf_counter()
        built = _build(spec, seed)
        built[2].report(warm.sql)
        elapsed = time.perf_counter() - start
        setups.append(elapsed * probe.factor(probe.measure(5)))
    return built, median(setups)


def _one(reporter, oracle, request, failures: List[str]):
    """Run one report; returns (wall s, cpu s, report or None)."""
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        report = reporter.report(request.sql)
    except TracError as exc:
        failures.append(f"request {request.index}: {exc}")
        return time.perf_counter() - start, time.process_time() - cpu0, None
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    if not oracle.check(request, report.result.rows, report.relevant_source_ids):
        failures.append(f"request {request.index}: wrong answer or relevant set")
    return wall, cpu, report


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = SPECS[name]
    probe = SpeedProbe()
    (data, backend, reporter), setup_s = setup(spec, seed, probe)
    probe.samples.clear()
    stream = requests(seed, spec.sources, spec.pool_size)
    if trace:
        return _traced(name, spec, data, backend, reporter, stream, probe, seconds)

    failures: List[str] = []
    by_kind: Dict[int, List[float]] = {0: [], 1: [], 2: [], 3: []}
    walls: List[float] = []
    cpu_total = 0.0
    before = probe.measure(PROBE_REPEATS)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for _ in range(4):
            request = next(stream)
            wall, cpu, _ = _one(reporter, data.oracle, request, failures)
            # Scale by the machine's speed around this report.
            after = probe.measure(PROBE_REPEATS)
            factor = probe.factor((before + after) / 2)
            before = after
            by_kind[request.kind].append(wall * factor)
            walls.append(wall * factor)
            cpu_total += cpu * factor
    backend.close()
    return {
        "attempted": len(walls),
        "failures": failures,
        "values": {
            "setup_s": setup_s,
            "report_p50_ms": per_kind(by_kind) * 1000.0,
            "report_tail_ms": per_kind(by_kind, spec.tail_q) * 1000.0,
            "reports_per_s": len(walls) / sum(walls),
            "cpu_ms_per_report": cpu_total * 1000.0 / len(walls),
            "peak_rss_mb": proc_peak_rss_mb(os.getpid()),
        },
        "samples": len(walls),
    }


def _traced(name, spec, data, backend, reporter, stream, probe, seconds) -> dict:
    """Rotate through untraced, wrapped and profiled Q1..Q4 cycles.

    Wrapped cycles install the wrappers and give the span self times and
    the tracing overhead (wrapped minus untraced). Profiled cycles give the
    reporter a live telemetry, so reports carry their ``QueryProfile`` for
    the per-operator engine times; the program's own telemetry is thereby
    kept out of both the spans and the overhead."""
    tracer = Tracer()
    telemetry = Telemetry()
    failures: List[str] = []
    traced_ms: List[float] = []
    plain_ms: List[float] = []
    profiles: List[object] = []
    attempted = 0
    cache = get_cache()
    before = cache.stats()
    # Leave time for the SQLite mirror of the memory workload.
    mirror = spec.backend == "memory"
    deadline = time.perf_counter() + seconds * (0.7 if mirror else 1.0)
    cycle = 0
    while time.perf_counter() < deadline:
        mode = ("wrapped", "plain", "profiled")[cycle % 3]
        cycle += 1
        probe.measure(PROBE_REPEATS)
        if mode == "wrapped":
            tracer.install()
        elif mode == "profiled":
            reporter.telemetry = backend.telemetry = telemetry
        try:
            for _ in range(4):
                request = next(stream)
                wall, _, report = _one(reporter, data.oracle, request, failures)
                attempted += 1
                if mode == "wrapped":
                    traced_ms.append(wall * 1000.0)
                elif mode == "plain":
                    plain_ms.append(wall * 1000.0)
                elif report is not None and report.profile is not None:
                    profiles.append(report.profile)
        finally:
            if mode == "wrapped":
                tracer.uninstall()
            elif mode == "profiled":
                reporter.telemetry = backend.telemetry = None
    values = tracer_layers(tracer)
    values.update(profile_layers(profiles))
    values.update(overhead(traced_ms, plain_ms))
    values["engine.cache.resolve_hit_ratio"] = hit_ratio(before, cache.stats())
    if mirror:
        values["backends.sqlite.user_query_ms"] = _sqlite_mirror(data, stream)
    values = scale_times(values, probe.run_factor())
    backend.close()
    tracer.write(name)
    print(summary_line(name, values, values.get("trace.report_ms")), file=sys.stderr)
    return {
        "attempted": attempted,
        "failures": failures,
        "values": values,
        "samples": len(traced_ms),
    }


def _sqlite_mirror(data: PaperData, stream) -> float:
    """Mean SQLite time (ms) of one Q1..Q4 cycle's user queries over a
    SQLite copy of the same rows: the memory-vs-SQLite reference."""
    mirror = SQLiteBackend(data.catalog())
    try:
        data.load(mirror)
        times = []
        for _ in range(4):
            request = next(stream)
            with mirror.snapshot() as snap:
                start = time.perf_counter()
                snap.execute(request.sql)
                times.append(time.perf_counter() - start)
        return sum(times) * 1000.0 / len(times)
    finally:
        mirror.close()
