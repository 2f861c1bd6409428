"""``federated``: one closed-loop client on a ``FederationCoordinator``.

Two shard processes (:mod:`shard_proc`) hold frozen 100-machine grid
partitions. The coordinator in this process plans each query over the
union catalog, fans the fragments out over RPC and merges them. Every
report must be complete and carry exactly the relevant-source set a
single-process ``RecencyReporter`` computes over the union of the same
rows (:func:`griddata.union_backend`).

The shards hold the data, so ``cpu_ms_per_report`` and ``peak_rss_mb`` are
theirs (summed), read from ``/proc``.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional

from common import SpeedProbe, median, per_kind
from griddata import SHAPES, SHARDS, requests, union_backend
from layers import overhead, scale_times, summary_line, tracer_layers
from procs import Child
from tracing import Tracer

from repro.core.report import RecencyReporter
from repro.errors import TracError
from repro.federation import FederationCoordinator, ShardRegistry

SETUP_REPEATS = 3
#: Tail percentile, per query shape. A shape gets about 1,000 reports a
#: run, too few for p99 to leave ten beyond it in every run.
TAIL_Q = 90
#: Speed probes taken between two cycles of reports.
PROBE_REPEATS = 3


class Oracle:
    """Relevant-source sets from a single-process reporter over the union."""

    def __init__(self, seed: int) -> None:
        self.reporter = RecencyReporter(union_backend(seed), create_temp_tables=False)
        self._memo: Dict[str, frozenset] = {}

    def relevant(self, sql: str) -> frozenset:
        found = self._memo.get(sql)
        if found is None:
            found = frozenset(self.reporter.report(sql).relevant_source_ids)
            self._memo[sql] = found
        return found


def _start(seed: int):
    shards = [Child("shard_proc.py", [str(seed), str(k)]) for k in range(SHARDS)]
    registry = ShardRegistry()
    for shard in shards:
        registry.register(shard.ready["host"], shard.ready["port"])
    coordinator = FederationCoordinator(registry)
    for shape in range(len(SHAPES)):
        coordinator.report(SHAPES[shape].format(value="idle", machine="m1"))
    return shards, coordinator


def _stop(shards: List[Child]) -> None:
    for shard in shards:
        shard.stop()


def _one(coordinator, oracle: Oracle, sql: str, failures: List[str]) -> float:
    start = time.perf_counter()
    try:
        report = coordinator.report(sql)
    except TracError as exc:
        failures.append(f"{sql}: {exc}")
        return time.perf_counter() - start
    wall = time.perf_counter() - start
    if not report.complete:
        failures.append(f"{sql}: incomplete report, missing {report.missing_shards}")
    elif report.relevant_source_ids != oracle.relevant(sql):
        failures.append(f"{sql}: relevant set differs from the single-process oracle")
    return wall


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    probe = SpeedProbe()
    setups: List[float] = []
    shards: Optional[List[Child]] = None
    try:
        for _ in range(SETUP_REPEATS):
            if shards is not None:
                _stop(shards)
                shards = None
            before = probe.measure(PROBE_REPEATS)
            start = time.perf_counter()
            shards, coordinator = _start(seed)
            elapsed = time.perf_counter() - start
            after = probe.measure(PROBE_REPEATS)
            setups.append(elapsed * probe.factor((before + after) / 2))
        oracle = Oracle(seed)
        stream = requests(seed)
        if trace:
            return _traced(name, shards, coordinator, oracle, stream, probe, seconds)
        return _untraced(shards, coordinator, oracle, stream, probe, seconds, median(setups))
    finally:
        if shards is not None:
            _stop(shards)


def _next_cycle(oracle: Oracle, stream) -> List[tuple]:
    """The next request of every shape, with the oracle's answer computed
    beforehand so no oracle work falls inside a timed or traced stretch."""
    cycle = [next(stream) for _ in SHAPES]
    for _, sql in cycle:
        oracle.relevant(sql)
    return cycle


def _cycle(coordinator, oracle, cycle, failures) -> List[tuple]:
    """Report every request of ``cycle``: [(kind, wall seconds)]."""
    return [(kind, _one(coordinator, oracle, sql, failures)) for kind, sql in cycle]


def _untraced(shards, coordinator, oracle, stream, probe, seconds, setup_s) -> dict:
    failures: List[str] = []
    by_kind: Dict[int, List[float]] = {k: [] for k in range(len(SHAPES))}
    walls: List[float] = []
    raw_total = 0.0
    cpu0 = sum(shard.cpu_seconds() for shard in shards)
    before = probe.measure(PROBE_REPEATS)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        cycle = _next_cycle(oracle, stream)
        timed = _cycle(coordinator, oracle, cycle, failures)
        # Scale by the machine's speed around this cycle.
        after = probe.measure(PROBE_REPEATS)
        factor = probe.factor((before + after) / 2)
        before = after
        for kind, wall in timed:
            by_kind[kind].append(wall * factor)
            walls.append(wall * factor)
            raw_total += wall
    # The speed scale in effect over the run, weighted by time.
    cpu = (sum(shard.cpu_seconds() for shard in shards) - cpu0) * sum(walls) / raw_total
    return {
        "attempted": len(walls),
        "failures": failures,
        "samples": len(walls),
        "values": {
            "setup_s": setup_s,
            "report_p50_ms": per_kind(by_kind) * 1000.0,
            "report_tail_ms": per_kind(by_kind, TAIL_Q) * 1000.0,
            "reports_per_s": len(walls) / sum(walls),
            "cpu_ms_per_report": cpu * 1000.0 / len(walls),
            "peak_rss_mb": sum(shard.peak_rss_mb() for shard in shards),
        },
    }


def _traced(name, shards, coordinator, oracle, stream, probe, seconds) -> dict:
    """Alternate traced and untraced cycles of every shape; the shards
    trace their fragment execution in the traced cycles."""
    tracer = Tracer()
    failures: List[str] = []
    traced_ms: List[float] = []
    plain_ms: List[float] = []
    deadline = time.perf_counter() + seconds
    cycles = 0
    while time.perf_counter() < deadline:
        traced = cycles % 2 == 0
        cycles += 1
        cycle = _next_cycle(oracle, stream)
        probe.measure(PROBE_REPEATS)
        if traced:
            tracer.install()
            for shard in shards:
                shard.command("trace", 1)
        try:
            walls = _cycle(coordinator, oracle, cycle, failures)
        finally:
            if traced:
                tracer.uninstall()
                for shard in shards:
                    shard.command("trace", 0)
        (traced_ms if traced else plain_ms).extend(w * 1000.0 for _, w in walls)
    values = tracer_layers(tracer)
    tracer.write(name)
    shard_ms = sum(shard.command("spans")["exec_ms"] for shard in shards)
    values["federation.shard_exec_ms"] = shard_ms / max(1, len(traced_ms))
    values.update(overhead(traced_ms, plain_ms))
    values = scale_times(values, probe.run_factor())
    print(summary_line(name, values, values.get("trace.report_ms")), file=sys.stderr)
    return {
        "attempted": len(traced_ms) + len(plain_ms),
        "failures": failures,
        "samples": len(traced_ms),
        "values": values,
    }
