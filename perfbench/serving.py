"""``serve-ingest``: HTTP clients against a server process, with ingest.

The server (:mod:`serve_proc`) holds 20 x 20 rows and runs a scheduled
ingest stream throughout. This process sends ``POST /v1/query`` requests
over a Q1..Q4 mix of 64 SQL texts, with at most two connections in flight,
and checks every response against :class:`data.Oracle`.

Open-loop phases send on a fixed schedule (evenly spaced) and time each
request from its due time, so a stalled server is charged for every request
that waited behind it. Rates are reference-speed rates (see
``common.SpeedProbe``).

End-to-end metrics (untraced run):

* ``report_p50_ms`` / ``report_tail_ms``: p50 / p90 per query kind of one
  closed-loop connection, averaged over the kinds;
* ``reports_per_s``: completed requests per second of that connection;
* ``cpu_ms_per_report`` / ``peak_rss_mb``: of the server process.

The traced run adds the serving split at the light rate, the layer split,
latency at the heavy rate and the knee: the highest rate of a fixed
ladder that holds p99 <= 100 ms (misses count as infinitely late) with no
backlog left growing. Those three are per-layer metrics because their
run-to-run spread on a shared 2-core machine is wider than any bound an
end-to-end metric may carry.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import SLO_MS, SpeedProbe, mean, median, per_kind, percentile
from data import PaperData, requests
from layers import overhead, scale_times, summary_line
from procs import Child

SOURCES = 20
RATIO = 20
SQL_TEXTS = 64
CONNECTIONS = 2
SETUP_REPEATS = 3
#: Tail percentile, per query kind. A kind gets about 600 requests a run,
#: too few for p99 to leave ten beyond it.
TAIL_Q = 90
#: Speed probes taken before each open-loop phase, and between two
#: closed-loop requests.
PROBE_REPEATS = 15
PROBE_BRACKET = 3

#: Offered rates (req/s): about 1/4 and 3/4 of the knee measured at the
#: seed commit on a 2-core machine.
LIGHT_RATE = 100.0
HEAVY_RATE = 300.0
#: Untraced/traced block pairs at the light rate in the traced run.
TRACE_BLOCKS = 2
#: Ladder above the heavy rate: each rung 10% above the last.
LADDER_STEP = 1.1
RUNG_SECONDS = 1.0
#: Ingest stream: batches per second and Activity rows replaced per batch.
#: The write rate of a 20-machine ``GridSimulator`` stepped by a
#: ``ShardServer`` at its default ``step_interval`` of 0.02 s: 50 ticks a
#: second, each writing 0.84-0.95 Activity rows (seeds 1-3, 500 ticks).
INGEST_RATE = 50.0
INGEST_ROWS = 1
#: A run is invalid when the generator itself sent this late (p99, ms).
GENERATOR_LAG_LIMIT_MS = 5.0


class Sample:
    __slots__ = ("request", "due", "sent", "done", "lag", "status", "body")

    def __init__(self, request, due: float) -> None:
        self.request = request
        self.due = due
        self.sent = self.done = self.lag = 0.0
        self.status = 0
        self.body = b""

    @property
    def latency_ms(self) -> float:
        """From due time to the last response byte; a failure is a miss."""
        if self.status != 200:
            return float("inf")
        return (self.done - self.due) * 1000.0


class Phase:
    """One open-loop phase at a fixed reference-speed rate.

    ``factor`` is the speed probe's scale at the start of the phase: the
    requests went out at ``rate * factor`` per second, and latencies are
    reported multiplied by ``factor`` (see ``common.SpeedProbe``)."""

    def __init__(
        self, rate: float, factor: float, samples: List[Sample], aborted: bool
    ) -> None:
        self.rate = rate
        self.factor = factor
        self.samples = samples
        self.aborted = aborted

    def sent(self) -> List[Sample]:
        return [s for s in self.samples if s.sent]

    def latencies_ms(self) -> List[float]:
        return [s.latency_ms * self.factor for s in self.sent()]

    def holds_slo(self) -> bool:
        if self.aborted:
            return False
        latencies = self.latencies_ms()
        if percentile(latencies, 99) > SLO_MS:
            return False
        # No growing backlog: the last tenth is as timely as the SLO asks.
        tail = latencies[-max(1, len(latencies) // 10):]
        return median(tail) <= SLO_MS


class Client:
    """HTTP client of the benchmark: open-loop phases and a closed loop."""

    def __init__(self, port: int, texts: List, seed: int, probe: SpeedProbe) -> None:
        self.port = port
        self.texts = texts
        self.rng = random.Random(seed)
        self.probe = probe

    def _post(self, sample: Sample) -> None:
        body = json.dumps({"sql": sample.request.sql}).encode()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)
        try:
            conn.request(
                "POST", "/v1/query", body, {"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            sample.body = response.read()
            sample.status = response.status
        except (OSError, http.client.HTTPException):
            sample.status = 0
        finally:
            conn.close()

    def phase(self, rate: float, seconds: float, abort_on_miss: bool = False) -> Phase:
        """Offer ``rate`` reference-speed requests per second for ``seconds``."""
        factor = self.probe.factor(self.probe.measure(PROBE_REPEATS))
        offered = rate * factor
        count = max(1, int(offered * seconds))
        start = time.perf_counter() + 0.01
        samples = [
            Sample(self.texts[self.rng.randrange(len(self.texts))], start + i / offered)
            for i in range(count)
        ]
        lock = threading.Lock()
        state = {"next": 0, "misses": 0, "abort": False}
        miss_budget = max(1, count // 100)

        def sender() -> None:
            while True:
                with lock:
                    index = state["next"]
                    if index >= count or state["abort"]:
                        return
                    state["next"] = index + 1
                sample = samples[index]
                free_at = time.perf_counter()
                wait = sample.due - free_at
                if wait > 0:
                    time.sleep(wait)
                sample.sent = time.perf_counter()
                sample.lag = sample.sent - max(sample.due, free_at)
                self._post(sample)
                sample.done = time.perf_counter()
                if abort_on_miss and sample.latency_ms * factor > SLO_MS:
                    with lock:
                        state["misses"] += 1
                        if state["misses"] > miss_budget:
                            state["abort"] = True

        threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return Phase(rate, factor, samples, state["abort"])

    def sequential(self, seconds: float) -> Tuple[List[Sample], List[float]]:
        """One connection, closed loop: each request is sent when the last
        returns, with a speed probe between two requests. Returns the
        samples and their reference-speed latencies (ms)."""
        samples: List[Sample] = []
        scaled: List[float] = []
        before = self.probe.measure(PROBE_BRACKET)
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            request = self.texts[self.rng.randrange(len(self.texts))]
            sample = Sample(request, time.perf_counter())
            sample.sent = sample.due
            self._post(sample)
            sample.done = time.perf_counter()
            after = self.probe.measure(PROBE_BRACKET)
            samples.append(sample)
            scaled.append(sample.latency_ms * self.probe.factor((before + after) / 2))
            before = after
        return samples, scaled


def _texts(seed: int) -> List:
    """64 SQL texts: 16 seeded lists, each as Q1..Q4."""
    stream = requests(seed, SOURCES)
    return [next(stream) for _ in range(SQL_TEXTS)]


def _start_server(seed: int, texts: List, probe: SpeedProbe) -> Child:
    """Launch the server, warm every worker's plan cache, start ingest.

    Each worker keeps its own plan cache, and the pool hands one request at
    a time to its idle workers in turn. So the warm-up sends the texts once
    per worker, shifted by one text each pass, which gives every worker
    every text."""
    server = Child("serve_proc.py", [str(seed)])
    client = Client(server.ready["port"], texts, seed, probe)
    workers = server.ready["workers"]
    warm = [texts[(i + shift) % len(texts)] for shift in range(workers) for i in range(len(texts))]
    for request in warm:
        sample = Sample(request, time.perf_counter())
        client._post(sample)
        if sample.status != 200:
            server.stop()
            raise RuntimeError(f"warm-up request failed with status {sample.status}")
    server.command("ingest", INGEST_RATE, INGEST_ROWS)
    return server


def _check(samples: List[Sample], oracle, failures: List[str]) -> Dict[str, List[float]]:
    """Check every sent request's response; collect server-side timings."""
    report_ms: List[float] = []
    queue_ms: List[float] = []
    http_ms: List[float] = []
    for sample in samples:
        request = sample.request
        if sample.status != 200:
            failures.append(f"{request.sql[:40]}...: HTTP status {sample.status}")
            continue
        doc = json.loads(sample.body)
        if not oracle.check(request, doc["rows"], doc["relevant_sources"]):
            failures.append(f"{request.sql[:40]}...: wrong answer or relevant set")
            continue
        served = doc["timings"]["total"] * 1000.0
        queued = doc["queue_wait_seconds"] * 1000.0
        report_ms.append(served)
        queue_ms.append(queued)
        http_ms.append((sample.done - sample.sent) * 1000.0 - served - queued)
    return {"report": report_ms, "queue": queue_ms, "http": http_ms}


def _write_stats(writes: dict) -> Dict[str, float]:
    batches = writes["batch_s"]
    if not batches:
        return {}
    due = [s * 1000.0 for s in writes["from_due_s"]]
    return {
        "backends.write_batch_ms": sum(batches) * 1000.0 / len(batches),
        "backends.write_p50_ms": percentile(due, 50),
        "backends.write_p99_ms": percentile(due, 99),
        "backends.cow_rows_copied_per_batch": writes["rows_copied"] / len(batches),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # The client keeps to the first CPU and the server to the last (see
    # serve_proc), so the scheduler does not move them onto one core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    data = PaperData(SOURCES, RATIO, seed)
    texts = _texts(seed)
    probe = SpeedProbe()
    setups: List[float] = []
    server: Optional[Child] = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.command("stop-ingest")
                server.stop()
                server = None
            before = probe.measure(PROBE_REPEATS)
            start = time.perf_counter()
            server = _start_server(seed, texts, probe)
            elapsed = time.perf_counter() - start
            after = probe.measure(PROBE_REPEATS)
            setups.append(elapsed * probe.factor((before + after) / 2))
        client = Client(server.ready["port"], texts, seed, probe)
        if trace:
            return _traced(name, server, client, data, seconds)
        return _untraced(server, client, data, seconds, median(setups))
    finally:
        if server is not None:
            server.stop()


def _generator_lag(sent: List[Sample]) -> float:
    """p99 of how late the generator itself sent (ms); warns when the run
    is invalid because the generator, not the server, fell behind."""
    lag = percentile([s.lag * 1000.0 for s in sent], 99)
    if lag > GENERATOR_LAG_LIMIT_MS:
        print(f"invalid run: generator p99 lag {lag:.2f} ms", file=sys.stderr)
    return lag


def _untraced(server: Child, client, data, seconds: float, setup_s: float) -> dict:
    cpu0 = server.cpu_seconds()
    sent, latencies = client.sequential(seconds)
    server.command("stop-ingest")
    # The speed scale in effect over the run, weighted by time.
    factor = sum(latencies) / sum(s.latency_ms for s in sent)
    cpu = (server.cpu_seconds() - cpu0) * factor
    failures: List[str] = []
    _check(sent, data.oracle, failures)
    by_kind: Dict[int, List[float]] = {}
    for sample, ms in zip(sent, latencies):
        by_kind.setdefault(sample.request.kind, []).append(ms)
    return {
        "attempted": len(sent),
        "failures": failures,
        "samples": len(sent),
        "values": {
            "setup_s": setup_s,
            "report_p50_ms": per_kind(by_kind),
            "report_tail_ms": per_kind(by_kind, TAIL_Q),
            "reports_per_s": len(latencies) * 1000.0 / sum(latencies),
            "cpu_ms_per_report": cpu * 1000.0 / len(sent),
            "peak_rss_mb": server.peak_rss_mb(),
        },
    }


def _knee(client, heavy: Phase, seconds: float) -> Tuple[float, List[Phase]]:
    """Climb the ladder from the heavy phase, its first rung, for at most
    ``seconds``; the knee is the highest rate that held the SLO (0 when
    none did)."""
    phases: List[Phase] = []
    if not heavy.holds_slo():
        return 0.0, phases
    knee = rate = heavy.rate
    end = time.perf_counter() + seconds
    while time.perf_counter() + RUNG_SECONDS <= end:
        rate *= LADDER_STEP
        rung = client.phase(rate, RUNG_SECONDS, abort_on_miss=True)
        phases.append(rung)
        if not rung.holds_slo():
            break
        knee = rate
    return knee, phases


def _traced(name: str, server: Child, client, data, seconds: float) -> dict:
    """Light rate in alternating untraced and traced blocks, then the heavy
    rate and the knee ladder.

    The serving split (report, queue wait, HTTP + JSON) comes from the
    responses of the untraced blocks, the layer split from the spans of the
    traced ones. The overhead compares the server-side report time of the
    two; alternating them keeps a drift in machine speed out of it."""
    plain: List[Sample] = []
    traced: List[Sample] = []
    for _ in range(TRACE_BLOCKS):
        plain += client.phase(LIGHT_RATE, seconds * 0.2 / TRACE_BLOCKS).sent()
        server.command("trace", 1)
        traced += client.phase(LIGHT_RATE, seconds * 0.2 / TRACE_BLOCKS).sent()
        server.command("trace", 0)
    layers = server.command("spans")
    heavy = client.phase(HEAVY_RATE, seconds * 0.2)
    knee, ladder = _knee(client, heavy, seconds * 0.4)
    writes = server.command("stop-ingest")
    failures: List[str] = []
    split = _check(plain, data.oracle, failures)
    traced_split = _check(traced, data.oracle, failures)
    loaded = [s for phase in [heavy] + ladder for s in phase.sent()]
    _check(loaded, data.oracle, failures)
    values = dict(layers["values"])
    values.update(_write_stats(writes))
    values.update(overhead(traced_split["report"], split["report"]))
    sent = plain + traced + loaded
    heavy_ms = [s.latency_ms for s in heavy.sent()]
    lag = _generator_lag(plain + traced + heavy.sent())
    values.update(
        {
            "serve.report_ms": mean(split["report"]),
            "serve.queue_wait_ms": mean(split["queue"]),
            "serve.http_json_ms": mean(split["http"]),
            "serve.shed_ratio": sum(1 for s in sent if s.status == 429) / len(sent),
            "serve.generator_lag_ms": lag,
            "serve.heavy_p50_ms": percentile(heavy_ms, 50),
            "serve.heavy_p99_ms": percentile(heavy_ms, 99),
        }
    )
    values = scale_times(values, client.probe.run_factor())
    values["serve.knee_rps"] = knee
    print(summary_line(name, values, values["trace.report_ms"]), file=sys.stderr)
    return {
        "attempted": len(sent),
        "failures": failures,
        "valid": lag <= GENERATOR_LAG_LIMIT_MS,
        "samples": len(traced),
        "values": values,
    }
