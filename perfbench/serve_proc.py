"""Server process of ``serve-ingest``: ``POST /v1/query`` plus an ingest stream.

Builds the 20 x 20 paper-schema data for ``--seed`` in a ``MemoryBackend``,
serves it through a ``QueryService`` mounted on an ``ObservatoryServer``,
and on command runs the scheduled ingest writer. Each ingest batch replaces
the oldest Activity rows with rows of the same machine and value carrying
new timestamps, and advances those machines' heartbeats, so table sizes,
answers and relevant-source sets never change.

Commands (one per line; see :mod:`procs`): ``ingest <batches/s> <rows>``,
``stop-ingest`` (returns the write timings), ``trace 1|0``, ``spans``
(returns and clears the per-layer span roll-up), ``quit``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import deque
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from data import PaperData  # noqa: E402
from layers import hit_ratio, tracer_layers  # noqa: E402
from procs import serve_commands  # noqa: E402
from tracing import Tracer  # noqa: E402

from repro.backends.memory import MemoryBackend  # noqa: E402
from repro.engine.cache import get_cache  # noqa: E402
from repro.obs import instrument as obs  # noqa: E402
from repro.obs.server import ObservatoryServer  # noqa: E402
from repro.serve import QueryService, ServeConfig  # noqa: E402

SOURCES = 20
RATIO = 20
WORKERS = 4


class IngestWriter:
    """Replace the oldest Activity rows on a fixed schedule."""

    def __init__(self, backend: MemoryBackend, activity) -> None:
        self.backend = backend
        self.oldest = deque(sorted(activity, key=lambda row: row[2]))
        self.clock = max(row[2] for row in activity)
        self.batch_s = []
        self.from_due_s = []
        self.rows_copied = 0
        self._stop = threading.Event()
        self._thread = None

    def start(self, rate: float, rows: int) -> None:
        self.batch_s, self.from_due_s, self.rows_copied = [], [], 0
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, args=(rate, rows), name="ingest", daemon=True
        )
        self._thread.start()

    def stop(self) -> dict:
        self._stop.set()
        self._thread.join(timeout=10.0)
        return {
            "batch_s": self.batch_s,
            "from_due_s": self.from_due_s,
            "rows_copied": self.rows_copied,
        }

    def _loop(self, rate: float, rows: int) -> None:
        start = time.perf_counter()
        index = 0
        while not self._stop.is_set():
            due = start + index / rate
            index += 1
            wait = due - time.perf_counter()
            if wait > 0 and self._stop.wait(wait):
                return
            began = time.perf_counter()
            self._batch(rows)
            done = time.perf_counter()
            self.batch_s.append(done - began)
            self.from_due_s.append(done - due)

    def _batch(self, rows: int) -> None:
        old = [self.oldest.popleft() for _ in range(rows)]
        new = []
        for mach_id, value, _ in old:
            self.clock += 1.0
            new.append((mach_id, value, self.clock))
        backend = self.backend
        activity = backend.db.relation("activity")
        heartbeat = backend.db.relation("heartbeat")
        # The backend's writer lock (re-entrant) makes the delete, insert
        # and heartbeat advance one step for every snapshot, so a report
        # sees the table before or after a whole batch.
        with backend._mutate_lock:
            self._write(
                activity,
                partial(backend.delete_rows, "activity", ["mach_id", "value", "event_time"], old),
            )
            self._write(activity, partial(backend.insert_rows, "activity", new))
            for mach_id, _, stamp in new:
                self._write(heartbeat, partial(backend.upsert_heartbeat, mach_id, stamp))
        self.oldest.extend(new)

    def _write(self, relation, write) -> None:
        """Run one write; when it replaced the relation's row list (a
        copy-on-write copy, or a delete that rebuilds the list), count the
        rows of the list it replaced."""
        before = relation.rows
        write()
        if relation.rows is not before:
            self.rows_copied += len(before)


def main() -> None:
    # The client keeps to the first CPU (see serving.run).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    seed = int(sys.argv[1])
    data = PaperData(SOURCES, RATIO, seed)
    backend = MemoryBackend(data.catalog())
    data.load(backend)
    service = QueryService(
        backend,
        ServeConfig(
            workers=WORKERS,
            queue_depth=64,
            # Admission stays out of the way: the client holds at most two
            # requests in flight, and the benchmark measures latency.
            tenant_rate=1e6,
            tenant_burst=1e6,
            max_inflight=256,
            plan_cache_size=128,
        ),
    )
    server = ObservatoryServer(obs.get_default(), query_service=service)
    server.start()
    writer = IngestWriter(backend, data.rows.activity)
    tracer = Tracer()
    cache_base = {}

    def ingest(words):
        writer.start(float(words[0]), int(words[1]))
        return {}

    def stop_ingest(words):
        return writer.stop()

    def trace(words):
        if words[0] == "1":
            tracer.install()
            if not cache_base:
                cache_base.update(get_cache().stats())
        else:
            tracer.uninstall()
        return {}

    def spans(words):
        reports = tracer.reports["reports"]
        values = tracer_layers(tracer)
        values["engine.cache.resolve_hit_ratio"] = hit_ratio(cache_base, get_cache().stats())
        tracer.write("serve-ingest")
        tracer.clear()
        cache_base.clear()
        return {"reports": reports, "values": values}

    try:
        serve_commands(
            {"ingest": ingest, "stop-ingest": stop_ingest, "trace": trace, "spans": spans},
            {"port": server.port, "workers": WORKERS},
        )
    finally:
        server.stop()
        service.close()


if __name__ == "__main__":
    main()
