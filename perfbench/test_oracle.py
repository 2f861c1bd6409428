"""Pins for the benchmark's own logic.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q

* The plain-Python oracle of :mod:`data` agrees with the brute-force
  enumeration of ``repro.core.bruteforce`` (relevant sets) and with the
  engine (answers), at a size small enough to enumerate.
* Self time subtracts the part of a span its children cover, once.
"""

import random

import pytest
from data import LIST_LENGTH, PaperData, requests
from tracing import Span, self_times

from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SQLiteBackend
from repro.core.bruteforce import brute_force_relevant_sources
from repro.core.report import RecencyReporter
from repro.engine.cache import resolve_cached


@pytest.fixture(scope="module", params=[3, 11])
def small(request):
    data = PaperData(sources=9, ratio=3, seed=request.param)
    backend = MemoryBackend(data.catalog())
    data.load(backend)
    return data, backend, request.param


def test_oracle_matches_bruteforce_and_engine(small):
    data, backend, seed = small
    for request in _sample(seed, 40):
        count, relevant = data.oracle.expect(request.kind, request.machines)
        resolved = resolve_cached(request.sql, backend.catalog)
        exact = brute_force_relevant_sources(backend.db, resolved)
        assert relevant == exact & data.oracle.heartbeat, request.sql
        assert backend.execute(request.sql).rows == [(count,)], request.sql


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_oracle_matches_reporter(small, kind):
    data, memory, seed = small
    backend = memory if kind == "memory" else SQLiteBackend(data.catalog())
    if kind == "sqlite":
        data.load(backend)
    reporter = RecencyReporter(backend, create_temp_tables=False)
    for request in _sample(seed, 40):
        report = reporter.report(request.sql)
        assert data.oracle.check(request, report.result.rows, report.relevant_source_ids)


def test_oracle_rejects_a_wrong_relevant_set(small):
    data, backend, seed = small
    request = next(requests(seed, data.sources))
    count, relevant = data.oracle.expect(request.kind, request.machines)
    assert not data.oracle.check(request, [(count,)], set(relevant) | {"Tao999"})
    assert not data.oracle.check(request, [(count + 1,)], relevant)


def test_request_stream_is_seeded():
    first = [r.sql for r, _ in zip(requests(5, 100, pool_size=7), range(30))]
    again = [r.sql for r, _ in zip(requests(5, 100, pool_size=7), range(30))]
    other = [r.sql for r, _ in zip(requests(6, 100, pool_size=7), range(30))]
    assert first == again != other
    assert all(len(set(r.machines)) == LIST_LENGTH for r, _ in zip(requests(5, 100), range(20)))


def test_self_time_subtracts_covered_child_time_once():
    root = _span(1, "root", None, 0.0, 10.0)
    spans = [
        root,
        _span(2, "a", root, 1.0, 4.0),
        _span(3, "b", root, 3.0, 6.0),  # overlaps a: [3, 4] counts once
        _span(4, "c", root, 8.0, 12.0),  # runs past the root's end
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own["a"] == pytest.approx(3.0)


def _span(sid, name, parent, start, end):
    span = Span(sid, name, parent, 1)
    span.start, span.end = start, end
    return span


def _sample(seed, count):
    rng = random.Random(seed)
    stream = requests(seed, 9)
    return [next(stream) for _ in range(rng.randint(count, count + 3))]
