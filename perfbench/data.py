"""Seeded inputs for the paper-schema workloads and their output oracle.

The rows come from :mod:`repro.workload` (Activity / Routing / Heartbeat,
sources ``Tao1..TaoN``, routing to the successor). Requests are Q1–Q4 of
Section 5.2 over seeded six-machine lists. The oracle computes every
request's answer and relevant-source set in plain Python from the
generated rows, independently of the reporter:

* Q1 (``IN L``): relevant ``L ∩ H``; answer = idle rows of ``L``.
* Q2 (``NOT IN L``): relevant ``H \\ L``; answer = the other idle rows.
* Q3 (join, ``R.mach_id IN L``): relevant ``L ∪ nbr(L)``; answer = idle
  rows of the neighbours of ``L``.
* Q4 (join, ``NOT IN L``): relevant ``(H \\ L) ∪ nbr(H \\ L)``; answer =
  idle rows of the neighbours of the other routing rows.

``H`` is the set of heartbeat sources and ``nbr`` the routing map.
``perfbench/test_oracle.py`` pins these formulas against the brute-force
enumeration of :mod:`repro.core.bruteforce`.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.workload import (
    WorkloadConfig,
    generate_workload,
    load_workload,
    workload_catalog,
)
from repro.workload.generator import source_name
from repro.workload.queries import (
    q1_selective_single,
    q2_nonselective_single,
    q3_selective_join,
    q4_nonselective_join,
)

QUERY_FUNCTIONS = (
    q1_selective_single,
    q2_nonselective_single,
    q3_selective_join,
    q4_nonselective_join,
)

#: Machines named by each request's IN / NOT IN list (the paper's six).
LIST_LENGTH = 6

#: Sources whose heartbeat is frozen far in the past, so the z-score split
#: has outliers to find.
EXCEPTIONAL_PER_WORKLOAD = 2


class Request:
    """One report request: query kind (0..3 for Q1..Q4), machines, SQL."""

    __slots__ = ("index", "kind", "machines", "sql")

    def __init__(self, index: int, kind: int, machines: Tuple[str, ...]) -> None:
        self.index = index
        self.kind = kind
        self.machines = machines
        self.sql = QUERY_FUNCTIONS[kind](list(machines))


class PaperData:
    """Generated rows for ``sources`` x ``ratio`` Activity rows."""

    def __init__(self, sources: int, ratio: int, seed: int) -> None:
        rng = random.Random(seed)
        exceptional = rng.sample(range(1, sources + 1), EXCEPTIONAL_PER_WORKLOAD)
        self.sources = sources
        self.config = WorkloadConfig(
            num_sources=sources,
            data_ratio=ratio,
            seed=seed,
            exceptional_sources=exceptional,
        )
        self.rows = generate_workload(self.config)
        self.oracle = Oracle(self.rows.activity, self.rows.routing, self.rows.heartbeat)

    def load(self, backend) -> None:
        backend.create_tables()
        load_workload(backend, self.rows)

    def catalog(self):
        return workload_catalog(self.sources)


def requests(
    seed: int, sources: int, pool_size: Optional[int] = None
) -> Iterator[Request]:
    """The seeded request sequence: Q1..Q4 round-robin, each with a list of
    six distinct machines, fresh per request or drawn from a seeded pool of
    ``pool_size`` lists."""
    rng = random.Random(seed * 7919 + 1)

    def draw() -> Tuple[str, ...]:
        picked = sorted(rng.sample(range(1, sources + 1), LIST_LENGTH))
        return tuple(source_name(i) for i in picked)

    pool = [draw() for _ in range(pool_size)] if pool_size else None
    index = 0
    while True:
        machines = pool[rng.randrange(len(pool))] if pool else draw()
        yield Request(index, index % 4, machines)
        index += 1


class Oracle:
    """Expected answer and relevant-source set of a Q1..Q4 request."""

    def __init__(self, activity, routing, heartbeat) -> None:
        self.idle = Counter(m for m, value, _ in activity if value == "idle")
        self.nbr = {m: n for m, n, _ in routing}
        self.heartbeat: FrozenSet[str] = frozenset(s for s, _ in heartbeat)
        self.total_idle = sum(self.idle.values())
        self.total_join_idle = sum(self.idle[n] for n in self.nbr.values())

    def expect(self, kind: int, machines) -> Tuple[int, FrozenSet[str]]:
        listed = frozenset(machines)
        if kind == 0:
            return sum(self.idle[m] for m in listed), listed & self.heartbeat
        if kind == 1:
            return (
                self.total_idle - sum(self.idle[m] for m in listed),
                self.heartbeat - listed,
            )
        routed = [m for m in listed if m in self.nbr]
        via_list = sum(self.idle[self.nbr[m]] for m in routed)
        if kind == 2:
            return via_list, listed | {self.nbr[m] for m in routed}
        rest = self.heartbeat - listed
        return (
            self.total_join_idle - via_list,
            rest | {self.nbr[m] for m in rest if m in self.nbr},
        )

    def check(self, request: Request, rows: List, relevant) -> bool:
        """Whether a report's answer rows and relevant set are the expected."""
        count, sources = self.expect(request.kind, request.machines)
        return [tuple(r) for r in rows] == [(count,)] and set(relevant) == sources
