"""Seeded grid partitions and query shapes for the ``federated`` workload.

Each shard is a ``GridSimulator`` partition of 100 machines with a
disjoint id range, stepped a fixed number of ticks and then frozen. The
oracle steps identically seeded simulators the same number of ticks in the
benchmark process and unions their rows into one backend.

The query shapes are those of ``tests/federation/test_differential.py``,
with their literals drawn from the request seed.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from repro.backends.memory import MemoryBackend
from repro.grid.simulator import GridSimulator, SimulationConfig, monitoring_catalog

SHARDS = 2
MACHINES_PER_SHARD = 100
TICKS = 300

SHAPES = (
    "SELECT * FROM activity WHERE value = '{value}'",
    "SELECT * FROM activity",
    "SELECT r.mach_id FROM routing r WHERE r.neighbor = '{machine}'",
    "SELECT s.job_id FROM sched_jobs s, run_jobs r "
    "WHERE s.job_id = r.job_id AND s.remote_machine_id = '{machine}'",
    # Unsatisfiable: value is constrained to {'idle', 'busy'}.
    "SELECT * FROM activity WHERE value = 'on-fire'",
)


def shard_config(seed: int, index: int) -> SimulationConfig:
    return SimulationConfig(
        num_machines=MACHINES_PER_SHARD,
        seed=seed * 101 + index,
        machine_id_start=index * MACHINES_PER_SHARD + 1,
    )


def stepped_simulator(seed: int, index: int) -> GridSimulator:
    sim = GridSimulator(shard_config(seed, index))
    for _ in range(TICKS):
        sim.step()
    return sim


def union_backend(seed: int) -> MemoryBackend:
    """One backend holding every shard's rows, for the oracle reporter."""
    sims = [stepped_simulator(seed, k) for k in range(SHARDS)]
    machines = sorted(m for sim in sims for m in sim.machine_ids)
    union = MemoryBackend(monitoring_catalog(machines))
    for sim in sims:
        backend = sim.backend
        for schema in backend.catalog.monitored_tables():
            rows = backend.execute(f"SELECT * FROM {schema.name}").rows
            union.insert_rows(schema.name, rows)
        for source_id, recency in backend.heartbeat_rows():
            union.upsert_heartbeat(source_id, recency)
        backend.close()
    return union


def requests(seed: int) -> Iterator[Tuple[int, str]]:
    """The seeded request sequence: the shapes in round-robin."""
    rng = random.Random(seed * 7919 + 2)
    machines: List[str] = [f"m{i}" for i in range(1, SHARDS * MACHINES_PER_SHARD + 1)]
    index = 0
    while True:
        kind = index % len(SHAPES)
        sql = SHAPES[kind].format(
            value=rng.choice(("idle", "busy")), machine=rng.choice(machines)
        )
        yield kind, sql
        index += 1
