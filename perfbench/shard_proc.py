"""Shard process of ``federated``: a frozen ``ShardServer`` behind RPC.

Builds shard ``<index>`` for ``<seed>`` (see :mod:`griddata`), steps its
simulator a fixed number of ticks, then serves RPC with no step thread,
so its data stays fixed for the whole run.

Commands (see :mod:`procs`): ``trace 1|0``, ``spans`` (returns and clears
the milliseconds spent in the backend and parser layers), ``quit``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from griddata import TICKS, shard_config  # noqa: E402
from layers import shard_layers  # noqa: E402
from procs import serve_commands  # noqa: E402
from tracing import Tracer  # noqa: E402

from repro.federation import ShardServer  # noqa: E402


def main() -> None:
    seed, index = int(sys.argv[1]), int(sys.argv[2])
    shard = ShardServer(f"s{index}", shard_config(seed, index))
    for _ in range(TICKS):
        shard.sim.step()
    shard.server.start()
    tracer = Tracer(user_query_first=False)

    def trace(words):
        if words[0] == "1":
            tracer.install()
        else:
            tracer.uninstall()
        return {}

    def spans(words):
        values = shard_layers(tracer)
        tracer.write(f"federated-s{index}")
        tracer.clear()
        return values

    try:
        serve_commands(
            {"trace": trace, "spans": spans},
            {"host": shard.host, "port": shard.port},
        )
    finally:
        shard.close()


if __name__ == "__main__":
    main()
