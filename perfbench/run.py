"""TRAC benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload many-rows --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` is the separate traced run that prints the per-layer metrics
(and writes its spans under ``.perfbench_out/``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("many-rows", "many-sources", "serve-ingest", "federated")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from common import result_line
    from layers import END_TO_END, PER_LAYER, as_metrics

    if args.workload in ("many-rows", "many-sources"):
        import inproc as workload
    elif args.workload == "serve-ingest":
        import serving as workload
    else:
        import federated as workload

    outcome = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    failures = outcome["failures"]
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    names = PER_LAYER if args.trace else END_TO_END
    print(
        f"[{args.workload}] seed={args.seed} samples={outcome['samples']} "
        f"attempted={outcome['attempted']} failed={len(failures)}",
        file=sys.stderr,
    )
    print(
        result_line(
            not failures and outcome.get("valid", True),
            outcome["attempted"],
            len(failures),
            as_metrics(outcome["values"], names),
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
