"""Shared helpers: order statistics, process accounting and the result line."""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Serving latency limit (the repo's SLO): p99 at or under 100 ms.
SLO_MS = 100.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_kind(samples: Dict[object, List[float]], q: Optional[float] = None) -> float:
    """Mean over query kinds of each kind's median (``q=None``) or
    percentile ``q``. Each kind weighs the same however many of its
    requests a run completed, so the mix of kinds does not move it."""
    stats = [median(v) if q is None else percentile(v, q) for v in samples.values() if v]
    return mean(stats)


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of ``pid``, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # After the command name: state is field 3, utime 14 and stime 15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` in MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: Rows the probe visits per run of its work.
_PROBE_VISITS = 3800


def _probe_rows() -> List[Tuple[int, str, float]]:
    """200k rows, like the paper sweep point's Activity table."""
    return [(i % 2003, "busy" if i % 3 == 0 else "idle", float(i)) for i in range(200_000)]


def _probe_work(rows: Sequence[Tuple[object, str, float]]) -> int:
    """Fixed interpreter work shaped like the engine's: filter tuples spread
    over a large list (so it waits on memory as a table scan does), count
    into a dict, sort with a key function."""
    stride = max(1, len(rows) // _PROBE_VISITS)
    keep = [row for row in rows[7::stride] if row[1] == "idle"]
    counts: Dict[object, int] = {}
    for source, _, _ in keep:
        counts[source] = counts.get(source, 0) + 1
    ordered = sorted(keep, key=lambda row: (row[0], -row[2]))
    return len(ordered) + len(counts)


class SpeedProbe:
    """How fast this machine runs Python right now, relative to a reference.

    The machines this benchmark runs on share cores with other work, and
    the same report takes up to half as long again in a slow stretch as in
    a fast one. Every time the benchmark reports is therefore expressed in
    reference-speed units: the measured time multiplied by
    ``REFERENCE_MS / probe``, where ``probe`` is the time of a fixed piece
    of interpreter work measured next to the measurement. On a machine as
    fast as the reference the factor is 1; a stretch in which everything
    runs 30% slower reads the same as a fast one. Rates are divided by the
    same factor.
    """

    #: Probe time on the reference machine (2-core x86-64 at 2.1 GHz,
    #: CPython 3.11) in a quiet stretch.
    REFERENCE_MS = 1.2

    def __init__(self) -> None:
        # The probe owns its rows, so no change to how the program stores
        # or walks its data can move the probe's time. They add a fixed
        # amount to the peak RSS of the process that holds them.
        self.rows = _probe_rows()
        self.samples: List[float] = []

    def measure(self, repeats: int = 1) -> float:
        """Probe ``repeats`` times; returns the median probe time (ms)."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            _probe_work(self.rows)
            times.append((time.perf_counter() - start) * 1000.0)
        self.samples.extend(times)
        return median(times)

    def factor(self, probe_ms: float) -> float:
        """Scale for a time measured next to a probe of ``probe_ms``."""
        return self.REFERENCE_MS / probe_ms

    def run_factor(self) -> float:
        """Scale for a quantity accumulated over the whole run."""
        return self.factor(median(self.samples))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, object]]
) -> str:
    """The JSON object the benchmark prints as its last line."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        },
        sort_keys=True,
    )
