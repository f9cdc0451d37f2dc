"""Counters and histograms with a process-safe merge protocol.

The registry is deliberately dumb and fast: counters are plain dict adds,
histograms append to plain lists.  Cross-process safety comes from the
same protocol ``execute_plan`` uses for task results — each worker runs
against its *own* fresh registry, ships an immutable
:class:`MetricsSnapshot` back on the task result, and the parent merges
snapshots in task order.  Nothing is shared, so nothing needs locks.

A histogram keeps every observation in arrival order, so quantiles are
exact and a later snapshot's series extends an earlier one's.  Runs of
this program observe a handful of values per series (``sim.compile_s``,
``advisor.recommend_s``), so nothing bounds the lists.

``MetricsSnapshot.digest()`` hashes the *counters only*, sorted by name.
Counters count deterministic events (schedules enumerated, subtrees cut,
cache hits); histograms may carry wall-clock values and are excluded.
Two runs of the same deterministic work — serial or sharded — therefore
produce the same digest, which is what the bit-stability tests assert.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "summarize_histogram",
]

def summarize_histogram(values: Sequence[float]) -> Dict[str, float]:
    """count/sum/min/max plus nearest-rank p50/p95/p99 of raw samples."""
    if not values:
        return {"count": 0, "sum": 0.0}
    ordered = sorted(values)
    n = len(ordered)

    def rank(q: float) -> float:
        return ordered[min(n - 1, max(0, int(q * n + 0.5) - 1))]

    return {
        "count": n,
        "sum": float(sum(ordered)),
        "min": ordered[0],
        "max": ordered[-1],
        "p50": rank(0.50),
        "p95": rank(0.95),
        "p99": rank(0.99),
    }


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, picklable view of a registry at one point in time.

    Histograms keep their raw observations (not pre-binned summaries) so
    merged snapshots yield exact quantiles and the JSONL round-trip is
    lossless.
    """

    counters: Mapping[str, float] = field(default_factory=dict)
    histograms: Mapping[str, Tuple[float, ...]] = field(default_factory=dict)

    def counter(self, name: str, default: float = 0) -> float:
        return self.counters.get(name, default)

    def is_empty(self) -> bool:
        return not (self.counters or self.histograms)

    def diff(self, before: "MetricsSnapshot") -> "MetricsSnapshot":
        """What happened between ``before`` and this snapshot.

        Both snapshots must come from the same registry: counters
        subtract, and each histogram drops the prefix that ``before``
        already holds (series only grow, by appending).
        """
        counters = {}
        for name, value in self.counters.items():
            delta = value - before.counters.get(name, 0)
            if delta:
                counters[name] = delta
        histograms = {}
        for name, values in self.histograms.items():
            tail = values[len(before.histograms.get(name, ())) :]
            if tail:
                histograms[name] = tail
        return MetricsSnapshot(counters=counters, histograms=histograms)

    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two independent snapshots (e.g. from two workers)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        histograms = dict(self.histograms)
        for name, values in other.histograms.items():
            histograms[name] = histograms.get(name, ()) + tuple(values)
        return MetricsSnapshot(counters=counters, histograms=histograms)

    def digest(self) -> str:
        """SHA-256 over sorted counters; timing-carrying series excluded."""
        payload = json.dumps(
            sorted(self.counters.items()), separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def histogram_summary(self, name: str) -> Dict[str, float]:
        return summarize_histogram(self.histograms.get(name, ()))


class MetricsRegistry:
    """Mutable single-process registry behind the module-level obs API."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}

    # -- write path ----------------------------------------------------
    def add(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        self._histograms.setdefault(name, []).append(value)

    # -- read / merge path ---------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters=dict(self._counters),
            histograms={k: tuple(v) for k, v in self._histograms.items()},
        )

    def merge_snapshot(self, snap: MetricsSnapshot) -> None:
        """Fold a shipped worker snapshot into this registry."""
        for name, value in snap.counters.items():
            self.add(name, value)
        for name, values in snap.histograms.items():
            self._histograms.setdefault(name, []).extend(values)
