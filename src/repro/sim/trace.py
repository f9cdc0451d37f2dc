"""Execution timeline tracing and ASCII Gantt rendering.

Every simulated operation (CPU segment, kernel, sync, transfer) appends a
:class:`TraceRecord`; :class:`Gantt` renders the per-resource timeline as
monospace text, which is invaluable when eyeballing why one schedule
overlaps communication and another does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """One occupied interval on one resource."""

    rank: int
    resource: str  # "cpu", "stream0", "stream1", ..., "net"
    op: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """Ordered collection of trace records for one simulation run."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def add(
        self, rank: int, resource: str, op: str, start: float, end: float
    ) -> None:
        self.records.append(TraceRecord(rank, resource, op, start, end))

    def makespan(self) -> float:
        return max((r.end for r in self.records), default=0.0)


class Gantt:
    """ASCII Gantt chart of a :class:`Trace`."""

    def __init__(self, trace: Trace, width: int = 100) -> None:
        self.trace = trace
        self.width = width

    def render(self, ranks: Optional[Sequence[int]] = None) -> str:
        records = self.trace.records
        if not records:
            return "(empty trace)"
        t_end = self.trace.makespan()
        if t_end <= 0:
            return "(zero-length trace)"
        scale = self.width / t_end
        lanes: Dict[Tuple[int, str], List[TraceRecord]] = {}
        for r in records:
            if ranks is not None and r.rank not in ranks:
                continue
            lanes.setdefault((r.rank, r.resource), []).append(r)
        label_w = max(
            (len(f"r{rank}/{res}") for rank, res in lanes), default=8
        )
        lines = [
            f"time: 0 .. {t_end * 1e6:.2f} us  "
            f"(1 column = {t_end / self.width * 1e6:.3f} us)"
        ]
        for (rank, res) in sorted(lanes):
            row = [" "] * self.width
            for rec in lanes[(rank, res)]:
                lo = min(self.width - 1, int(rec.start * scale))
                hi = min(self.width, max(lo + 1, int(rec.end * scale)))
                ch = rec.op[0].upper() if rec.op else "#"
                for c in range(lo, hi):
                    row[c] = ch if row[c] == " " else "+"
            lines.append(f"r{rank}/{res}".ljust(label_w) + " |" + "".join(row) + "|")
        legend: Dict[str, str] = {}
        for rec in records:
            if rec.op:
                legend.setdefault(rec.op[0].upper(), rec.op)
        lines.append(
            "legend: "
            + ", ".join(f"{k}={v}" for k, v in sorted(legend.items()))
        )
        return "\n".join(lines)
