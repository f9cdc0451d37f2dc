"""Trace analytics: per-span-path aggregation, hotspots, critical path.

A *span path* is the ``/``-joined chain of span names from a root down
to a span (``plan.execute/task:spmv[scale=0.025]/search.random``).
Paths are pure functions of the instrumented code and the workload
labels — never of pids, timestamps, or completion order — so the same
run configuration always produces the same path set.  That stability is
what makes traces *comparable*: the history store
(:mod:`repro.obs.history`) keys its ``span:<path>`` series by path and
trends each one across runs.

Three read-side primitives over a :class:`~repro.obs.span.SpanRecord`
forest:

* :func:`aggregate_spans` — count / total wall / self wall / max per
  path.  Self wall is the span's duration minus its children's (clamped
  at zero: a parent whose children ran *in parallel* on shard workers
  legitimately sums its children past its own wall).
* :func:`critical_path` — the root-to-leaf chain that bounds the run's
  wall time.  At every level the walk descends into the child with the
  largest duration: sibling spans under ``plan.execute`` are shard tasks
  that ran concurrently, so the longest child — not the sum — is the
  binding constraint.
* :func:`hotspots` — top-N paths by self wall, the table to read first
  when a run got slower.

:func:`worker_stats` reads a sharded run's task spans per worker pid:
how busy each shard worker was over the ``plan.execute`` window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import summarize_histogram
from repro.obs.span import SpanRecord, walk_spans
from repro.obs.trace_io import TraceData
from repro.textutil import format_table

__all__ = [
    "CriticalStep",
    "PathStats",
    "WorkerStats",
    "aggregate_spans",
    "analysis_to_dict",
    "critical_path",
    "hotspots",
    "render_analysis",
    "worker_stats",
]


@dataclass
class PathStats:
    """Aggregated wall-time statistics for one span path."""

    path: str
    count: int = 0
    #: Sum of span durations at this path (parallel occurrences sum).
    total: float = 0.0
    #: Sum of (duration - children's durations), clamped at zero per span.
    self_total: float = 0.0
    max: float = 0.0

    def add(self, rec: SpanRecord) -> None:
        self.count += 1
        self.total += rec.duration
        self.max = max(self.max, rec.duration)
        child_wall = sum(c.duration for c in rec.children)
        self.self_total += max(0.0, rec.duration - child_wall)


def aggregate_spans(roots: Sequence[SpanRecord]) -> Dict[str, PathStats]:
    """Per-span-path statistics over a forest, keyed by path."""
    stats: Dict[str, PathStats] = {}

    def visit(rec: SpanRecord, prefix: str) -> None:
        path = f"{prefix}/{rec.name}" if prefix else rec.name
        entry = stats.get(path)
        if entry is None:
            entry = stats[path] = PathStats(path=path)
        entry.add(rec)
        for child in rec.children:
            visit(child, path)

    for root in roots:
        visit(root, "")
    return stats


def hotspots(
    roots: Sequence[SpanRecord], n: int = 10
) -> List[PathStats]:
    """The ``n`` span paths with the most *self* wall time."""
    ranked = sorted(
        aggregate_spans(roots).values(),
        key=lambda s: (-s.self_total, s.path),
    )
    return ranked[: max(0, n)]


@dataclass(frozen=True)
class CriticalStep:
    """One span on the critical path."""

    path: str
    name: str
    duration: float
    #: Fraction of the chain root's duration this span accounts for.
    fraction: float
    #: Siblings this span was chosen over (parallel shard tasks, etc.).
    n_siblings: int = 0


def critical_path(roots: Sequence[SpanRecord]) -> List[CriticalStep]:
    """Longest root-to-leaf chain, honoring shard parallelism.

    Starting from the longest root, descend at every level into the
    child with the largest duration.  Because sibling spans (the task
    spans grafted under ``plan.execute``) may have executed concurrently
    in worker processes, the max child — not the sum of children — is
    what bounds the parent's wall, so this chain is the sequence of
    spans a faster run must shorten.
    """
    if not roots:
        return []
    rec = max(roots, key=lambda r: (r.duration, r.name))
    total = rec.duration
    n_siblings = len(roots) - 1
    steps: List[CriticalStep] = []
    prefix = ""
    while True:
        path = f"{prefix}/{rec.name}" if prefix else rec.name
        steps.append(
            CriticalStep(
                path=path,
                name=rec.name,
                duration=rec.duration,
                fraction=(rec.duration / total) if total > 0 else 0.0,
                n_siblings=n_siblings,
            )
        )
        if not rec.children:
            return steps
        prefix = path
        n_siblings = len(rec.children) - 1
        rec = max(rec.children, key=lambda c: (c.duration, c.name))


# ----------------------------------------------------------------------
# worker utilization (task spans of a sharded run)


@dataclass
class WorkerStats:
    """One worker process's share of a sharded run."""

    pid: int
    n_tasks: int = 0
    busy_s: float = 0.0
    window_s: float = 0.0
    #: (start, end) of each task span, on the rebased parent clock.
    intervals: Tuple[Tuple[float, float], ...] = ()

    @property
    def utilization(self) -> float:
        if self.window_s <= 0:
            return 0.0
        return min(1.0, self.busy_s / self.window_s)


def _execute_window(
    roots: Sequence[SpanRecord],
) -> Optional[Tuple[float, float]]:
    """(start, end) of the outermost ``plan.execute`` span, if any."""
    best: Optional[SpanRecord] = None
    for rec in walk_spans(roots):
        if rec.name == "plan.execute" and (
            best is None or rec.duration > best.duration
        ):
            best = rec
    if best is None:
        return None
    return best.start, best.start + best.duration


def worker_stats(data: TraceData) -> List[WorkerStats]:
    """Per-pid utilization over the ``plan.execute`` window.

    Task spans absorbed from workers are rebased onto the parent clock,
    so their (start, end) intervals are directly comparable with the
    parent's ``plan.execute`` window; the gap between busy and window is
    pool idle time (startup skew, straggler tails).
    """
    own_pid = None
    if data.spans:
        own_pid = data.spans[0].pid
    window = _execute_window(data.spans)
    by_pid: Dict[int, List[SpanRecord]] = {}
    for rec in walk_spans(data.spans):
        if rec.name.startswith("task:") and rec.pid != own_pid:
            by_pid.setdefault(rec.pid, []).append(rec)

    out: List[WorkerStats] = []
    for pid, recs in sorted(by_pid.items()):
        intervals = tuple(
            sorted((r.start, r.start + r.duration) for r in recs)
        )
        if window is not None:
            window_s = window[1] - window[0]
        else:
            window_s = max(e for _, e in intervals) - min(
                s for s, _ in intervals
            )
        out.append(
            WorkerStats(
                pid=pid,
                n_tasks=len(recs),
                busy_s=sum(r.duration for r in recs),
                window_s=window_s,
                intervals=intervals,
            )
        )
    return out


def _timeline(
    intervals: Sequence[Tuple[float, float]],
    window: Tuple[float, float],
    width: int = 40,
) -> str:
    """ASCII busy/idle bar: ``#`` where any task overlaps the bin."""
    start, end = window
    span = end - start
    if span <= 0 or width <= 0:
        return ""
    cells = []
    for i in range(width):
        lo = start + span * i / width
        hi = start + span * (i + 1) / width
        busy = any(s < hi and e > lo for s, e in intervals)
        cells.append("#" if busy else ".")
    return "".join(cells)


# ----------------------------------------------------------------------
def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_analysis(data: TraceData, top: int = 10) -> str:
    """``repro trace --analyze``: aggregation, hotspots, critical path,
    and worker utilization when shard workers ran task spans."""
    stats = aggregate_spans(data.spans)
    lines = [
        f"trace analysis: {data.n_spans()} spans, "
        f"{len(stats)} distinct span paths"
    ]
    if not stats:
        return lines[0]

    by_total = sorted(stats.values(), key=lambda s: (-s.total, s.path))
    lines.append("")
    lines.append(f"span paths by total wall (top {top}):")
    lines += format_table(
        ("path", "count", "total", "self", "max"),
        [
            (
                s.path,
                str(s.count),
                _fmt_seconds(s.total),
                _fmt_seconds(s.self_total),
                _fmt_seconds(s.max),
            )
            for s in by_total[:top]
        ],
    )

    lines.append("")
    lines.append(f"hotspots by self wall (top {top}):")
    lines += format_table(
        ("path", "count", "self", "total"),
        [
            (
                s.path,
                str(s.count),
                _fmt_seconds(s.self_total),
                _fmt_seconds(s.total),
            )
            for s in hotspots(data.spans, n=top)
        ],
    )

    steps = critical_path(data.spans)
    lines.append("")
    lines.append("critical path (longest concurrent-aware chain):")
    lines += format_table(
        ("span", "wall", "of root", "over"),
        [
            (
                step.name,
                _fmt_seconds(step.duration),
                f"{100.0 * step.fraction:.0f}%",
                (
                    f"{step.n_siblings} sibling(s)"
                    if step.n_siblings
                    else "-"
                ),
            )
            for step in steps
        ],
    )

    workers = worker_stats(data)
    if workers:
        window = _execute_window(data.spans)
        lines.append("")
        lines.append("worker utilization (plan.execute window):")
        lines += format_table(
            ("pid", "tasks", "busy", "util", "timeline"),
            [
                (
                    str(w.pid),
                    str(w.n_tasks),
                    _fmt_seconds(w.busy_s),
                    f"{100.0 * w.utilization:.0f}%",
                    (
                        _timeline(w.intervals, window)
                        if window is not None
                        else ""
                    ),
                )
                for w in workers
            ],
        )
    return "\n".join(lines)


def analysis_to_dict(data: TraceData, top: int = 0) -> Dict[str, object]:
    """``repro trace --analyze --json``: the tables as one JSON object.

    The same aggregates :func:`render_analysis` prints, machine-readable
    — this is the payload :meth:`repro.obs.history.HistoryStore.\
ingest_analysis` indexes, so key names here are a compatibility
    surface.  ``top=0`` (default) emits every path.
    """
    stats = sorted(
        aggregate_spans(data.spans).values(),
        key=lambda s: (-s.total, s.path),
    )
    if top > 0:
        stats = stats[:top]
    return {
        "n_spans": data.n_spans(),
        "meta": dict(data.meta),
        "paths": [
            {
                "path": s.path,
                "count": s.count,
                "total_s": s.total,
                "self_s": s.self_total,
                "max_s": s.max,
            }
            for s in stats
        ],
        "critical_path": [
            {
                "path": step.path,
                "name": step.name,
                "duration_s": step.duration,
                "fraction": step.fraction,
                "n_siblings": step.n_siblings,
            }
            for step in critical_path(data.spans)
        ],
        "counters": dict(data.metrics.counters),
        "histograms": {
            name: summarize_histogram(values)
            for name, values in data.metrics.histograms.items()
        },
        "workers": [
            {
                "pid": w.pid,
                "n_tasks": w.n_tasks,
                "busy_s": w.busy_s,
                "window_s": w.window_s,
                "utilization": w.utilization,
            }
            for w in worker_stats(data)
        ],
    }
