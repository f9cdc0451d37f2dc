"""ASCII rendering of traces and metrics (``repro trace``, ``--metrics``).

Follows the :class:`repro.sim.trace.Gantt` monospace idioms: fixed-width
label column, pipe-delimited bars, a scale line up top.  Worker span
starts are rebased onto the parent clock at absorb time, but the tree
still renders nesting + duration — each span's bar is scaled against
its root's duration — because nesting, not absolute position, is what
an ASCII tree can show; for a real timeline use ``--export-perfetto``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.obs.metrics import MetricsSnapshot
from repro.obs.span import SpanRecord
from repro.obs.trace_io import TraceData
from repro.textutil import format_table

__all__ = ["render_metrics", "render_span_tree", "render_trace"]


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def _fmt_attrs(rec: SpanRecord) -> str:
    shown = {k: v for k, v in rec.attrs.items() if v not in ("", None)}
    if not shown:
        return ""
    body = " ".join(f"{k}={v}" for k, v in shown.items())
    return f"  [{body}]"


def _sibling_order(spans: Sequence[SpanRecord]) -> List[SpanRecord]:
    # Siblings arrive in absorb order (task completion is racy under a
    # shard pool); start time is what actually happened.  Pid then name
    # break ties stably when two spans started the same instant.
    return sorted(spans, key=lambda s: (s.start, s.pid, s.name))


def render_span_tree(
    roots: Sequence[SpanRecord], width: int = 24
) -> List[str]:
    """One line per span: tree prefix, name, duration, bar vs. root."""
    lines: List[str] = []

    entries: List[tuple] = []

    def visit(rec: SpanRecord, prefix: str, child_prefix: str, total: float):
        bar_n = 0
        if total > 0:
            bar_n = max(1, min(width, round(width * rec.duration / total)))
        bar = "#" * bar_n + " " * (width - bar_n)
        entries.append((prefix + rec.name, rec, bar))
        kids = _sibling_order(rec.children)
        for i, child in enumerate(kids):
            last = i == len(kids) - 1
            visit(
                child,
                child_prefix + ("`- " if last else "|- "),
                child_prefix + ("   " if last else "|  "),
                total,
            )

    for root in _sibling_order(roots):
        visit(root, "", "", root.duration)

    if not entries:
        return ["(no spans)"]
    label_w = max(len(label) for label, _, _ in entries)
    for label, rec, bar in entries:
        lines.append(
            f"{label.ljust(label_w)}  {_fmt_seconds(rec.duration):>8}"
            f"  |{bar}|{_fmt_attrs(rec)}"
        )
    return lines


def render_metrics(snapshot: MetricsSnapshot) -> str:
    """Counters and histogram quantile tables."""
    sections: List[str] = []
    if snapshot.counters:
        rows = [
            (name, f"{value:g}")
            for name, value in sorted(snapshot.counters.items())
        ]
        sections.append("counters:")
        sections += format_table(("name", "value"), rows)
    if snapshot.histograms:
        rows = []
        for name in sorted(snapshot.histograms):
            s = snapshot.histogram_summary(name)
            rows.append(
                (
                    name,
                    str(s["count"]),
                    _fmt_seconds(s["p50"]),
                    _fmt_seconds(s["p95"]),
                    _fmt_seconds(s["p99"]),
                    _fmt_seconds(s["max"]),
                )
            )
        sections.append("histograms:")
        sections += format_table(
            ("name", "count", "p50", "p95", "p99", "max"), rows
        )
    if not sections:
        return "(no metrics recorded)"
    return "\n".join(sections)


def render_trace(data: TraceData, width: int = 24) -> str:
    """Full ``repro trace`` output: header, span tree, metrics."""
    meta = " ".join(f"{k}={v}" for k, v in sorted(data.meta.items()))
    header = (
        f"trace v{data.version}"
        + (f"  {meta}" if meta else "")
        + f"  ({data.n_spans()} spans)"
    )
    lines = [header]
    if data.spans:
        lines.append(
            "span tree (bars scaled to each root's wall):"
        )
        lines += render_span_tree(data.spans, width=width)
    else:
        lines.append("(no spans)")
    if not data.metrics.is_empty():
        lines.append("")
        lines.append(render_metrics(data.metrics))
    return "\n".join(lines)
