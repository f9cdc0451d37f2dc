"""repro.obs — span tracing and metrics across the run's processes.

The shared observability substrate for the whole search/serve stack:

* ``obs.span("search.exhaustive", batch_size=64)`` — nested spans,
  no-op (a shared null handle) unless a tracer is installed.
* ``obs.add / observe`` — always-on counters and histograms
  (append-only lists); snapshots merge across processes
  exactly like ``execute_plan`` merges task results, and their counter
  digests are bit-stable between serial and sharded runs.  A run's
  counts are read once it ends (``--metrics``, ``--trace``).
* ``obs.capture(trace=True)`` / ``write_trace`` / ``read_trace`` /
  ``render_trace`` — the JSONL trace file (``--trace PATH``), a run's
  one persisted record, and the ``repro trace`` ASCII view.
* ``aggregate_spans`` / ``critical_path`` / ``hotspots`` /
  ``worker_stats`` — the read side: per-span-path analytics and shard
  worker utilization for ``repro trace --analyze``.
* ``diff_runs`` — exact counter identity between two runs
  (``repro trace --diff``; CI runs it on serial vs. sharded traces).
* ``to_perfetto`` / ``export_perfetto`` — lower any trace to
  Chrome/Perfetto trace-event JSON (``--export-perfetto``).
* ``HistoryStore`` / ``detect_regressions`` — cross-run per-metric time
  series with a rolling median + MAD trend gate, the one wall-time
  regression gate (``repro obs history ingest|show|gate``).
* ``obs.log`` — the structured stdlib logger all library code uses
  instead of printing.
"""

from repro.obs.analyze import (
    CriticalStep,
    PathStats,
    WorkerStats,
    aggregate_spans,
    analysis_to_dict,
    critical_path,
    hotspots,
    render_analysis,
    worker_stats,
)
from repro.obs.diff import CounterDelta, RunDiff, diff_runs, render_diff
from repro.obs.export import check_perfetto, export_perfetto, to_perfetto
from repro.obs.history import (
    HistoryPoint,
    HistoryStore,
    Regression,
    detect_regressions,
)
from repro.obs.logs import configure_logging, log
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, summarize_histogram
from repro.obs.render import render_metrics, render_span_tree, render_trace
from repro.obs.runtime import (
    absorb,
    add,
    capture,
    metrics_snapshot,
    observe,
    reset,
    span,
    tracing_active,
    worker_capture,
)
from repro.obs.span import SpanRecord, Tracer, walk_spans
from repro.obs.trace_io import (
    SUPPORTED_VERSIONS,
    TraceData,
    TraceSchemaError,
    read_trace,
    write_trace,
)

__all__ = [
    "SUPPORTED_VERSIONS",
    "CounterDelta",
    "CriticalStep",
    "HistoryPoint",
    "HistoryStore",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PathStats",
    "Regression",
    "RunDiff",
    "SpanRecord",
    "TraceData",
    "TraceSchemaError",
    "Tracer",
    "WorkerStats",
    "absorb",
    "add",
    "aggregate_spans",
    "analysis_to_dict",
    "capture",
    "check_perfetto",
    "configure_logging",
    "critical_path",
    "detect_regressions",
    "diff_runs",
    "export_perfetto",
    "hotspots",
    "log",
    "metrics_snapshot",
    "observe",
    "read_trace",
    "render_analysis",
    "render_diff",
    "render_metrics",
    "render_span_tree",
    "render_trace",
    "reset",
    "span",
    "summarize_histogram",
    "to_perfetto",
    "tracing_active",
    "walk_spans",
    "worker_capture",
    "worker_stats",
    "write_trace",
]
