"""repro.obs — span tracing, metrics, and cross-process run telemetry.

The shared observability substrate for the whole search/serve stack:

* ``obs.span("search.exhaustive", batch_size=64)`` — nested spans,
  no-op (a shared null handle) unless a tracer is installed.
* ``obs.stage("label+train")`` — always-timed coarse task phases; the
  orchestrator's per-stage walls in ``SuiteReport``/
  ``TransferMatrixResult`` are views over these.
* ``obs.add / gauge / observe`` — always-on counters, gauges, and
  histograms (append-only lists); snapshots merge across processes
  exactly like ``execute_plan`` merges task results, and their counter
  digests are bit-stable between serial and sharded runs.  A run's
  counts are read once it ends (``--metrics``, ``--trace``).
* ``obs.capture(trace=True)`` / ``write_trace`` / ``read_trace`` /
  ``render_trace`` — JSONL export and the ``repro trace`` ASCII view.
* ``RunArchive`` / ``resolve_trace`` — persisted, self-describing run
  bundles (``--archive DIR``) behind an append-only index.
* ``aggregate_spans`` / ``critical_path`` / ``hotspots`` — the read
  side: per-span-path analytics for ``repro trace --analyze``.
* ``diff_runs`` — exact counter identity between two runs
  (``repro trace --diff``; CI runs it on serial vs. sharded archives).
* ``TelemetrySampler`` / ``resource_stats`` / ``worker_stats`` —
  ``--telemetry`` resource sampling (CPU, RSS, GC) attributed to span
  paths and worker pids, riding ``TaskResult`` payloads.
* ``to_perfetto`` / ``export_perfetto`` — lower any archived trace to
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
    ResourceStats,
    WorkerStats,
    aggregate_spans,
    analysis_to_dict,
    critical_path,
    hotspots,
    render_analysis,
    resource_stats,
    worker_stats,
)
from repro.obs.archive import (
    ARCHIVE_VERSION,
    RunArchive,
    RunRecord,
    git_revision,
    resolve_trace,
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
    gauge,
    metrics_snapshot,
    observe,
    reset,
    span,
    stage,
    task_scope,
    telemetry_active,
    tracing_active,
    worker_capture,
)
from repro.obs.span import SpanRecord, Tracer, walk_spans
from repro.obs.telemetry import (
    ResourceSample,
    TelemetrySampler,
    read_resources,
    sample_now,
)
from repro.obs.trace_io import (
    SUPPORTED_VERSIONS,
    TraceData,
    TraceSchemaError,
    read_trace,
    write_trace,
)

__all__ = [
    "ARCHIVE_VERSION",
    "SUPPORTED_VERSIONS",
    "CounterDelta",
    "CriticalStep",
    "HistoryPoint",
    "HistoryStore",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PathStats",
    "Regression",
    "ResourceSample",
    "ResourceStats",
    "RunArchive",
    "RunDiff",
    "RunRecord",
    "SpanRecord",
    "TelemetrySampler",
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
    "gauge",
    "git_revision",
    "hotspots",
    "log",
    "metrics_snapshot",
    "observe",
    "read_resources",
    "read_trace",
    "render_analysis",
    "render_diff",
    "render_metrics",
    "render_span_tree",
    "render_trace",
    "reset",
    "resolve_trace",
    "resource_stats",
    "sample_now",
    "span",
    "stage",
    "summarize_histogram",
    "task_scope",
    "telemetry_active",
    "to_perfetto",
    "tracing_active",
    "walk_spans",
    "worker_capture",
    "worker_stats",
    "write_trace",
]
