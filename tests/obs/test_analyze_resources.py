"""Worker utilization over a sharded trace's task spans."""

import pytest

from repro.obs import (
    MetricsSnapshot,
    SpanRecord,
    analysis_to_dict,
    render_analysis,
    worker_stats,
)
from repro.obs.analyze import _timeline
from repro.obs.trace_io import TraceData


def _sharded_trace():
    """Parent pid 1 runs plan.execute; pids 2/3 each ran one task."""
    t_a = SpanRecord(name="task:a", start=0.1, duration=0.4, pid=2)
    t_b = SpanRecord(name="task:b", start=0.5, duration=0.5, pid=3)
    root = SpanRecord(
        name="plan.execute",
        start=0.0,
        duration=1.0,
        pid=1,
        children=[t_a, t_b],
    )
    return TraceData(
        meta={"command": "search"},
        spans=(root,),
        metrics=MetricsSnapshot(counters={"n": 2}),
    )


# -- worker_stats ------------------------------------------------------
def test_worker_stats_measure_utilization_over_execute_window():
    workers = worker_stats(_sharded_trace())
    assert [w.pid for w in workers] == [2, 3]
    a, b = workers
    assert a.n_tasks == 1
    assert a.busy_s == pytest.approx(0.4)
    assert a.window_s == pytest.approx(1.0)
    assert a.utilization == pytest.approx(0.4)
    assert a.intervals == ((0.1, 0.5),)
    assert b.utilization == pytest.approx(0.5)


def test_parent_pid_spans_are_not_workers():
    root = SpanRecord(
        name="plan.execute",
        start=0.0,
        duration=1.0,
        pid=1,
        children=[SpanRecord(name="task:a", start=0.0, duration=1.0, pid=1)],
    )
    assert worker_stats(TraceData(spans=(root,))) == []


def test_timeline_marks_busy_bins():
    bar = _timeline([(0.0, 0.5)], (0.0, 1.0), width=10)
    assert bar == "#####....."
    assert _timeline([], (0.0, 0.0), width=10) == ""


# -- rendering / JSON payload ------------------------------------------
def test_render_analysis_includes_worker_table():
    out = render_analysis(_sharded_trace())
    table = out[out.index("worker utilization (plan.execute window):") :]
    lines = table.splitlines()
    assert lines[1].split() == ["pid", "tasks", "busy", "util", "timeline"]
    # pid 3 ran the second half of the window: its timeline's busy
    # cells are the right half.
    assert lines[-1].split() == ["3", "1", "500.0ms", "50%", "." * 20 + "#" * 20]


def test_analysis_to_dict_payload_shape():
    payload = analysis_to_dict(_sharded_trace())
    assert set(payload) == {
        "n_spans",
        "meta",
        "paths",
        "critical_path",
        "counters",
        "histograms",
        "workers",
    }
    assert payload["n_spans"] == 3
    assert payload["meta"] == {"command": "search"}
    assert payload["counters"] == {"n": 2}
    top = payload["paths"][0]
    assert set(top) == {"path", "count", "total_s", "self_s", "max_s"}
    assert top["path"] == "plan.execute"
    step = payload["critical_path"][0]
    assert step["name"] == "plan.execute"
    assert step["fraction"] == 1.0
    workers = {w["pid"]: w for w in payload["workers"]}
    assert workers[3]["utilization"] == pytest.approx(0.5)


def test_analysis_to_dict_without_samples_is_empty_but_stable():
    root = SpanRecord(name="r", start=0.0, duration=0.1, pid=1)
    payload = analysis_to_dict(TraceData(spans=(root,)))
    assert payload["workers"] == []
    assert "n_samples" not in payload and "resources" not in payload
