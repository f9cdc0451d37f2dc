"""Perfetto export: event lowering, schema check, file round-trip."""

import json

import pytest

from repro.obs import (
    MetricsSnapshot,
    SpanRecord,
    check_perfetto,
    export_perfetto,
    to_perfetto,
)
from repro.obs.trace_io import TraceData


def _trace():
    task = SpanRecord(
        name="task:w[i]", start=0.1, duration=0.4, pid=43, attrs={"index": 0}
    )
    root = SpanRecord(
        name="plan.execute",
        start=0.0,
        duration=1.0,
        pid=42,
        children=[task],
    )
    return TraceData(
        meta={"command": "search"},
        spans=(root,),
        metrics=MetricsSnapshot(counters={"n": 16}),
    )


def test_spans_become_complete_events_in_microseconds():
    obj = to_perfetto(_trace())
    spans = [
        e for e in obj["traceEvents"] if e.get("cat") == "span"
    ]
    assert len(spans) == 2
    root = next(e for e in spans if e["name"] == "plan.execute")
    assert root["ph"] == "X"
    assert root["ts"] == pytest.approx(0.0)
    assert root["dur"] == pytest.approx(1e6)
    assert root["pid"] == root["tid"] == 42
    task = next(e for e in spans if e["name"] == "task:w[i]")
    assert task["ts"] == pytest.approx(0.1e6)
    assert task["args"] == {"index": 0}


def test_final_counters_and_process_names_emitted():
    obj = to_perfetto(_trace())
    events = obj["traceEvents"]
    final = next(e for e in events if e.get("cat") == "counter")
    assert final["name"] == "n"
    assert final["args"]["value"] == 16
    # Counters land at the end of the timeline (root span end).
    assert final["ts"] == pytest.approx(1e6)
    names = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names == {42: "search", 43: "worker-43"}


def test_nonscalar_span_attrs_are_stringified():
    root = SpanRecord(
        name="r", start=0.0, duration=0.1, pid=1, attrs={"shape": (2, 3)}
    )
    obj = to_perfetto(TraceData(spans=(root,)))
    (event,) = [e for e in obj["traceEvents"] if e.get("cat") == "span"]
    assert event["args"]["shape"] == repr((2, 3))
    assert not check_perfetto(obj)


def test_export_is_valid_and_round_trips(tmp_path):
    out = str(tmp_path / "trace.json")
    n = export_perfetto(_trace(), out)
    with open(out) as fh:
        obj = json.load(fh)
    assert len(obj["traceEvents"]) == n
    assert obj["displayTimeUnit"] == "ms"
    assert check_perfetto(obj) == []


def test_check_perfetto_catches_bad_events():
    assert check_perfetto({}) == ["traceEvents is not a list"]
    bad = {
        "traceEvents": [
            {"ph": "B", "ts": 0.0, "pid": 1, "tid": 1},  # bad phase
            {"ph": "X", "ts": "0", "pid": 1, "tid": 1, "dur": 1.0},
            {"ph": "X", "ts": 0.0, "pid": 1, "tid": 1, "dur": -1.0},
            {"ph": "C", "ts": 0.0, "pid": 1, "tid": 1, "args": {}},
            {"ph": "C", "ts": 0.0, "pid": 1, "tid": 1, "args": {"v": "x"}},
            {"ph": "X", "ts": 0.0, "pid": 1.5, "tid": None, "dur": 0.0},
            "not-an-object",
        ]
    }
    problems = check_perfetto(bad)
    assert len(problems) == 8
    assert any("bad ph" in p for p in problems)
    assert any("non-numeric ts" in p for p in problems)
    assert any("dur >= 0" in p for p in problems)
    assert any("needs args" in p for p in problems)
    assert any("must be numeric" in p for p in problems)
    assert any("non-integer pid" in p for p in problems)
    assert any("not an object" in p for p in problems)


def test_export_refuses_invalid_trace(tmp_path):
    # A span with negative duration must fail validation, not export.
    root = SpanRecord(name="r", start=0.0, duration=-1.0, pid=1)
    data = TraceData(spans=(root,))
    out = str(tmp_path / "bad.json")
    with pytest.raises(ValueError, match="perfetto export failed"):
        export_perfetto(data, out)
    # Opting out of validation still writes the file.
    export_perfetto(data, out, validate=False)
    assert json.load(open(out))["traceEvents"]
