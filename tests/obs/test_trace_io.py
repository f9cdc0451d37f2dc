"""JSONL trace files: round-trip fidelity and strict validation."""

import json

import pytest

from repro import obs
from repro.obs import (
    MetricsSnapshot,
    SpanRecord,
    TraceSchemaError,
    read_trace,
    write_trace,
)
from repro.obs.trace_io import TRACE_VERSION


def _forest():
    leaf = SpanRecord("leaf", 0.1, 0.2, 42, {"x": 1})
    mid = SpanRecord("mid", 0.05, 0.5, 42, {}, [leaf])
    root = SpanRecord("root", 0.0, 1.0, 42, {"kind": "t"}, [mid])
    other = SpanRecord("other", 2.0, 0.25, 43, {})
    return (root, other)


def _snapshot():
    return MetricsSnapshot(
        counters={"c": 5, "b": 1},
        histograms={"h": (1.0, 2.0, 3.0)},
    )


class TestRoundTrip:
    def test_spans_and_metrics_survive_exactly(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        n = write_trace(path, _forest(), metrics=_snapshot(), meta={"cmd": "x"})
        assert n == 4
        data = read_trace(path)
        assert data.version == TRACE_VERSION
        assert data.meta == {"cmd": "x"}
        assert data.spans == _forest()
        assert data.metrics == _snapshot()
        assert data.n_spans() == 4

    def test_writing_is_deterministic(self, tmp_path):
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_trace(p1, _forest(), metrics=_snapshot())
        write_trace(p2, _forest(), metrics=_snapshot())
        assert open(p1).read() == open(p2).read()

    def test_empty_trace_round_trips(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        assert write_trace(path, ()) == 0
        data = read_trace(path)
        assert data.spans == ()
        assert data.metrics.is_empty()

    def test_parent_lines_precede_children(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        write_trace(path, _forest())
        seen = set()
        for line in open(path).read().splitlines()[1:]:
            obj = json.loads(line)
            if obj["parent"] is not None:
                assert obj["parent"] in seen
            seen.add(obj["id"])

    def test_capture_output_round_trips(self, tmp_path):
        with obs.capture(trace=True) as cap:
            with obs.span("a", n=1):
                with obs.span("b"):
                    pass
            obs.add("c", 2)
        path = str(tmp_path / "t.jsonl")
        write_trace(path, cap.spans, metrics=cap.metrics)
        data = read_trace(path)
        assert data.spans == cap.spans
        assert data.metrics.counter("c") == 2


class TestValidation:
    def _lines(self, *objs):
        return "\n".join(json.dumps(o) for o in objs) + "\n"

    def _write(self, tmp_path, text):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        return str(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(TraceSchemaError, match="empty"):
            read_trace(self._write(tmp_path, ""))

    def test_missing_header_rejected(self, tmp_path):
        text = self._lines({"type": "counter", "name": "c", "value": 1})
        with pytest.raises(TraceSchemaError, match="header"):
            read_trace(self._write(tmp_path, text))

    def test_wrong_version_rejected(self, tmp_path):
        text = self._lines({"type": "trace", "version": 99, "meta": {}})
        with pytest.raises(TraceSchemaError, match="version"):
            read_trace(self._write(tmp_path, text))

    def test_non_json_line_rejected(self, tmp_path):
        text = '{"type": "trace", "version": 1, "meta": {}}\nnot json\n'
        with pytest.raises(TraceSchemaError, match="not JSON"):
            read_trace(self._write(tmp_path, text))

    def test_span_missing_keys_rejected(self, tmp_path):
        text = self._lines(
            {"type": "trace", "version": 1, "meta": {}},
            {"type": "span", "id": 0, "name": "x"},
        )
        with pytest.raises(TraceSchemaError, match="missing keys"):
            read_trace(self._write(tmp_path, text))

    def test_unknown_parent_rejected(self, tmp_path):
        span = {
            "type": "span",
            "id": 0,
            "parent": 7,
            "name": "x",
            "start": 0.0,
            "dur": 0.1,
            "pid": 1,
            "attrs": {},
        }
        text = self._lines({"type": "trace", "version": 1, "meta": {}}, span)
        with pytest.raises(TraceSchemaError, match="unknown parent"):
            read_trace(self._write(tmp_path, text))

    def test_duplicate_span_id_rejected(self, tmp_path):
        span = {
            "type": "span",
            "id": 0,
            "parent": None,
            "name": "x",
            "start": 0.0,
            "dur": 0.1,
            "pid": 1,
            "attrs": {},
        }
        text = self._lines(
            {"type": "trace", "version": 1, "meta": {}}, span, span
        )
        with pytest.raises(TraceSchemaError, match="duplicate"):
            read_trace(self._write(tmp_path, text))

    def test_unknown_line_type_rejected(self, tmp_path):
        text = self._lines(
            {"type": "trace", "version": 1, "meta": {}},
            {"type": "mystery"},
        )
        with pytest.raises(TraceSchemaError, match="unknown line type"):
            read_trace(self._write(tmp_path, text))

    def test_gauge_line_rejected(self, tmp_path):
        """Gauges were written only by the removed resource sampler."""
        text = self._lines(
            {"type": "trace", "version": 2, "meta": {}},
            {"type": "gauge", "name": "g", "value": 1.0},
        )
        with pytest.raises(TraceSchemaError, match="unknown line type 'gauge'"):
            read_trace(self._write(tmp_path, text))

    def test_error_messages_carry_line_numbers(self, tmp_path):
        text = self._lines(
            {"type": "trace", "version": 1, "meta": {}},
            {"type": "counter", "name": "c"},  # missing value
        )
        with pytest.raises(TraceSchemaError, match=r":2:"):
            read_trace(self._write(tmp_path, text))
