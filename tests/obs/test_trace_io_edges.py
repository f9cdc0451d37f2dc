"""read_trace edge cases: torn files, bad ids, version drift."""

import json

import pytest

from repro.obs import TraceSchemaError, read_trace, write_trace
from repro.obs.span import SpanRecord
from repro.obs.trace_io import TRACE_VERSION


def _valid_lines():
    header = {"type": "trace", "version": TRACE_VERSION, "meta": {}}
    span = {
        "type": "span",
        "id": 0,
        "parent": None,
        "name": "root",
        "start": 0.0,
        "dur": 1.0,
        "pid": 1,
        "attrs": {},
    }
    child = dict(span, id=1, parent=0, name="child")
    return [json.dumps(obj) for obj in (header, span, child)]


def _write(tmp_path, lines, tail=""):
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n" + tail)
    return str(path)


def test_valid_file_parses(tmp_path):
    data = read_trace(_write(tmp_path, _valid_lines()))
    assert data.n_spans() == 2
    assert data.spans[0].children[0].name == "child"


def test_truncated_final_line_rejected(tmp_path):
    # A crashed writer leaves a torn last line; the strict reader must
    # refuse the file rather than silently drop spans.
    lines = _valid_lines()
    torn = lines[-1][: len(lines[-1]) // 2]
    path = _write(tmp_path, lines[:-1], tail=torn + "\n")
    with pytest.raises(TraceSchemaError, match="not JSON"):
        read_trace(path)


def test_duplicate_span_ids_rejected(tmp_path):
    lines = _valid_lines()
    dup = json.loads(lines[2])
    dup["id"] = 0  # collides with the root's DFS id
    path = _write(tmp_path, lines[:2] + [json.dumps(dup)])
    with pytest.raises(TraceSchemaError, match="duplicate span id"):
        read_trace(path)


def test_child_before_parent_rejected(tmp_path):
    # DFS preorder guarantees parents precede children; a reordered
    # file (hand-edited, interleaved writers) must not parse.
    lines = _valid_lines()
    path = _write(tmp_path, [lines[0], lines[2], lines[1]])
    with pytest.raises(TraceSchemaError, match="unknown parent"):
        read_trace(path)


def test_schema_version_mismatch_rejected(tmp_path):
    lines = _valid_lines()
    header = json.loads(lines[0])
    header["version"] = TRACE_VERSION + 1
    path = _write(tmp_path, [json.dumps(header)] + lines[1:])
    with pytest.raises(TraceSchemaError, match="unsupported trace version"):
        read_trace(path)


def test_missing_header_rejected(tmp_path):
    lines = _valid_lines()
    path = _write(tmp_path, lines[1:])
    with pytest.raises(TraceSchemaError, match="first line must be"):
        read_trace(path)


def test_span_missing_keys_rejected(tmp_path):
    lines = _valid_lines()
    span = json.loads(lines[1])
    del span["dur"]
    path = _write(tmp_path, [lines[0], json.dumps(span)])
    with pytest.raises(TraceSchemaError, match="missing keys"):
        read_trace(path)


def test_unknown_line_type_rejected(tmp_path):
    path = _write(
        tmp_path, _valid_lines() + [json.dumps({"type": "mystery"})]
    )
    with pytest.raises(TraceSchemaError, match="unknown line type"):
        read_trace(path)


def test_error_messages_carry_path_and_line(tmp_path):
    lines = _valid_lines()
    path = _write(tmp_path, lines[:-1], tail="{torn\n")
    with pytest.raises(TraceSchemaError, match=r"t\.jsonl:3"):
        read_trace(path)


def test_round_trip_after_rewrite_is_valid(tmp_path):
    # write_trace output always validates, including metrics lines.
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.add("n", 3)
    registry.observe("lat", 0.5)
    root = SpanRecord(name="r", start=0.0, duration=1.0, pid=1)
    path = str(tmp_path / "rt.jsonl")
    write_trace(path, [root], registry.snapshot(), meta={"command": "x"})
    data = read_trace(path)
    assert data.meta == {"command": "x"}
    assert data.metrics.counter("n") == 3
    assert data.metrics.histograms["lat"] == (0.5,)


def test_sample_line_rejected(tmp_path):
    # Resource-sampling runs wrote ``sample`` lines into v2 traces; no
    # reader of them is left, so the strict reader refuses the file.
    sample = {
        "type": "sample",
        "ts": 0.5,
        "pid": 7,
        "path": "root",
        "rss": 4096,
        "utime": 0.25,
        "stime": 0.125,
        "gc": 3,
    }
    path = _write(tmp_path, _valid_lines() + [json.dumps(sample)])
    with pytest.raises(
        TraceSchemaError, match=r"t\.jsonl:4: unknown line type 'sample'"
    ):
        read_trace(path)
