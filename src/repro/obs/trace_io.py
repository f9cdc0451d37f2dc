"""JSONL export/import for traces (spans + metrics).

Schema (one JSON object per line):

* line 1 — header: ``{"type": "trace", "version": 2, "meta": {...}}``
* span lines — ``{"type": "span", "id": N, "parent": N|null, "name": ...,
  "start": ..., "dur": ..., "pid": ..., "attrs": {...}}``; ids are
  depth-first preorder, so every parent id precedes its children.
* metric lines — ``{"type": "counter", "name": ..., "value": ...}``
  and ``{"type": "hist", "name": ..., "values": [...]}`` (raw samples,
  so quantiles survive the round-trip exactly).

``read_trace(write_trace(...))`` reconstructs the span forest and
snapshot bit-for-bit.  The reader is strict (CI runs it against
``repro suite --trace`` output): any other line type, including the
``sample`` and ``gauge`` lines older resource-sampling runs wrote, is
refused.  It accepts every version in :data:`SUPPORTED_VERSIONS`, which
share this schema; the writer always writes :data:`TRACE_VERSION`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsSnapshot
from repro.obs.span import SpanRecord, walk_spans

__all__ = [
    "SUPPORTED_VERSIONS",
    "TraceData",
    "TraceSchemaError",
    "read_trace",
    "write_trace",
]

TRACE_VERSION = 2

#: Versions :func:`read_trace` accepts.
SUPPORTED_VERSIONS = (1, 2)


class TraceSchemaError(ValueError):
    """A trace file does not conform to the JSONL trace schema."""


@dataclass
class TraceData:
    """A fully parsed trace file."""

    meta: Dict[str, object] = field(default_factory=dict)
    spans: Tuple[SpanRecord, ...] = ()
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    version: int = TRACE_VERSION

    def walk(self) -> Iterator[SpanRecord]:
        return walk_spans(self.spans)

    def n_spans(self) -> int:
        return sum(1 for _ in self.walk())


def write_trace(
    path: str,
    spans: Sequence[SpanRecord],
    metrics: Optional[MetricsSnapshot] = None,
    meta: Optional[Dict[str, object]] = None,
) -> int:
    """Write a trace file; returns the number of span lines written."""
    n_spans = 0
    with open(path, "w", encoding="utf-8") as fh:
        header = {"type": "trace", "version": TRACE_VERSION, "meta": meta or {}}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        next_id = 0

        def emit(rec: SpanRecord, parent: Optional[int]) -> None:
            nonlocal next_id, n_spans
            span_id = next_id
            next_id += 1
            n_spans += 1
            fh.write(
                json.dumps(
                    {
                        "type": "span",
                        "id": span_id,
                        "parent": parent,
                        "name": rec.name,
                        "start": rec.start,
                        "dur": rec.duration,
                        "pid": rec.pid,
                        "attrs": rec.attrs,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            for child in rec.children:
                emit(child, span_id)

        for root in spans:
            emit(root, None)

        if metrics is not None:
            for name in sorted(metrics.counters):
                fh.write(
                    json.dumps(
                        {
                            "type": "counter",
                            "name": name,
                            "value": metrics.counters[name],
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
            for name in sorted(metrics.histograms):
                fh.write(
                    json.dumps(
                        {
                            "type": "hist",
                            "name": name,
                            "values": list(metrics.histograms[name]),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
    return n_spans


_SPAN_KEYS = {"type", "id", "parent", "name", "start", "dur", "pid", "attrs"}


def read_trace(path: str) -> TraceData:
    """Parse a trace file, raising :class:`TraceSchemaError` on any defect."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise TraceSchemaError(f"{path}: empty trace file")

    def load(i: int, line: str) -> Dict[str, object]:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise TraceSchemaError(f"{path}:{i + 1}: not JSON: {err}") from err
        if not isinstance(obj, dict) or "type" not in obj:
            raise TraceSchemaError(f"{path}:{i + 1}: expected an object with 'type'")
        return obj

    header = load(0, lines[0])
    if header["type"] != "trace":
        raise TraceSchemaError(f"{path}:1: first line must be the trace header")
    version = header.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise TraceSchemaError(f"{path}:1: unsupported trace version {version!r}")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise TraceSchemaError(f"{path}:1: meta must be an object")

    roots: list = []
    by_id: Dict[int, SpanRecord] = {}
    counters: Dict[str, float] = {}
    histograms: Dict[str, Tuple[float, ...]] = {}

    for i, line in enumerate(lines[1:], start=1):
        obj = load(i, line)
        kind = obj["type"]
        if kind == "span":
            missing = _SPAN_KEYS - obj.keys()
            if missing:
                raise TraceSchemaError(
                    f"{path}:{i + 1}: span missing keys {sorted(missing)}"
                )
            span_id = obj["id"]
            if not isinstance(span_id, int) or span_id in by_id:
                raise TraceSchemaError(
                    f"{path}:{i + 1}: bad or duplicate span id {span_id!r}"
                )
            if not isinstance(obj["attrs"], dict):
                raise TraceSchemaError(f"{path}:{i + 1}: span attrs must be an object")
            rec = SpanRecord(
                name=str(obj["name"]),
                start=float(obj["start"]),
                duration=float(obj["dur"]),
                pid=int(obj["pid"]),
                attrs=dict(obj["attrs"]),
            )
            parent = obj["parent"]
            if parent is None:
                roots.append(rec)
            elif isinstance(parent, int) and parent in by_id:
                by_id[parent].children.append(rec)
            else:
                raise TraceSchemaError(
                    f"{path}:{i + 1}: span {span_id} references "
                    f"unknown parent {parent!r}"
                )
            by_id[span_id] = rec
        elif kind == "counter":
            name, value = obj.get("name"), obj.get("value")
            if not isinstance(name, str) or not isinstance(value, (int, float)):
                raise TraceSchemaError(f"{path}:{i + 1}: bad counter line")
            counters[name] = value
        elif kind == "hist":
            name, values = obj.get("name"), obj.get("values")
            if not isinstance(name, str) or not isinstance(values, list):
                raise TraceSchemaError(f"{path}:{i + 1}: bad hist line")
            histograms[name] = tuple(float(v) for v in values)
        else:
            raise TraceSchemaError(f"{path}:{i + 1}: unknown line type {kind!r}")

    return TraceData(
        meta=dict(meta),
        spans=tuple(roots),
        metrics=MetricsSnapshot(counters=counters, histograms=histograms),
        version=int(version),
    )
