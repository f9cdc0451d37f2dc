"""Adapters that feed external perf data into the obs tooling.

:func:`bench_json_to_trace` converts a pytest-benchmark JSON file into a
synthetic :class:`~repro.obs.trace_io.TraceData` — one root span per
benchmark, duration = mean wall — so the history store
(:mod:`repro.obs.history`) ingests benchmark runs exactly as it ingests
archived traces, and :func:`repro.obs.diff.diff_runs` can compare them.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from repro.obs.span import SpanRecord
from repro.obs.trace_io import TraceData, TraceSchemaError

__all__ = ["bench_json_to_trace"]


def bench_json_to_trace(
    path: str, pattern: Optional[str] = None
) -> TraceData:
    """Convert a pytest-benchmark JSON file to a synthetic trace.

    Every benchmark whose ``fullname`` matches ``pattern`` (all, when
    None) becomes one root span with the benchmark's mean wall time as
    its duration, so :func:`~repro.obs.diff.diff_runs` sees benchmark
    fullnames as span paths.  Rounds become a ``bench.rounds`` counter
    contribution per benchmark only in span attrs — counters are left
    empty because benchmark runs have no deterministic-event identity
    to gate on.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise TraceSchemaError(f"{path}: not a benchmark JSON file: {err}")
    benches = data.get("benchmarks")
    if not isinstance(benches, list):
        raise TraceSchemaError(f"{path}: no 'benchmarks' array")
    rx = re.compile(pattern) if pattern else None

    spans = []
    for bench in benches:
        fullname = bench.get("fullname")
        stats = bench.get("stats")
        if not isinstance(fullname, str) or not isinstance(stats, dict):
            continue
        if rx is not None and not rx.search(fullname):
            continue
        mean = stats.get("mean")
        if not isinstance(mean, (int, float)):
            continue
        spans.append(
            SpanRecord(
                name=fullname,
                start=0.0,
                duration=float(mean),
                pid=0,
                attrs={"rounds": stats.get("rounds", 0)},
            )
        )
    spans.sort(key=lambda s: s.name)
    return TraceData(
        meta={"source": "pytest-benchmark", "path": path},
        spans=tuple(spans),
    )
