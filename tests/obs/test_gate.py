"""bench_json_to_trace: pytest-benchmark JSON as a synthetic trace."""

import json

import pytest

from repro.obs import (
    DiffThresholds,
    TraceSchemaError,
    bench_json_to_trace,
    diff_runs,
)


def _bench_json(path, means):
    payload = {
        "benchmarks": [
            {
                "fullname": name,
                "stats": {"mean": mean, "rounds": 5},
            }
            for name, mean in means.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_bench_json_to_trace_one_root_span_per_benchmark(tmp_path):
    path = _bench_json(
        tmp_path / "b.json",
        {"bench_a.py::test_x": 0.5, "bench_b.py::test_y": 0.25},
    )
    data = bench_json_to_trace(path)
    assert [s.name for s in data.spans] == [
        "bench_a.py::test_x",
        "bench_b.py::test_y",
    ]
    assert data.spans[0].duration == 0.5
    assert data.meta["source"] == "pytest-benchmark"
    assert not data.metrics.counters


def test_bench_json_to_trace_pattern_filter_and_bad_rows(tmp_path):
    payload = {
        "benchmarks": [
            {"fullname": "bench_keep.py::t", "stats": {"mean": 0.1}},
            {"fullname": "bench_drop.py::t", "stats": {"mean": 0.1}},
            {"fullname": "bench_keep.py::no_stats"},
            {"stats": {"mean": 0.1}},
            {"fullname": "bench_keep.py::bad_mean", "stats": {"mean": "x"}},
        ]
    }
    path = tmp_path / "b.json"
    path.write_text(json.dumps(payload))
    data = bench_json_to_trace(str(path), pattern="keep")
    assert [s.name for s in data.spans] == ["bench_keep.py::t"]


def test_bench_json_to_trace_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(TraceSchemaError, match="not a benchmark JSON"):
        bench_json_to_trace(str(bad))
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(TraceSchemaError, match="no 'benchmarks' array"):
        bench_json_to_trace(str(empty))


def test_injected_slowdown_flagged_by_ci_thresholds(tmp_path):
    """A 2x per-stage slowdown must trip the run-diff gate."""
    baseline = bench_json_to_trace(
        _bench_json(
            tmp_path / "base.json",
            {"bench_sharding.py::suite": 1.0, "bench_guided.py::bnb": 0.4},
        )
    )
    slowed = bench_json_to_trace(
        _bench_json(
            tmp_path / "cur.json",
            {"bench_sharding.py::suite": 2.0, "bench_guided.py::bnb": 0.4},
        )
    )
    # A 25% wall budget with no noise floor.
    diff = diff_runs(
        baseline, slowed, DiffThresholds(max_wall_delta=0.25, min_wall_s=0.0)
    )
    flagged = [p.path for p in diff.paths if p.regressed]
    assert flagged == ["bench_sharding.py::suite"]
    assert not diff.ok
