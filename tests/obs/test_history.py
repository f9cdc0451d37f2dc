"""HistoryStore: ingestion, dedup, and the rolling median+MAD gate."""

import json
import os

import pytest

from repro.obs import (
    HistoryPoint,
    HistoryStore,
    MetricsRegistry,
    SpanRecord,
    TraceSchemaError,
    detect_regressions,
    history,
    write_trace,
)


def _store(tmp_path):
    return HistoryStore(str(tmp_path / "hist"))


def _analysis(total_s, *, counters=None, hist=None):
    payload = {
        "paths": [
            {"path": "plan.execute", "count": 1, "total_s": total_s},
            {"path": "plan.execute/task:w", "count": 2, "total_s": total_s / 2},
        ],
        "counters": counters or {"search.schedules_evaluated": 16},
    }
    if hist:
        payload["histograms"] = hist
    return payload


# -- store basics ------------------------------------------------------
def test_append_load_round_trip(tmp_path):
    store = _store(tmp_path)
    point = HistoryPoint(
        series="span:x", value=1.5, sha="abc", ts=10.0, run_id="r1"
    )
    assert store.append([point]) == 1
    (loaded,) = store.load()
    assert loaded == point


def test_store_directory_made_by_first_append(tmp_path):
    store = _store(tmp_path)
    assert not os.path.exists(store.root)
    assert store.load() == [] and store.series() == {}
    assert not os.path.exists(store.root)
    store.append([HistoryPoint(series="s", value=1.0)])
    assert os.path.isfile(store.path)


def test_load_tolerates_torn_and_garbage_lines(tmp_path):
    store = _store(tmp_path)
    store.append([HistoryPoint(series="s", value=1.0)])
    with open(store.path, "a", encoding="utf-8") as fh:
        fh.write('{"series": "torn", "val\n')  # torn concurrent append
        fh.write("[1, 2]\n")  # non-object row
        fh.write('{"series": 5, "value": 1}\n')  # bad series type
        fh.write('{"series": "ok", "value": "NaNish"}\n')  # bad value
    assert [p.series for p in store.load()] == ["s"]


def test_series_groups_and_sorts_by_ts(tmp_path):
    store = _store(tmp_path)
    store.append(
        [
            HistoryPoint(series="a", value=2.0, ts=20.0),
            HistoryPoint(series="a", value=1.0, ts=10.0),
            HistoryPoint(series="b", value=9.0, ts=5.0),
        ]
    )
    groups = store.series()
    assert [p.value for p in groups["a"]] == [1.0, 2.0]
    assert [p.value for p in groups["b"]] == [9.0]


# -- ingestion ---------------------------------------------------------
def test_ingest_analysis_emits_span_counter_hist_series(tmp_path):
    store = _store(tmp_path)
    n = store.ingest_analysis(
        _analysis(
            2.0,
            hist={"lat": {"p50": 0.1, "p95": 0.2, "p99": 0.3, "count": 9}},
        ),
        sha="abc",
        ts=1.0,
        run_id="r1",
    )
    assert n == 6  # 2 span + 1 counter + 3 quantile series
    groups = store.series()
    assert groups["span:plan.execute"][0].value == 2.0
    assert groups["counter:search.schedules_evaluated"][0].value == 16
    assert groups["hist:lat:p99"][0].value == 0.3
    assert "hist:lat:count" not in groups  # only quantiles are series


def test_ingest_analysis_dedups_by_run_id(tmp_path):
    store = _store(tmp_path)
    assert store.ingest_analysis(_analysis(1.0), run_id="r1") > 0
    assert store.ingest_analysis(_analysis(9.0), run_id="r1") == 0
    assert store.run_ids() == ["r1"]


def test_ingest_trace_keys_run_by_file_name(tmp_path):
    registry = MetricsRegistry()
    registry.add("search.schedules_evaluated", 16)
    registry.observe("lat", 0.5)
    root = SpanRecord(name="plan.execute", start=0.0, duration=1.0, pid=1)
    path = str(tmp_path / "TRACE_abc.jsonl")
    write_trace(path, [root], registry.snapshot(), meta={"command": "suite"})
    store = _store(tmp_path)
    assert store.ingest_trace(path, sha="abc") == 5
    points = store.load()
    assert {(p.run_id, p.sha, p.ts, p.source) for p in points} == {
        ("TRACE_abc.jsonl", "abc", os.path.getmtime(path), path)
    }
    assert {p.series: p.value for p in points} == {
        "span:plan.execute": 1.0,
        "counter:search.schedules_evaluated": 16,
        "hist:lat:p50": 0.5,
        "hist:lat:p95": 0.5,
        "hist:lat:p99": 0.5,
    }
    # The file name is the run id: ingesting it again adds nothing.
    assert store.ingest_trace(path, sha="abc") == 0


def test_ingest_bench_uses_benchmark_means(tmp_path):
    bench = tmp_path / "BENCH_abc.json"
    bench.write_text(
        json.dumps(
            {
                "benchmarks": [
                    {
                        "fullname": "benchmarks/bench_x.py::test_y",
                        "stats": {"mean": 0.25},
                    }
                ]
            }
        )
    )
    store = _store(tmp_path)
    assert store.ingest_bench(str(bench), sha="abc") == 1
    (point,) = store.load()
    assert point.series == "bench:benchmarks/bench_x.py::test_y"
    assert point.value == 0.25
    assert point.sha == "abc"
    assert point.run_id == "BENCH_abc.json"
    # Re-ingesting the same artifact is a no-op (CI cache safety).
    assert store.ingest_bench(str(bench)) == 0


def test_ingest_bench_one_point_per_benchmark_in_fullname_order(tmp_path):
    payload = {
        "benchmarks": [
            {"fullname": "bench_b.py::test_y", "stats": {"mean": 0.25}},
            {"fullname": "bench_a.py::test_x", "stats": {"mean": 0.5}},
        ]
    }
    path = tmp_path / "b.json"
    path.write_text(json.dumps(payload))
    store = _store(tmp_path)
    assert store.ingest_bench(str(path)) == 2
    assert [(p.series, p.value) for p in store.load()] == [
        ("bench:bench_a.py::test_x", 0.5),
        ("bench:bench_b.py::test_y", 0.25),
    ]


def test_ingest_bench_skips_bad_rows(tmp_path):
    payload = {
        "benchmarks": [
            {"fullname": "bench_keep.py::t", "stats": {"mean": 0.1}},
            {"fullname": "bench_keep.py::no_stats"},
            {"stats": {"mean": 0.1}},
            {"fullname": "bench_keep.py::bad_mean", "stats": {"mean": "x"}},
            "not a row",
        ]
    }
    path = tmp_path / "b.json"
    path.write_text(json.dumps(payload))
    store = _store(tmp_path)
    assert store.ingest_bench(str(path)) == 1
    assert [p.series for p in store.load()] == ["bench:bench_keep.py::t"]


def test_ingest_bench_rejects_garbage(tmp_path):
    store = _store(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(TraceSchemaError, match="not a benchmark JSON"):
        store.ingest_bench(str(bad))
    for name, text in (("empty.json", "{}"), ("list.json", "[1, 2]")):
        empty = tmp_path / name
        empty.write_text(text)
        with pytest.raises(TraceSchemaError, match="no 'benchmarks' array"):
            store.ingest_bench(str(empty))
    assert store.load() == []


# -- trend gate --------------------------------------------------------
def _ingest_runs(store, walls):
    for i, wall in enumerate(walls):
        store.ingest_analysis(
            _analysis(wall), ts=float(i), run_id=f"run-{i}"
        )


def test_gate_names_regressed_span_path_on_2x_wall(tmp_path):
    store = _store(tmp_path)
    # Five steady runs, then a 2x wall regression in the newest.
    _ingest_runs(store, [1.0, 1.02, 0.98, 1.01, 0.99, 2.0])
    regs = detect_regressions(store)
    names = [r.series for r in regs]
    assert "span:plan.execute" in names
    reg = next(r for r in regs if r.series == "span:plan.execute")
    assert reg.value == 2.0
    assert reg.median == pytest.approx(1.0, abs=0.02)
    assert reg.ratio > 1.9
    assert reg.run_id == "run-5"
    assert "span:plan.execute" in reg.describe()
    assert "2x" in f"{reg.ratio:.0f}x"


def test_gate_quiet_without_regression(tmp_path):
    store = _store(tmp_path)
    _ingest_runs(store, [1.0, 1.02, 0.98, 1.01, 0.99, 1.03])
    assert detect_regressions(store) == []


def test_gate_warn_only_below_min_points(tmp_path):
    store = _store(tmp_path)
    # A blatant regression with only 4 runs of history: skipped.
    _ingest_runs(store, [1.0, 1.0, 1.0, 10.0])
    assert detect_regressions(store) == []
    # One more run and the (still-regressed) series is eligible.
    store.ingest_analysis(_analysis(10.0), ts=9.0, run_id="run-9")
    assert detect_regressions(store)


def test_gate_mad_band_tolerates_noisy_series(tmp_path):
    store = _store(tmp_path)
    # Noisy baseline: swings of +/-30% are this series' normal.
    _ingest_runs(store, [1.0, 1.3, 0.7, 1.25, 0.75, 1.3])
    assert detect_regressions(store) == []


def test_gate_relative_floor_protects_constant_series(tmp_path):
    store = _store(tmp_path)
    # Identical values -> MAD 0; a +5% blip stays under the 10% floor.
    _ingest_runs(store, [1.0, 1.0, 1.0, 1.0, 1.0, 1.05])
    assert detect_regressions(store) == []
    store2 = HistoryStore(str(tmp_path / "other"))
    _ingest_runs(store2, [1.0, 1.0, 1.0, 1.0, 1.0, 1.2])
    assert detect_regressions(store2)


def test_gate_prefix_filter_ignores_counters(tmp_path, monkeypatch):
    store = _store(tmp_path)
    for i in range(6):
        store.ingest_analysis(
            _analysis(1.0, counters={"cache.hits": 10 ** i}),
            ts=float(i),
            run_id=f"run-{i}",
        )
    # Counter series explode by 10x per run but are not gated on.
    assert detect_regressions(store) == []
    # The same series would flag if counters were gated.
    monkeypatch.setattr(history, "GATED_PREFIXES", ("counter:",))
    regs = detect_regressions(store)
    assert [r.series for r in regs] == ["counter:cache.hits"]


def test_gate_ignores_improvements(tmp_path):
    store = _store(tmp_path)
    _ingest_runs(store, [1.0, 1.0, 1.0, 1.0, 1.0, 0.2])
    assert detect_regressions(store) == []
