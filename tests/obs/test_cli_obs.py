"""CLI surface: --trace/--metrics flags, the trace subcommand, -v/-q."""

import json
import os
import sys

import pytest

from repro.cli import main
from repro.obs import configure_logging, read_trace


@pytest.fixture(autouse=True)
def _restore_logging():
    # main() installs a stderr handler bound to capsys's capture stream;
    # rebind to the real stderr (at the default WARNING level) afterwards
    # so later tests never log into a torn-down capture object.
    yield
    configure_logging(stream=sys.stderr)


SEARCH_ARGV = [
    "search",
    "--family",
    "wavefront",
    "--param",
    "width=2",
    "--param",
    "height=2",
]


def test_search_trace_flag_writes_valid_jsonl(tmp_path, capsys):
    trace = str(tmp_path / "t.jsonl")
    argv = SEARCH_ARGV + ["--range-shards", "4", "--trace", trace]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "trace with" in out and trace in out

    data = read_trace(trace)
    assert data.meta == {"command": "search"}
    (root,) = data.spans
    assert root.name == "plan.execute"
    tasks = [s for s in root.children if s.name.startswith("task:")]
    assert len(tasks) == 4
    assert data.metrics.counter("search.schedules_evaluated") == 16


def test_search_metrics_flag_appends_counters(capsys):
    assert main(SEARCH_ARGV + ["--metrics"]) == 0
    out = capsys.readouterr().out
    assert "counters:" in out
    assert "search.schedules_evaluated" in out


def test_trace_subcommand_renders_tree(tmp_path, capsys):
    trace = str(tmp_path / "t.jsonl")
    assert main(SEARCH_ARGV + ["--trace", trace]) == 0
    capsys.readouterr()
    assert main(["trace", trace]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trace v2  command=search")
    assert "search.exhaustive" in out
    assert "|#" in out  # duration bars


def _refusal(argv):
    """The one-line message ``main(argv)`` exits with."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    message = str(err.value)
    assert "\n" not in message
    return message


def test_trace_subcommand_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert f"{bad}:1: not JSON" in _refusal(["trace", str(bad)])


def test_trace_subcommand_rejects_missing_file(tmp_path):
    missing = str(tmp_path / "nosuch.jsonl")
    message = _refusal(["trace", missing])
    assert "No such file" in message and missing in message


def test_trace_subcommand_rejects_unsupported_version(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "trace", "version": 9}\n')
    message = _refusal(["trace", str(bad)])
    assert message == f"{bad}:1: unsupported trace version 9"


def test_trace_diff_rejects_garbage(tmp_path, capsys):
    good = str(tmp_path / "t.jsonl")
    assert main(SEARCH_ARGV + ["--trace", good]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    message = _refusal(["trace", "--diff", str(bad), good])
    assert f"{bad}:1: not JSON" in message


def _search_trace(tmp_path, capsys):
    trace = str(tmp_path / "t.jsonl")
    assert main(SEARCH_ARGV + ["--trace", trace]) == 0
    capsys.readouterr()
    return trace


def test_trace_refuses_json_without_analyze(tmp_path, capsys):
    """``--json`` writes the analysis tables, so without ``--analyze`` it
    is refused instead of silently dropped."""
    trace = _search_trace(tmp_path, capsys)
    out_json = tmp_path / "a.json"
    message = _refusal(["trace", trace, "--json", str(out_json)])
    assert message.startswith("--json requires --analyze")
    assert not out_json.exists()


@pytest.mark.parametrize(
    "extra,flag",
    [
        (["--analyze"], "--analyze"),
        (["--json", "a.json"], "--json"),
        (["--export-perfetto", "p.json"], "--export-perfetto"),
        (
            ["--analyze", "--json", "a.json", "--export-perfetto", "p.json"],
            "--analyze",
        ),
    ],
    ids=["analyze", "json", "export-perfetto", "all-three"],
)
def test_trace_diff_refuses_flags_it_would_ignore(
    extra, flag, tmp_path, capsys, monkeypatch
):
    trace = _search_trace(tmp_path, capsys)
    monkeypatch.chdir(tmp_path)
    message = _refusal(["trace", "--diff", trace, trace] + extra)
    assert message.startswith(f"{flag} does not apply to --diff")
    assert not (tmp_path / "a.json").exists()
    assert not (tmp_path / "p.json").exists()


def test_advise_smoke_metrics_include_recommend_histogram(tmp_path, capsys):
    argv = [
        "advise",
        "--smoke",
        "--store",
        str(tmp_path / "store"),
        "--metrics",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "advisor.recommendations" in out
    assert "advisor.recommend_s" in out


def test_verbose_flag_routes_diagnostics_to_stderr(capsys):
    assert main(["-v"] + SEARCH_ARGV + ["--range-shards", "2"]) == 0
    captured = capsys.readouterr()
    assert "search.range_sharded" in captured.err
    assert "search.range_sharded" not in captured.out


def test_quiet_by_default_no_stderr_diagnostics(capsys):
    assert main(SEARCH_ARGV + ["--range-shards", "2"]) == 0
    captured = capsys.readouterr()
    assert "search.range_sharded" not in captured.err


def test_search_cache_counters_cold_then_warm(tmp_path, capsys):
    cache = str(tmp_path / "c.sqlite")
    argv = SEARCH_ARGV + ["--cache", cache, "--metrics"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "cache.misses" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "cache.hits" in warm


def test_suite_json_reports_cache_metrics(tmp_path, capsys):
    cache = str(tmp_path / "cache.sqlite")
    argv = ["suite", "smoke", "--cache", cache, "--json", "-"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    assert payload["metrics"]["cache"]["hits"] > 0


# -- sharded traces: --analyze (--json) + --export-perfetto -----------
def _sharded_trace(tmp_path, capsys, name="sharded.jsonl"):
    trace = str(tmp_path / name)
    argv = SEARCH_ARGV + [
        "--range-shards",
        "2",
        "--shard-workers",
        "2",
        "--trace",
        trace,
    ]
    assert main(argv) == 0
    capsys.readouterr()
    return trace


def test_trace_analyze_prints_worker_table_for_sharded_suite(tmp_path, capsys):
    trace = str(tmp_path / "trace.jsonl")
    argv = ["suite", "smoke", "--shard-workers", "2", "--trace", trace]
    assert main(argv + ["--json", str(tmp_path / "suite.json")]) == 0
    capsys.readouterr()
    assert main(["trace", trace, "--analyze"]) == 0
    out = capsys.readouterr().out
    table = out[out.index("worker utilization (plan.execute window):") :]
    header = table.splitlines()[1]
    assert header.split() == ["pid", "tasks", "busy", "util", "timeline"]
    data = read_trace(trace)
    parent = data.spans[0].pid
    workers = {
        s.pid for s in data.walk() if s.name.startswith("task:")
    } - {parent}
    assert workers
    rows = table.splitlines()[3:]
    assert sorted(int(row.split()[0]) for row in rows) == sorted(workers)


def test_trace_analyze_json_reports_worker_resources(tmp_path, capsys):
    trace = _sharded_trace(tmp_path, capsys)
    assert main(["trace", trace, "--analyze", "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "n_samples" not in payload and "resources" not in payload
    workers = payload["workers"]
    assert len(workers) == 2
    assert sum(w["n_tasks"] for w in workers) == 2
    assert all(0 < w["utilization"] <= 1 for w in workers)
    assert set(workers[0]) == {
        "pid",
        "n_tasks",
        "busy_s",
        "window_s",
        "utilization",
    }


def test_trace_analyze_json_to_file(tmp_path, capsys):
    trace = _sharded_trace(tmp_path, capsys)
    out_json = str(tmp_path / "analysis.json")
    assert main(["trace", trace, "--analyze", "--json", out_json]) == 0
    out = capsys.readouterr().out
    assert f"analysis JSON written to {out_json}" in out
    assert "span paths by total wall" in out  # tables still render
    assert json.load(open(out_json))["n_spans"] > 0


def test_trace_export_perfetto_passes_schema_check(tmp_path, capsys):
    from repro.obs import check_perfetto

    trace = _sharded_trace(tmp_path, capsys)
    out_json = str(tmp_path / "perfetto.json")
    assert main(["trace", trace, "--export-perfetto", out_json]) == 0
    out = capsys.readouterr().out
    assert "perfetto trace with" in out and "ui.perfetto.dev" in out
    obj = json.load(open(out_json))
    assert check_perfetto(obj) == []
    pids = {e["pid"] for e in obj["traceEvents"]}
    assert len(pids) >= 3  # parent + two shard workers


# -- repro obs history --------------------------------------------------
def _seed_history(tmp_path, walls):
    from repro.obs import HistoryStore

    store_dir = str(tmp_path / "hist")
    store = HistoryStore(store_dir)
    for i, wall in enumerate(walls):
        store.ingest_analysis(
            {"paths": [{"path": "plan.execute", "total_s": wall}]},
            ts=float(i),
            run_id=f"run-{i}",
        )
    return store_dir


def test_obs_history_ingest_show_roundtrip(tmp_path, capsys):
    trace = _sharded_trace(tmp_path, capsys)
    store = str(tmp_path / "hist")
    assert main(["obs", "history", "ingest", store, trace]) == 0
    out = capsys.readouterr().out
    assert f"ingested {trace}:" in out
    assert "runs total" in out
    # Re-ingesting the same trace file is idempotent.
    assert main(["obs", "history", "ingest", store, trace]) == 0
    assert "+0 points" in capsys.readouterr().out
    assert main(["obs", "history", "show", store, "--series", "span:"]) == 0
    out = capsys.readouterr().out
    assert "span:plan.execute" in out


def test_obs_history_ingest_trace_files_once_per_file(tmp_path, capsys):
    first = _sharded_trace(tmp_path, capsys, "first.jsonl")
    second = _sharded_trace(tmp_path, capsys, "second.jsonl")
    store = str(tmp_path / "hist")
    ingest = ["obs", "history", "ingest", store]
    assert main(ingest + [first, "--sha", "abc"]) == 0
    added = capsys.readouterr().out
    assert "+0 points" not in added and "1 runs total" in added
    assert main(ingest + [first]) == 0
    assert "+0 points, 1 runs total" in capsys.readouterr().out
    assert main(ingest + [second]) == 0
    assert "2 runs total" in capsys.readouterr().out


def test_obs_history_ingest_rejects_directory(tmp_path):
    store = str(tmp_path / "hist")
    plain = tmp_path / "plain"
    plain.mkdir()
    message = _refusal(["obs", "history", "ingest", store, str(plain)])
    assert "Is a directory" in message and str(plain) in message


def test_obs_history_ingest_rejects_bad_benchmark_file(tmp_path):
    bench = tmp_path / "b.json"
    bench.write_text('{"benchmarks": 3}')
    store = str(tmp_path / "hist")
    message = _refusal(["obs", "history", "ingest", store, str(bench)])
    assert message == f"{bench}: no 'benchmarks' array"


def test_obs_history_gate_fails_naming_regressed_path(tmp_path, capsys):
    store = _seed_history(
        tmp_path, [1.0, 1.02, 0.98, 1.01, 0.99, 2.0]
    )
    with pytest.raises(SystemExit) as err:
        main(["obs", "history", "gate", store])
    assert "history gate failed" in str(err.value)
    assert "span:plan.execute" in str(err.value)
    out = capsys.readouterr().out
    assert "2x" in out or "2.0" in out  # report shows the regression


def test_obs_history_gate_passes_without_regression(tmp_path, capsys):
    store = _seed_history(
        tmp_path, [1.0, 1.02, 0.98, 1.01, 0.99, 1.01]
    )
    assert main(["obs", "history", "gate", store]) == 0
    out = capsys.readouterr().out
    assert "history gate: OK" in out and "warn-only" in out


@pytest.mark.parametrize("action", ["show", "gate"])
def test_obs_history_reader_refuses_missing_store(action, tmp_path):
    """A misspelled store used to read as an empty history: `gate`
    passed, `show` found no series, and both made the directory."""
    missing = str(tmp_path / "nosuchstore")
    message = _refusal(["obs", "history", action, missing])
    assert message == f"{missing}: no such history store directory"
    assert not os.path.exists(missing)


def test_obs_history_refused_ingest_makes_no_store(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    store = str(tmp_path / "hist")
    assert "not a benchmark JSON" in _refusal(
        ["obs", "history", "ingest", store, str(bad)]
    )
    assert not os.path.exists(store)
