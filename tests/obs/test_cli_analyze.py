"""CLI surface for PR 8: --archive, trace --analyze/--diff, --progress."""

import re
import sys

import pytest

from repro.cli import main
from repro.obs import RunArchive, SpanRecord, configure_logging, render_span_tree


@pytest.fixture(autouse=True)
def _restore_logging():
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


# -- --archive ---------------------------------------------------------
def test_archive_flag_records_bundle(tmp_path, capsys):
    root = str(tmp_path / "arch")
    assert main(SEARCH_ARGV + ["--archive", root]) == 0
    out = capsys.readouterr().out
    assert "archived run" in out

    archive = RunArchive(root)
    (rec,) = archive.runs()
    assert rec.command == "search"
    assert rec.meta["argv"][0] == "search"
    assert rec.meta["machine"] == "perlmutter-like"
    data = rec.load()
    assert data.n_spans() > 0
    assert data.metrics.counter("search.schedules_evaluated") == 16


def test_archive_accumulates_runs(tmp_path, capsys):
    root = str(tmp_path / "arch")
    assert main(SEARCH_ARGV + ["--archive", root]) == 0
    assert main(SEARCH_ARGV + ["--archive", root]) == 0
    capsys.readouterr()
    assert len(RunArchive(root).runs()) == 2


# -- trace --analyze ---------------------------------------------------
def test_trace_analyze_on_archive_root(tmp_path, capsys):
    root = str(tmp_path / "arch")
    assert main(SEARCH_ARGV + ["--range-shards", "4", "--archive", root]) == 0
    capsys.readouterr()
    assert main(["trace", root, "--analyze"]) == 0
    out = capsys.readouterr().out
    assert "trace analysis:" in out
    assert "critical path" in out
    assert "plan.execute" in out
    # The critical path starts at the plan root and descends into one
    # of the four parallel shard tasks.
    assert "3 sibling(s)" in out


# -- trace --diff ------------------------------------------------------
def test_trace_diff_same_config_passes_counters_exact(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(SEARCH_ARGV + ["--archive", a]) == 0
    assert main(SEARCH_ARGV + ["--archive", b]) == 0
    capsys.readouterr()
    # Same config twice: counters identical, so the check passes
    # whatever the two runs' walls.
    assert main(["trace", "--diff", a, b]) == 0
    out = capsys.readouterr().out
    assert "counters: identical" in out
    assert "RESULT: ok" in out


def test_trace_diff_counter_drift_fails(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(SEARCH_ARGV + ["--archive", a]) == 0
    assert main(
        # height=3: a bigger space, so counters legitimately differ.
        SEARCH_ARGV[:-1] + ["height=3", "--archive", b]
    ) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match="regression"):
        main(["trace", "--diff", a, b])
    assert "counter" in capsys.readouterr().out


def test_trace_diff_requires_two_paths(tmp_path):
    with pytest.raises(SystemExit, match="exactly two"):
        main(["trace", "--diff", str(tmp_path / "only-one")])
    with pytest.raises(SystemExit, match="renders one trace"):
        main(["trace", str(tmp_path / "a"), str(tmp_path / "b")])


# -- --progress --------------------------------------------------------
def _progress_lines(err, label="search wavefront"):
    return [line for line in err.splitlines() if line.startswith(label)]


def _done_counts(lines):
    return [int(re.search(r"\((\d+)/16\)", line).group(1)) for line in lines]


def test_search_progress_serial_monotone_to_100(capsys):
    assert main(SEARCH_ARGV + ["--progress"]) == 0
    err = capsys.readouterr().err
    lines = _progress_lines(err)
    assert lines, err
    done = _done_counts(lines)
    assert done == sorted(done)
    # Exhaustive 2x2 wavefront: 16 enumerated leaves, none cut, so the
    # meter ends at exactly 100% = evaluated + pruned + cut.
    assert done[-1] == 16
    assert "100.0%" in lines[-1] and "done" in lines[-1]


def test_search_progress_range_sharded_monotone_to_100(capsys):
    argv = SEARCH_ARGV + ["--range-shards", "4", "--progress"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    lines = _progress_lines(captured.err)
    assert lines, captured.err
    done = _done_counts(lines)
    assert done == sorted(done)
    assert done[-1] == 16
    assert "100.0%" in lines[-1] and "done" in lines[-1]
    # Sharding must not change the search result accounting.
    assert "evaluated 16 schedules" in captured.out


def test_search_progress_shard_workers_count_finished_ranges(capsys):
    # Four 4-schedule ranges on two worker processes: the parent counts
    # each range's shipped counters when it finishes, so every line shows
    # whole ranges and the last one the exact total.
    argv = SEARCH_ARGV + [
        "--range-shards", "4", "--shard-workers", "2", "--progress",
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    lines = _progress_lines(captured.err)
    assert lines, captured.err
    done = _done_counts(lines)
    assert done == sorted(done)
    assert all(n % 4 == 0 for n in done), done
    assert "(16/16)" in lines[-1] and "done" in lines[-1]
    assert "evaluated 16 schedules" in captured.out


def test_search_progress_requires_exhaustive():
    with pytest.raises(SystemExit, match="--progress requires"):
        main(SEARCH_ARGV + ["--strategy", "random", "--progress"])


def test_suite_progress_counts_tasks(capsys, tmp_path):
    json_path = str(tmp_path / "smoke.json")
    assert main(["suite", "smoke", "--progress", "--json", json_path]) == 0
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("suite smoke")]
    assert lines, err
    assert "(7/7)" in lines[-1] and "done" in lines[-1]


# -- renderer sibling ordering ----------------------------------------
def test_render_span_tree_orders_siblings_by_start():
    # Absorb order is completion order under a shard pool; the renderer
    # must re-sort siblings by start time.
    kids = [
        SpanRecord(name="late", start=5.0, duration=1.0, pid=1),
        SpanRecord(name="early", start=1.0, duration=1.0, pid=1),
        SpanRecord(name="mid", start=3.0, duration=1.0, pid=1),
    ]
    root = SpanRecord(
        name="root", start=0.0, duration=6.0, pid=1, children=kids
    )
    lines = render_span_tree([root])
    order = [
        line.split()[1].lstrip("|`- ")
        for line in lines[1:]
    ]
    assert order == ["early", "mid", "late"]


def test_render_span_tree_tie_breaks_by_pid_then_name():
    kids = [
        SpanRecord(name="b", start=1.0, duration=1.0, pid=2),
        SpanRecord(name="a", start=1.0, duration=1.0, pid=2),
        SpanRecord(name="z", start=1.0, duration=1.0, pid=1),
    ]
    root = SpanRecord(
        name="root", start=0.0, duration=3.0, pid=1, children=kids
    )
    lines = render_span_tree([root])
    names = [line.split()[1].lstrip("|`- ") for line in lines[1:]]
    assert names == ["z", "a", "b"]
