"""CLI surface: trace --analyze/--diff on --trace files."""

import sys

import pytest

from repro.cli import main
from repro.obs import SpanRecord, configure_logging, render_span_tree


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


# -- trace --analyze ---------------------------------------------------
def test_trace_analyze_on_range_sharded_trace(tmp_path, capsys):
    trace = str(tmp_path / "t.jsonl")
    assert main(SEARCH_ARGV + ["--range-shards", "4", "--trace", trace]) == 0
    capsys.readouterr()
    assert main(["trace", trace, "--analyze"]) == 0
    out = capsys.readouterr().out
    assert "trace analysis:" in out
    assert "critical path" in out
    assert "plan.execute" in out
    # The critical path starts at the plan root and descends into one
    # of the four parallel shard tasks.
    assert "3 sibling(s)" in out
    # The shards ran in this process: no worker table.
    assert "worker utilization" not in out


# -- trace --diff ------------------------------------------------------
def test_trace_diff_same_config_passes_counters_exact(tmp_path, capsys):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert main(SEARCH_ARGV + ["--trace", a]) == 0
    assert main(SEARCH_ARGV + ["--trace", b]) == 0
    capsys.readouterr()
    # Same config twice: counters identical, so the check passes
    # whatever the two runs' walls.
    assert main(["trace", "--diff", a, b]) == 0
    out = capsys.readouterr().out
    assert "counters: identical" in out
    assert "RESULT: ok" in out


def test_trace_diff_counter_drift_fails(tmp_path, capsys):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert main(SEARCH_ARGV + ["--trace", a]) == 0
    assert main(
        # height=3: a bigger space, so counters legitimately differ.
        SEARCH_ARGV[:-1] + ["height=3", "--trace", b]
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
