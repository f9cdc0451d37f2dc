"""Trace analytics: aggregation, hotspots, critical path, rendering."""

from repro.obs import (
    SpanRecord,
    TraceData,
    aggregate_spans,
    critical_path,
    hotspots,
    render_analysis,
)


def _span(name, duration, children=(), start=0.0, pid=1):
    return SpanRecord(
        name=name,
        start=start,
        duration=duration,
        pid=pid,
        attrs={},
        children=list(children),
    )


def _sharded_forest():
    """plan.execute with two parallel tasks (children sum past parent)."""
    t0 = _span(
        "task:a",
        0.6,
        [_span("search.exhaustive", 0.5, [_span("eval.batch", 0.4)])],
    )
    t1 = _span(
        "task:b",
        0.8,
        [_span("search.exhaustive", 0.7, [_span("eval.batch", 0.65)])],
    )
    # Tasks ran concurrently: the root wall (0.9) is far below the
    # summed task walls (1.4).
    return [_span("plan.execute", 0.9, [t0, t1])]


def test_aggregate_counts_and_totals_by_path():
    stats = aggregate_spans(_sharded_forest())
    assert stats["plan.execute"].count == 1
    # Same-name siblings fold into one path entry.
    tasks_a = stats["plan.execute/task:a"]
    assert tasks_a.count == 1 and tasks_a.total == 0.6
    stages = stats["plan.execute/task:a/search.exhaustive"]
    assert stages.total == 0.5
    assert (
        "plan.execute/task:b/search.exhaustive/eval.batch" in stats
    )


def test_aggregate_self_time_clamped_at_zero():
    # Parallel children: 0.6 + 0.8 > 0.9, so self time clamps to 0.
    stats = aggregate_spans(_sharded_forest())
    assert stats["plan.execute"].self_total == 0.0
    # Serial nesting: self = own - children.
    a_stage = stats["plan.execute/task:a/search.exhaustive"]
    assert abs(a_stage.self_total - 0.1) < 1e-12


def test_aggregate_max_tracks_largest_occurrence():
    forest = [
        _span("root", 1.0, [_span("leaf", 0.2), _span("leaf", 0.5)])
    ]
    stats = aggregate_spans(forest)
    leaf = stats["root/leaf"]
    assert leaf.count == 2
    assert leaf.max == 0.5
    assert abs(leaf.total - 0.7) < 1e-12


def test_hotspots_ranked_by_self_time():
    ranked = hotspots(_sharded_forest(), n=3)
    # The biggest leaf batch dominates self time.
    assert ranked[0].path == "plan.execute/task:b/search.exhaustive/eval.batch"
    assert len(ranked) == 3
    assert all(
        ranked[i].self_total >= ranked[i + 1].self_total
        for i in range(len(ranked) - 1)
    )


def test_hotspots_ties_break_by_path():
    forest = [_span("b", 0.5), _span("a", 0.5)]
    ranked = hotspots(forest, n=2)
    assert [s.path for s in ranked] == ["a", "b"]


def test_critical_path_descends_max_child_not_sum():
    steps = critical_path(_sharded_forest())
    # The chain follows task:b (the longer parallel sibling) even though
    # summing children would make either branch look similar.
    assert [s.name for s in steps] == [
        "plan.execute",
        "task:b",
        "search.exhaustive",
        "eval.batch",
    ]
    assert steps[1].n_siblings == 1
    assert steps[0].fraction == 1.0
    assert abs(steps[3].fraction - 0.65 / 0.9) < 1e-12


def test_critical_path_empty_forest():
    assert critical_path([]) == []


def test_critical_path_picks_longest_root():
    steps = critical_path([_span("small", 0.1), _span("big", 0.2)])
    assert steps[0].name == "big"
    assert steps[0].n_siblings == 1


def test_render_analysis_sections_and_counts():
    data = TraceData(spans=tuple(_sharded_forest()))
    out = render_analysis(data, top=5)
    assert out.startswith("trace analysis: 7 spans, 7 distinct span paths")
    assert "span paths by total wall" in out
    assert "hotspots by self wall" in out
    assert "critical path (longest concurrent-aware chain)" in out
    assert "plan.execute/task:b/search.exhaustive/eval.batch" in out


def test_render_analysis_empty_trace():
    out = render_analysis(TraceData())
    assert out == "trace analysis: 0 spans, 0 distinct span paths"
