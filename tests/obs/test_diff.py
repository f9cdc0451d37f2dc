"""diff_runs: exact counter identity between two runs."""

from repro.obs import (
    MetricsRegistry,
    SpanRecord,
    TraceData,
    diff_runs,
    render_diff,
)


def _trace(walls=None, counters=None):
    """TraceData with one root span per (name, wall) pair."""
    spans = tuple(
        SpanRecord(name=name, start=0.0, duration=wall, pid=1, attrs={})
        for name, wall in (walls or {}).items()
    )
    registry = MetricsRegistry()
    for name, value in (counters or {}).items():
        registry.add(name, value)
    return TraceData(spans=spans, metrics=registry.snapshot())


def test_identical_runs_are_ok():
    a = _trace({"search": 1.0}, {"evals": 16})
    # Wall time is not compared: a slower run with equal counters passes.
    diff = diff_runs(a, _trace({"search": 3.0}, {"evals": 16}))
    assert diff.ok
    assert diff.counters == []


def test_counter_drift_fails_at_zero_tolerance():
    diff = diff_runs(
        _trace(counters={"evals": 16}), _trace(counters={"evals": 17})
    )
    (delta,) = diff.counters
    assert delta.delta == 1
    assert not diff.ok
    assert "evals" in diff.regressions()[0]


def test_counter_appear_disappear_fails_at_zero_tolerance():
    diff = diff_runs(
        _trace(counters={"evals": 16}),
        _trace(counters={"evals": 16, "memo_hits": 3}),
    )
    (delta,) = diff.counters
    assert delta.name == "memo_hits"
    assert delta.baseline is None
    assert not diff.ok
    gone = diff_runs(
        _trace(counters={"evals": 16, "memo_hits": 3}),
        _trace(counters={"evals": 16}),
    )
    assert [c.current for c in gone.counters] == [None]
    assert not gone.ok


def test_render_diff_pass_and_fail_shapes():
    ok = render_diff(
        diff_runs(_trace({"s": 1.0}, {"n": 1}), _trace({"s": 1.0}, {"n": 1}))
    )
    assert "counters: identical" in ok
    assert ok.rstrip().endswith("RESULT: ok")

    bad = render_diff(
        diff_runs(
            _trace({"s": 1.0}, {"n": 1}), _trace({"s": 2.0}, {"n": 2})
        )
    )
    assert "counter deltas:" in bad
    assert "RESULT: 1 regression(s)" in bad
    assert "counter 'n': 1 -> 2" in bad
