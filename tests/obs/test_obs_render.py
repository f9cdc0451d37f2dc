"""ASCII rendering of span trees and metrics."""

from repro.obs import (
    MetricsSnapshot,
    SpanRecord,
    TraceData,
    render_metrics,
    render_span_tree,
    render_trace,
)


def _forest():
    leaf = SpanRecord("leaf", 0.1, 0.5, 42, {"n": 4})
    return (SpanRecord("root", 0.0, 1.0, 42, {}, [leaf]),)


class TestSpanTree:
    def test_tree_structure_and_bars(self):
        lines = render_span_tree(_forest(), width=10)
        assert len(lines) == 2
        assert lines[0].startswith("root")
        assert "|##########|" in lines[0]  # full-width bar for the root
        assert lines[1].startswith("`- leaf")
        assert "|#####     |" in lines[1]  # half the root's duration
        assert "[n=4]" in lines[1]

    def test_zero_duration_root_renders(self):
        roots = (SpanRecord("instant", 0.0, 0.0, 1, {}),)
        (line,) = render_span_tree(roots, width=8)
        assert "instant" in line

    def test_empty_forest(self):
        assert render_span_tree(()) == ["(no spans)"]

    def test_sibling_prefixes(self):
        kids = [SpanRecord(f"c{i}", 0.0, 0.1, 1, {}) for i in range(3)]
        roots = (SpanRecord("r", 0.0, 1.0, 1, {}, kids),)
        lines = render_span_tree(roots)
        assert lines[1].startswith("|- c0")
        assert lines[2].startswith("|- c1")
        assert lines[3].startswith("`- c2")


class TestMetrics:
    def test_counters_and_histograms_tabulated(self):
        snap = MetricsSnapshot(
            counters={"cache.hits": 3},
            histograms={"advisor.recommend_s": (0.01, 0.02, 0.03)},
        )
        out = render_metrics(snap)
        assert "counters:" in out
        assert "cache.hits" in out
        assert "histograms:" in out
        assert "p95" in out

    def test_empty_snapshot(self):
        assert render_metrics(MetricsSnapshot()) == "(no metrics recorded)"


class TestTrace:
    def test_full_render(self):
        data = TraceData(
            meta={"command": "search"},
            spans=_forest(),
            metrics=MetricsSnapshot(counters={"c": 1}),
        )
        out = render_trace(data)
        assert out.startswith("trace v2  command=search  (2 spans)")
        assert "root" in out
        assert "counters:" in out

    def test_spanless_trace(self):
        out = render_trace(TraceData())
        assert "(no spans)" in out
