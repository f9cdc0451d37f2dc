"""Metrics registry: snapshots, deltas, merges, digests, histograms."""

import pickle

from repro.obs import MetricsRegistry, MetricsSnapshot, summarize_histogram


class TestRegistry:
    def test_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.add("c")
        reg.add("c", 4)
        reg.observe("h", 1.0)
        reg.observe("h", 2.0)
        snap = reg.snapshot()
        assert snap.counter("c") == 5
        assert snap.counter("absent") == 0
        assert snap.histograms["h"] == (1.0, 2.0)

    def test_snapshot_is_immutable_view(self):
        reg = MetricsRegistry()
        reg.add("c")
        snap = reg.snapshot()
        reg.add("c")
        assert snap.counter("c") == 1
        assert reg.snapshot().counter("c") == 2

    def test_merge_snapshot_sums_counters_extends_histograms(self):
        a = MetricsRegistry()
        a.add("c", 2)
        a.observe("h", 1.0)
        b = MetricsRegistry()
        b.add("c", 3)
        b.observe("h", 2.0)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap.counter("c") == 5
        assert snap.histograms["h"] == (1.0, 2.0)


class TestSnapshot:
    def test_diff_subtracts_counters_and_drops_histogram_prefix(self):
        reg = MetricsRegistry()
        reg.add("c", 2)
        reg.observe("h", 1.0)
        before = reg.snapshot()
        reg.add("c", 3)
        reg.add("new")
        reg.observe("h", 2.0)
        delta = reg.snapshot().diff(before)
        assert delta.counters == {"c": 3, "new": 1}
        assert delta.histograms == {"h": (2.0,)}

    def test_diff_drops_zero_deltas(self):
        reg = MetricsRegistry()
        reg.add("c", 2)
        before = reg.snapshot()
        delta = reg.snapshot().diff(before)
        assert delta.counters == {}
        assert delta.is_empty()

    def test_merged_is_commutative_on_counters(self):
        a = MetricsSnapshot(counters={"x": 1, "y": 2})
        b = MetricsSnapshot(counters={"y": 3, "z": 4})
        ab, ba = a.merged(b), b.merged(a)
        assert ab.counters == ba.counters == {"x": 1, "y": 5, "z": 4}

    def test_digest_covers_counters_only(self):
        a = MetricsSnapshot(counters={"x": 1}, histograms={"wall_s": (1.23,)})
        b = MetricsSnapshot(counters={"x": 1}, histograms={"wall_s": (9.99,)})
        c = MetricsSnapshot(counters={"x": 2})
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_digest_is_order_independent(self):
        a = MetricsSnapshot(counters={"x": 1, "y": 2})
        b = MetricsSnapshot(counters={"y": 2, "x": 1})
        assert a.digest() == b.digest()

    def test_snapshot_pickles(self):
        snap = MetricsSnapshot(counters={"c": 1}, histograms={"h": (3.0,)})
        assert pickle.loads(pickle.dumps(snap)) == snap


class TestHistogramSummary:
    def test_empty(self):
        assert summarize_histogram([]) == {"count": 0, "sum": 0.0}

    def test_quantiles_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]  # 1..100
        s = summarize_histogram(values)
        assert s["count"] == 100
        assert s["min"] == 1.0
        assert s["max"] == 100.0
        assert s["p50"] == 50.0
        assert s["p95"] == 95.0
        assert s["p99"] == 99.0

    def test_single_value(self):
        s = summarize_histogram([7.0])
        assert s["p50"] == s["p95"] == s["p99"] == 7.0


class TestHistogramSeries:
    """A series is a plain list: every observation, in arrival order."""

    N = 4096

    @staticmethod
    def _filled(n):
        reg = MetricsRegistry()
        for i in range(n):
            reg.observe("lat", float(i))
        return reg

    def test_append_order(self):
        reg = MetricsRegistry()
        for v in (3.0, 1.0, 2.0):
            reg.observe("lat", v)
        assert reg.snapshot().histograms["lat"] == (3.0, 1.0, 2.0)

    def test_diff_is_the_appended_tail(self):
        reg = MetricsRegistry()
        reg.observe("lat", 1.0)
        before = reg.snapshot()
        reg.observe("lat", 2.0)
        assert reg.snapshot().diff(before).histograms["lat"] == (2.0,)

    def test_diff_is_the_appended_tail_at_any_length(self):
        for n in (self.N - 1, self.N, 5 * self.N):
            reg = self._filled(n)
            before = reg.snapshot()
            for i in range(64):
                reg.observe("lat", float(-i))
            delta = reg.snapshot().diff(before)
            assert delta.histograms["lat"] == tuple(float(-i) for i in range(64))

    def test_unchanged_series_diffs_empty(self):
        for n in (self.N - 1, self.N + 64):
            snap = self._filled(n).snapshot()
            assert "lat" not in snap.diff(snap).histograms

    def test_quantiles_are_exact(self):
        for n in (self.N, 5 * self.N):
            values = self._filled(n).snapshot().histograms["lat"]
            assert values == tuple(float(i) for i in range(n))
            summary = summarize_histogram(values)
            assert summary["count"] == n
            assert summary["min"] == 0.0
            assert summary["max"] == float(n - 1)
            assert summary["p50"] == float(n // 2 - 1)

    def test_merge_snapshot_appends_every_value(self):
        reg = MetricsRegistry()
        first = tuple(float(i) for i in range(10))
        second = tuple(float(-i) for i in range(2 * self.N))
        reg.merge_snapshot(MetricsSnapshot(histograms={"lat": first}))
        reg.merge_snapshot(MetricsSnapshot(histograms={"lat": second}))
        assert reg.snapshot().histograms["lat"] == first + second
