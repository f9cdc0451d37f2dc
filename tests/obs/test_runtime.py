"""The ambient obs API: no-op spans, captures, worker merging."""

import pytest

from repro import obs
from repro.obs import SpanRecord, runtime


class TestDisabledTracing:
    def test_span_is_shared_noop_singleton(self):
        # Zero-cost-when-disabled: no allocation, no record, same object
        # every call.
        h1 = obs.span("anything", key="value")
        h2 = obs.span("other")
        assert h1 is h2
        with h1 as h:
            h.set(more="attrs")  # swallowed
        assert not obs.tracing_active()

    def test_metrics_always_on(self):
        before = obs.metrics_snapshot()
        obs.add("events", 3)
        obs.observe("lat", 0.5)
        delta = obs.metrics_snapshot().diff(before)
        assert delta.counter("events") == 3
        assert delta.histograms["lat"] == (0.5,)


class TestCapture:
    def test_capture_without_trace_collects_metrics_only(self):
        with obs.capture() as cap:
            obs.add("c")
            with obs.span("ignored"):
                pass
        assert cap.spans == ()
        assert cap.n_spans == 0
        assert cap.metrics.counter("c") == 1

    def test_capture_with_trace_collects_span_forest(self):
        with obs.capture(trace=True) as cap:
            assert obs.tracing_active()
            with obs.span("outer", kind="test"):
                with obs.span("inner"):
                    pass
            with obs.span("second"):
                pass
        assert not obs.tracing_active()
        assert [r.name for r in cap.spans] == ["outer", "second"]
        assert [c.name for c in cap.spans[0].children] == ["inner"]
        assert cap.spans[0].attrs == {"kind": "test"}
        assert cap.n_spans == 3

    def test_span_handle_set_updates_attrs(self):
        with obs.capture(trace=True) as cap:
            with obs.span("s", a=1) as h:
                h.set(b=2)
        assert cap.spans[0].attrs == {"a": 1, "b": 2}

    def test_capture_delta_excludes_outside_activity(self):
        obs.add("c", 10)
        with obs.capture() as cap:
            obs.add("c", 2)
        assert cap.metrics.counter("c") == 2

    def test_nested_capture_restores_outer_tracer(self):
        with obs.capture(trace=True) as outer:
            with obs.span("before"):
                pass
            with obs.capture(trace=True) as inner:
                with obs.span("inside"):
                    pass
            assert obs.tracing_active()
            with obs.span("after"):
                pass
        assert [r.name for r in inner.spans] == ["inside"]
        assert [r.name for r in outer.spans] == ["before", "after"]


class TestWorkerCaptureAndAbsorb:
    def test_worker_capture_isolates_metrics(self):
        obs.add("parent", 1)
        with obs.worker_capture() as cap:
            obs.add("task", 2)
        assert cap.snapshot.counter("task") == 2
        assert cap.snapshot.counter("parent") == 0
        # Parent registry untouched by the task's counts until absorbed.
        assert obs.metrics_snapshot().counter("task") == 0
        obs.absorb(cap.spans, cap.snapshot)
        assert obs.metrics_snapshot().counter("task") == 2
        assert obs.metrics_snapshot().counter("parent") == 1

    def test_worker_capture_traces_when_asked(self):
        with obs.worker_capture(trace=True) as cap:
            with obs.span("task:w"):
                pass
        assert [r.name for r in cap.spans] == ["task:w"]

    def test_absorb_grafts_spans_under_current_span(self):
        with obs.worker_capture(trace=True) as worker:
            with obs.span("task:w"):
                pass
        with obs.capture(trace=True) as cap:
            with obs.span("plan.execute"):
                obs.absorb(worker.spans, worker.snapshot)
        (root,) = cap.spans
        assert root.name == "plan.execute"
        assert [c.name for c in root.children] == ["task:w"]

    def test_absorb_without_tracer_keeps_metrics(self):
        with obs.worker_capture(trace=True) as worker:
            with obs.span("task:w"):
                pass
            obs.add("c")
        obs.absorb(worker.spans, worker.snapshot)  # no tracer: spans dropped
        assert obs.metrics_snapshot().counter("c") == 1

    def test_absorb_rebases_span_starts_onto_parent_clock(self):
        with obs.worker_capture() as untraced:
            pass
        assert untraced.epoch is None  # nothing to rebase
        with obs.capture(trace=True) as cap:
            with obs.span("plan.execute"):
                parent_epoch = runtime._STATE.tracer.epoch
                shipped = SpanRecord(
                    name="task:w", start=0.25, duration=0.1, pid=2
                )
                # The worker's clock origin lies 5 s after the parent's.
                obs.absorb([shipped], epoch=parent_epoch + 5.0)
        (root,) = cap.spans
        (task,) = root.children
        assert task.start == pytest.approx(5.25)
