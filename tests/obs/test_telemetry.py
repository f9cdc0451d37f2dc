"""TelemetrySampler: proc reading, throttling, absorb, capture gauges."""

import os

import pytest

from repro import obs
from repro.obs import ResourceSample, TelemetrySampler, sample_now
from repro.obs.telemetry import _read_proc_self, read_resources


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def _sample(ts, pid, path, rss=1, cpu=0.0):
    return ResourceSample(
        ts=ts,
        pid=pid,
        path=path,
        rss_bytes=rss,
        cpu_utime_s=cpu,
        cpu_stime_s=0.0,
        gc_collections=0,
    )


# -- raw readers -------------------------------------------------------
def test_read_resources_returns_positive_values():
    rss, utime, stime = read_resources()
    assert rss > 0
    assert utime >= 0.0 and stime >= 0.0


@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="needs Linux procfs"
)
def test_proc_self_reader_parses_stat_and_statm():
    values = _read_proc_self()
    assert values is not None
    rss, utime, stime = values
    # RSS is a whole number of pages and at least one page.
    assert rss >= os.sysconf("SC_PAGE_SIZE")
    assert rss % os.sysconf("SC_PAGE_SIZE") == 0
    assert utime >= 0.0 and stime >= 0.0


def test_sample_now_tags_path_and_pid():
    rec = sample_now("a/b", ts=1.5)
    assert rec.path == "a/b"
    assert rec.ts == 1.5
    assert rec.pid == os.getpid()
    assert rec.rss_bytes > 0
    assert rec.cpu_s == rec.cpu_utime_s + rec.cpu_stime_s


# -- throttling --------------------------------------------------------
def test_forced_sample_resets_throttle():
    clock = FakeClock()
    sampler = TelemetrySampler(interval=0.05, clock=clock)
    assert sampler.due()  # nothing sampled yet
    sampler.sample("boundary")
    assert not sampler.due()
    clock.t = 0.06
    assert sampler.due()


def test_sample_ts_relative_to_epoch():
    clock = FakeClock(100.0)
    sampler = TelemetrySampler(epoch=90.0, clock=clock)
    rec = sampler.sample("p")
    assert rec.ts == pytest.approx(10.0)


# -- absorb ------------------------------------------------------------
def test_absorb_rebases_ts_and_grafts_prefix():
    sampler = TelemetrySampler(epoch=0.0, clock=FakeClock())
    shipped = [_sample(1.0, 999, "stage:eval"), _sample(2.0, 999, "")]
    sampler.absorb(shipped, shift=5.0, prefix="plan.execute/task:x")
    a, b = sampler.samples
    assert a.ts == pytest.approx(6.0)
    assert a.path == "plan.execute/task:x/stage:eval"
    # Pathless worker samples land on the graft point itself.
    assert b.path == "plan.execute/task:x"
    assert b.ts == pytest.approx(7.0)


def test_absorb_without_prefix_keeps_paths():
    sampler = TelemetrySampler(epoch=0.0, clock=FakeClock())
    sampler.absorb([_sample(1.0, 7, "w")])
    assert sampler.samples[0].path == "w"


def test_summary_rolls_up_own_cpu_and_global_rss_peak():
    sampler = TelemetrySampler(epoch=0.0, clock=FakeClock())
    pid = os.getpid()
    sampler.samples = [
        _sample(0.0, pid, "a", rss=100, cpu=1.0),
        _sample(1.0, pid, "a", rss=200, cpu=1.5),
        _sample(0.5, 999, "w", rss=5000, cpu=9.0),  # worker peak wins
    ]
    summary = sampler.summary()
    assert summary["rss_max_bytes"] == 5000.0
    assert summary["cpu_s"] == pytest.approx(0.5)


# -- ambient wiring ----------------------------------------------------
def test_capture_telemetry_collects_samples_and_gauges():
    with obs.capture(trace=True, telemetry=True) as cap:
        assert obs.telemetry_active()
        with obs.stage("work"):
            pass
    assert not obs.telemetry_active()
    assert len(cap.resources) >= 2  # baseline + boundary samples
    assert any(s.path == "stage:work" for s in cap.resources)
    assert cap.metrics.gauges["telemetry.rss_max_bytes"] > 0
    assert cap.metrics.gauges["telemetry.cpu_s"] >= 0.0


def test_capture_without_telemetry_has_no_samples():
    with obs.capture() as cap:
        assert not obs.telemetry_active()
        with obs.stage("work"):
            pass
    assert cap.resources == ()
    assert "telemetry.rss_max_bytes" not in cap.metrics.gauges


def test_worker_capture_ships_samples_and_epoch_home():
    with obs.capture(trace=True, telemetry=True) as cap:
        with obs.span("plan.execute"):
            with obs.worker_capture(trace=True, telemetry=True) as wcap:
                with obs.task_scope("task:w[i]"):
                    pass
            assert wcap.resources
            assert wcap.epoch is not None
            obs.absorb(
                wcap.spans,
                wcap.snapshot,
                resources=wcap.resources,
                epoch=wcap.epoch,
            )
    # Worker samples were grafted under the open span path.
    grafted = [
        s for s in cap.resources if s.path.startswith("plan.execute/")
    ]
    assert any("task:w[i]" in s.path for s in grafted)


def test_telemetry_counters_stay_bit_identical():
    """Telemetry must only write gauges, never counters."""
    with obs.capture() as plain:
        obs.add("n", 3)
    obs.reset()
    with obs.capture(telemetry=True) as telem:
        obs.add("n", 3)
    assert plain.metrics.counters == telem.metrics.counters
