"""ProgressMeter + progress_scope wiring + shipped worker counters."""

import io
import re

from repro import obs
from repro.obs import MetricsRegistry, ProgressMeter
from repro.obs.runtime import _STATE


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def _registry(**counters):
    registry = MetricsRegistry()
    for name, value in counters.items():
        registry.add(name, value)
    return registry


# -- ProgressMeter -----------------------------------------------------
def test_meter_line_has_pct_counts_and_eta():
    clock = FakeClock()
    stream = io.StringIO()
    meter = ProgressMeter(
        100, label="search", counters=("n",), stream=stream,
        interval=0.5, clock=clock,
    )
    registry = _registry(n=25)
    clock.t = 1.0
    meter.tick(registry)
    line = stream.getvalue().strip()
    assert line.startswith("search:")
    assert "25.0%" in line and "(25/100)" in line
    # 25 done in 1s -> 75 left at 25/s = 3s.
    assert "eta 3s" in line


def test_meter_monotone_against_racy_heartbeat_reads():
    # The shipped pool is the meter's live read of worker progress and
    # can drain (absorbed) before the registry has merged the same
    # counters: done must not walk backwards, nor count them twice.
    meter = ProgressMeter(
        10, counters=("n",), stream=io.StringIO(), interval=0.0,
        clock=FakeClock(),
    )
    registry = MetricsRegistry()
    snap = _registry(n=6).snapshot()
    meter.ship(snap, registry)
    assert meter.current_done(registry) == 6
    meter.absorbed(snap)
    assert meter.current_done(registry) == 6
    registry.add("n", 6)  # the registry merges the shipped snapshot
    assert meter.current_done(registry) == 6


def test_meter_finish_uses_registry_only():
    # A finished task's shipped counters count from the moment its
    # future completes until absorb merges the same snapshot into the
    # registry -- never both -- and finish() reads the registry alone.
    stream = io.StringIO()
    shipped = [_registry(n=3).snapshot(), _registry(n=5).snapshot()]
    with obs.progress_scope(
        8, label="s", counters=("n",), stream=stream, interval=0.0
    ) as scope:
        for snap in shipped:
            obs.progress_shipped(snap)
        for snap in shipped:
            obs.absorb(snapshot=snap)
            obs.add("other")  # tick between absorbs: no double count
    assert scope.done == 8
    lines = stream.getvalue().splitlines()
    counts = [int(re.search(r"\((\d+)/8\)", line).group(1)) for line in lines]
    assert counts == [3, 8, 8, 8, 8]
    assert "100.0%" in lines[-1] and "done" in lines[-1]


def test_meter_baseline_excludes_preexisting_counts():
    registry = _registry(n=40)
    meter = ProgressMeter(
        10, counters=("n",), stream=io.StringIO(), interval=0.0,
        baseline=registry.snapshot(), clock=FakeClock(),
    )
    registry.add("n", 3)
    assert meter.current_done(registry) == 3


def test_meter_throttles_and_caps_at_100():
    clock = FakeClock()
    stream = io.StringIO()
    meter = ProgressMeter(
        4, counters=("n",), stream=stream, interval=0.5, clock=clock
    )
    registry = MetricsRegistry()
    for _ in range(8):  # overshoot the total; same clock instant
        registry.add("n", 1)
        meter.tick(registry)
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 1  # throttle: one line per interval
    clock.t = 1.0
    meter.tick(registry)
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 2
    assert "100.0%" in lines[-1]  # frac capped even at 8/4


# -- progress_scope (ambient wiring) -----------------------------------
def test_progress_scope_installs_ticker_and_counts_adds():
    stream = io.StringIO()
    assert not obs.progress_enabled()
    with obs.progress_scope(
        5, label="sweep", counters=("n",), stream=stream, interval=0.0
    ) as scope:
        assert obs.progress_enabled()
        assert _STATE.ticker is scope.meter
        for _ in range(5):
            obs.add("n")
    assert scope.done == 5
    assert not obs.progress_enabled()
    assert "100.0%" in stream.getvalue()


def test_progress_scope_disabled_is_inert():
    with obs.progress_scope(5, enabled=False) as scope:
        assert not obs.progress_enabled()
        obs.add("n", 5)
    assert scope.done == 0


def test_worker_capture_overrides_parent_meter():
    stream = io.StringIO()
    with obs.progress_scope(4, counters=("n",), stream=stream, interval=0.0):
        # A same-process "worker" (in-process executor) must not tick
        # the parent's meter: its counters reach the parent on the
        # shipped snapshot only.
        with obs.worker_capture() as cap:
            assert _STATE.ticker is None
            obs.add("n", 2)
        assert stream.getvalue() == ""
        assert cap.snapshot.counter("n") == 2
        obs.absorb(snapshot=cap.snapshot)
    # finish() sees the absorbed counters in the parent registry.
    assert "(2/4)" in stream.getvalue().splitlines()[-1]


def test_worker_capture_without_heartbeat_silences_ticker():
    with obs.progress_scope(4, counters=("n",), stream=io.StringIO()):
        with obs.worker_capture():
            assert not obs.progress_enabled()
            obs.add("n")
        assert obs.progress_enabled()
