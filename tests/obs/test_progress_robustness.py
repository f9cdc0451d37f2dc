"""Progress hardening: instant finishes and the zero-elapsed ETA guard."""

import io

from repro.obs import MetricsRegistry, ProgressMeter


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


# -- satellite: zero-elapsed ETA guard ---------------------------------
def test_instant_finish_renders_without_zero_division():
    # A frozen clock means elapsed == 0 on the very first render — the
    # historical ZeroDivisionError this guard exists for.
    clock = FakeClock()
    stream = io.StringIO()
    meter = ProgressMeter(
        10, counters=("n",), stream=stream, interval=0.0, clock=clock
    )
    meter.tick(_registry(n=5))  # mid-run, elapsed 0
    line = stream.getvalue().strip()
    assert "(5/10)" in line and "eta --" in line
    done = meter.finish(_registry(n=10))
    assert done == 10
    final = stream.getvalue().strip().splitlines()[-1]
    assert "100.0%" in final and "done" in final


def test_zero_done_zero_elapsed_renders_placeholder_eta():
    meter = ProgressMeter(
        10,
        counters=("n",),
        stream=io.StringIO(),
        interval=0.0,
        clock=FakeClock(),
    )
    assert "eta --" in meter._line(0, final=False)


def test_positive_elapsed_still_produces_real_eta():
    clock = FakeClock()
    stream = io.StringIO()
    meter = ProgressMeter(
        100, counters=("n",), stream=stream, interval=0.0, clock=clock
    )
    clock.t = 2.0
    meter.tick(_registry(n=50))
    assert "eta 2s" in stream.getvalue()
