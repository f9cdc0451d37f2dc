"""Unit tests for GPU streams and CUDA events."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Environment
from repro.sim.stream import CudaEvent, Stream, StreamItem, StreamSet


def run_all(env):
    env.run()


class TestStreamFifo:
    def test_kernels_execute_in_order(self):
        env = Environment()
        s = Stream(env)
        ends = []
        for i, dur in enumerate([1.0, 2.0]):
            s.enqueue(
                StreamItem(
                    kind="kernel",
                    name=f"k{i}",
                    duration=dur,
                    on_complete=lambda st, i=i: ends.append((i, env.now)),
                )
            )
        run_all(env)
        assert ends == [(0, 1.0), (1, 3.0)]

    def test_kernel_enqueued_mid_run(self):
        """Reentrancy regression: enqueue while the stream idles after a
        previous drain must not orphan the queue (the wakeup-clobber bug)."""
        env = Environment()
        s = Stream(env)
        ends = []

        def producer():
            s.enqueue(StreamItem(kind="kernel", name="a", duration=1.0,
                                 on_complete=lambda st: ends.append(env.now)))
            yield env.timeout(5.0)  # stream drains and goes idle
            s.enqueue(StreamItem(kind="kernel", name="b", duration=1.0,
                                 on_complete=lambda st: ends.append(env.now)))

        env.process(producer())
        run_all(env)
        assert ends == [1.0, 6.0]

    def test_record_fires_event_at_queue_position(self):
        env = Environment()
        s = Stream(env)
        evt = CudaEvent(env, "e")
        fired_at = []
        evt.wait_event.add_callback(lambda _evt: fired_at.append(env.now))
        s.enqueue(StreamItem(kind="kernel", name="k", duration=2.0))
        s.enqueue(StreamItem(kind="record", name="r", event=evt))
        run_all(env)
        assert evt.fired
        assert fired_at == [2.0]

    def test_wait_blocks_stream_until_event(self):
        env = Environment()
        a = Stream(env)
        b = Stream(env)
        evt = CudaEvent(env, "cross")
        ends = []
        a.enqueue(StreamItem(kind="kernel", name="ka", duration=3.0))
        a.enqueue(StreamItem(kind="record", name="ra", event=evt))
        b.enqueue(StreamItem(kind="wait", name="wb", event=evt))
        b.enqueue(
            StreamItem(
                kind="kernel",
                name="kb",
                duration=1.0,
                on_complete=lambda st: ends.append(env.now),
            )
        )
        run_all(env)
        assert ends == [4.0]  # waits for ka (3.0) then runs (1.0)

    def test_wait_on_already_fired_event_proceeds(self):
        env = Environment()
        s = Stream(env)
        evt = CudaEvent(env, "pre")
        done = []

        def fire_then_use():
            yield env.timeout(1.0)
            evt.fire()
            s.enqueue(StreamItem(kind="wait", name="w", event=evt))
            s.enqueue(
                StreamItem(
                    kind="kernel", name="k", duration=1.0,
                    on_complete=lambda st: done.append(env.now),
                )
            )

        env.process(fire_then_use())
        run_all(env)
        assert done == [2.0]


class TestCudaEvent:
    def test_double_record_rejected(self):
        env = Environment()
        evt = CudaEvent(env, "e")
        evt.fire()
        with pytest.raises(SimulationError, match="twice"):
            evt.fire()


class TestStreamSet:
    def test_event_namespace_per_rank(self):
        env = Environment()
        ss = StreamSet(env, rank=0, n_streams=2)
        assert ss.cuda_event("x") is ss.cuda_event("x")
        assert ss.cuda_event("x") is not ss.cuda_event("y")

    def test_stream_out_of_range(self):
        env = Environment()
        ss = StreamSet(env, rank=0, n_streams=2)
        with pytest.raises(SimulationError, match="out of range"):
            ss.stream(2)

    def test_device_synchronize_waits_all_streams(self):
        env = Environment()
        ss = StreamSet(env, rank=0, n_streams=2)
        ss.stream(0).enqueue(StreamItem(kind="kernel", name="k0", duration=1.0))
        ss.stream(1).enqueue(StreamItem(kind="kernel", name="k1", duration=4.0))
        done = []

        def cpu():
            yield ss.device_synchronize_event()
            done.append(env.now)

        env.process(cpu())
        run_all(env)
        assert done == [4.0]
