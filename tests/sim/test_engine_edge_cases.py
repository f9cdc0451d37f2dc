"""Additional edge-case tests for the simulation kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dag.program import Message
from repro.errors import DeadlockError, SimulationError
from repro.platform import perlmutter_like
from repro.sim.durations import wire_time
from repro.sim.engine import Environment
from repro.sim.network import Network
from repro.sim.stream import StreamSet


class TestFireAt:
    def test_run_until_stops_early(self):
        env = Environment()

        def proc():
            yield env.timeout(10.0)

        env.process(proc())
        assert env.run(until=4.0) == 4.0
        assert env.now == 4.0

    def test_run_until_keeps_the_first_later_event(self):
        """Stopping at ``until`` leaves the event due after it queued, so
        the next ``run`` resumes its waiter on time."""
        env = Environment()
        resumed = []

        def proc():
            yield env.timeout(10.0)
            resumed.append(env.now)

        env.process(proc())
        assert env.run(until=4.0) == 4.0
        assert resumed == []
        assert env.run() == 10.0
        assert resumed == [10.0]


class TestNestedProcessResume:
    def test_deep_chain_of_immediate_events(self):
        """A chain of processes resuming each other at the same instant
        must not lose wakeups (regression class of the stream bug)."""
        env = Environment()
        order = []

        def stage(i, trigger, next_trigger):
            yield trigger
            order.append(i)
            if next_trigger is not None:
                next_trigger.succeed()

        events = [env.event(f"e{i}") for i in range(10)]
        for i in range(10):
            nxt = events[i + 1] if i + 1 < 10 else None
            env.process(stage(i, events[i], nxt))
        kick = env.timeout(1.0)
        kick.add_callback(lambda _e: events[0].succeed())
        env.run()
        assert order == list(range(10))

    def test_process_yield_already_triggered_event(self):
        env = Environment()
        pre = env.event("pre")
        pre.succeed(42)
        got = []

        def proc():
            value = yield pre
            got.append((env.now, value))

        env.process(proc())
        env.run()
        assert got == [(0.0, 42)]


#: One process step: a delay, a timeout, a wait on shared event k, or
#: firing it.
STEP = st.one_of(
    st.tuples(
        st.sampled_from(["delay", "timeout"]), st.sampled_from([0.0, 0.25, 0.5, 1.0])
    ),
    st.tuples(st.sampled_from(["wait", "fire"]), st.integers(0, 2)),
)


def run_steps(programs, plain):
    """Run one process per step list.  A delay step yields ``d`` itself
    when ``plain``, else ``env.timeout(d)``; a timeout step always yields
    ``env.timeout(d)``, so plain delays share the queue with events.
    Returns every resume as ``(process, step, now)`` in order, and how the
    run ended."""
    env = Environment()
    shared = [env.event(f"e{k}") for k in range(3)]
    resumes = []

    def proc(i, steps):
        for n, (what, arg) in enumerate(steps):
            if what == "delay" and plain:
                yield arg
            elif what in ("delay", "timeout"):
                yield env.timeout(arg)
            elif what == "wait":
                yield shared[arg]
            elif not shared[arg].triggered:
                shared[arg].succeed()
            resumes.append((i, n, env.now))

    for i, steps in enumerate(programs):
        env.process(proc(i, steps), name=f"p{i}")
    try:
        end = env.run()
    except DeadlockError as error:
        end = str(error)
    return resumes, end


class TestPlainDelays:
    """A process may yield a ``float`` delay instead of ``env.timeout``."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(STEP, max_size=6), min_size=1, max_size=4))
    def test_same_order_and_times_as_timeouts(self, programs):
        assert run_steps(programs, plain=True) == run_steps(programs, plain=False)

    def test_negative_delay_rejected(self):
        env = Environment()

        def proc():
            yield -0.5

        env.process(proc())
        with pytest.raises(SimulationError) as info:
            env.run()
        assert str(info.value) == "negative timeout -0.5"


class TestDiagnosticText:
    """Labels are formatted only when an error or ``repr`` reads them;
    the text is pinned as the eagerly formatting engine wrote it."""

    def test_timeout_repr(self):
        env = Environment()
        assert repr(env.timeout(2.5)) == "Event('timeout+2.5', pending)"
        assert repr(env.timeout(1e-6)) == "Event('timeout+1e-06', pending)"
        assert repr(env.timeout(3.0, label="k")) == "Event('k', pending)"
        env.run()
        assert repr(env.timeout(0.0)) == "Event('timeout+0', pending)"

    def test_fired_twice(self):
        env = Environment()
        event = env.event("x")
        event.succeed()
        with pytest.raises(SimulationError) as info:
            event.succeed()
        assert str(info.value) == "event 'x' fired twice"
        timeout = env.timeout(1.5)
        env.run()
        assert repr(timeout) == "Event('timeout+1.5', fired)"
        with pytest.raises(SimulationError) as info:
            timeout.succeed()
        assert str(info.value) == "event 'timeout+1.5' fired twice"

    def test_cuda_event_text(self):
        env = Environment()
        event = StreamSet(env, rank=1, n_streams=2).cuda_event("ev")
        assert repr(event.wait_event) == "Event('cuda_event:rank1:ev', pending)"
        event.fire()
        with pytest.raises(SimulationError) as info:
            event.fire()
        assert str(info.value) == "CUDA event 'rank1:ev' recorded twice"

    def test_mpi_request_text(self):
        env = Environment()
        machine = perlmutter_like()
        sent = Message(src=0, dst=1, nbytes=8.0, tag=7)
        wires = {sent: wire_time(machine.net, machine.noise, sent, 0)}
        net = Network(env, machine.net, wires)
        send = net.post_send(sent)
        recv = net.post_recv(Message(src=2, dst=3, nbytes=8.0, tag=1))
        assert repr(send.done) == "Event('send 0->1 tag7', pending)"
        assert repr(recv.done) == "Event('recv 2->3 tag1', pending)"
        send.done.succeed()
        with pytest.raises(SimulationError) as info:
            send.done.succeed()
        assert str(info.value) == "event 'send 0->1 tag7' fired twice"

    def test_process_and_composite_text(self):
        env = Environment()
        process = env.process(iter([]), name="p")
        assert repr(process.done) == "Event('p.done', pending)"
        composite = env.all_of([env.event("a")], label="rank0.x")
        assert repr(composite) == "Event('rank0.x', pending)"
