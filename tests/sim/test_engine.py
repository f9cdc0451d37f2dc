"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Channel, Environment


class TestEventBasics:
    def test_succeed_once(self):
        env = Environment()
        e = env.event("x")
        e.succeed(41)
        assert e.triggered
        assert e.value == 41
        with pytest.raises(SimulationError, match="twice"):
            e.succeed()

    def test_callback_after_trigger_fires_immediately(self):
        env = Environment()
        e = env.event()
        e.succeed(5)
        seen = []
        e.add_callback(lambda evt: seen.append(evt.value))
        assert seen == [5]


class TestTimeout:
    def test_advances_clock(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(1.5)
            log.append(env.now)
            yield env.timeout(0.5)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [1.5, 2.0]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_tie_break_is_fifo(self):
        env = Environment()
        order = []

        def mk(name):
            def proc():
                yield env.timeout(1.0)
                order.append(name)
            return proc

        for name in "abc":
            env.process(mk(name)())
        env.run()
        assert order == ["a", "b", "c"]


class TestComposites:
    def test_all_of_waits_for_all(self):
        env = Environment()
        done_at = []

        def proc():
            yield env.all_of([env.timeout(1.0), env.timeout(3.0)])
            done_at.append(env.now)

        env.process(proc())
        env.run()
        assert done_at == [3.0]

    def test_empty_all_of_fires_immediately(self):
        env = Environment()
        done = []

        def proc():
            yield env.all_of([])
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [0.0]

    def test_all_of_with_pre_fired_events(self):
        env = Environment()
        e = env.event()
        e.succeed()
        done = []

        def proc():
            yield env.all_of([e, env.timeout(2.0)])
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [2.0]


class TestProcesses:
    def test_return_value_on_done(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return "result"

        p = env.process(proc())
        env.run()
        assert p.done.triggered
        assert p.done.value == "result"

    def test_yielding_non_event_raises(self):
        env = Environment()

        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError, match="must yield Event"):
            env.run()

    def test_process_chaining_via_done(self):
        env = Environment()
        log = []

        def worker():
            yield env.timeout(2.0)
            return 7

        def waiter(w):
            value = yield w.done
            log.append((env.now, value))

        w = env.process(worker())
        env.process(waiter(w))
        env.run()
        assert log == [(2.0, 7)]


class TestDeadlock:
    def test_deadlock_detected(self):
        env = Environment()

        def proc():
            yield env.event("never")

        env.process(proc(), name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            env.run()

    def test_scheduling_in_past_rejected(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            env.call_at(0.5, lambda: None)

        env.process(proc())
        with pytest.raises(SimulationError, match="before now"):
            env.run()


class TestChannel:
    def test_serializes_occupations(self):
        env = Environment()
        ch = Channel(env)
        b1, e1 = ch.occupy(0.0, 2.0)
        b2, e2 = ch.occupy(1.0, 2.0)
        assert (b1, e1) == (0.0, 2.0)
        assert (b2, e2) == (2.0, 4.0)

    def test_idle_gap_respected(self):
        env = Environment()
        ch = Channel(env)
        ch.occupy(0.0, 1.0)
        b, e = ch.occupy(5.0, 1.0)
        assert (b, e) == (5.0, 6.0)
