"""A small discrete-event simulation kernel.

The :class:`Environment` advances simulated time by draining a priority
queue of ``(time, seq, callback)`` entries: at each entry's time it calls
``callback()``, and ties fire in push order (``seq``).  Two kinds of entry
share the queue:

* a scheduled :class:`Event` (a :class:`Timeout`, an empty :class:`AllOf`)
  pushes its bound ``_fire``, which fires the event and so resumes
  whatever waits on it;
* everything else pushes a bare callback through
  :meth:`Environment.call_at`: a process's start and its resume after a
  delay, a GPU stream's kernel completions, and the network's transfer
  completions.

Processes are Python generators that ``yield`` either a waitable
(:class:`Event`, :class:`Timeout`, :class:`AllOf`) or a plain ``float``
delay in seconds; a delay resumes the process through the queue without
allocating an event, and fires at the same point in the queue as
``env.timeout(delay)`` would.  The design follows the SimPy
process model but is self-contained, deterministic, and adds deadlock
detection: if the queue drains while processes are still blocked,
:class:`~repro.errors.DeadlockError` is raised with a description of who
is waiting on what.

Labels exist for diagnostics only, so the engine keeps them unformatted:
besides a string, a label may be a ``(format, *args)`` tuple, which
becomes ``format.format(*args)`` only when an error or ``repr`` reads it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple, Union

from repro.errors import DeadlockError, SimulationError

#: A label: text, or a ``(format, *args)`` tuple formatted when read.
Label = Union[str, Tuple[Any, ...]]


class Event:
    """A one-shot event that processes can wait on.

    Events carry an optional value, delivered as the result of the ``yield``
    in the waiting process.
    """

    __slots__ = ("env", "triggered", "value", "_callbacks", "_label")

    def __init__(self, env: "Environment", label: Label = "") -> None:
        self.env = env
        self.triggered = False
        self.value: Any = None
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._label = label

    @property
    def label(self) -> str:
        label = self._label
        if type(label) is tuple:
            return label[0].format(*label[1:])
        return label

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event now, resuming all waiters. Fails if already fired."""
        if self.triggered:
            raise SimulationError(f"event {self.label!r} fired twice")
        self.triggered = True
        self.value = value
        # A fired event calls later callbacks at once, so it keeps none.
        callbacks, self._callbacks = self._callbacks, None
        for cb in callbacks:
            cb(self)
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.triggered:
            cb(self)
        else:
            self._callbacks.append(cb)

    def _fire(self) -> None:
        """Queue callback of a scheduled event: fire it, unless something
        fired it before its time came."""
        if not self.triggered:
            self.succeed(self.value)

    def __repr__(self) -> str:
        state = "fired" if self.triggered else "pending"
        return f"Event({self.label!r}, {state})"


class Timeout(Event):
    """Event that fires ``delay`` seconds after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, label: Label = "") -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        # Event.__init__ and Environment.call_at, inlined: never due
        # before now.
        self.env = env
        self.triggered = False
        self.value = None
        self._callbacks = []
        self._label = label or ("timeout+{:g}", delay)
        env._seq += 1
        heappush(env._queue, (env.now + delay, env._seq, self._fire))


class AllOf(Event):
    """Fires when all constituent events have fired."""

    __slots__ = ("_pending",)

    def __init__(
        self, env: "Environment", events: Iterable[Event], label: Label = "all"
    ) -> None:
        super().__init__(env, label)
        events = list(events)
        self._pending = len(events)
        if not events:
            # Fire immediately via the queue to preserve causal ordering.
            env.call_at(env.now, self._fire)
            return
        on_fire = self._on_fire
        for e in events:
            e.add_callback(on_fire)

    def _on_fire(self, _evt: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed()


#: What a process yields: a waitable, or a delay in seconds.
Yieldable = Union[Event, float]


class Process:
    """A running simulation process wrapping a generator.

    The generator yields waitables or ``float`` delays; the process
    resumes with the waitable's value when it fires, or with ``None`` once
    the delay has elapsed.  ``Process.done`` is itself an :class:`Event`
    that fires with the generator's return value.
    """

    __slots__ = ("env", "name", "_gen", "done", "_waiting_on")

    def __init__(
        self,
        env: "Environment",
        gen: Generator[Yieldable, Any, Any],
        name: str = "process",
    ) -> None:
        self.env = env
        self.name = name
        self._gen = gen
        self.done = Event(env, ("{}.done", name))
        self._waiting_on: Optional[Yieldable] = None
        env._live_processes.append(self)
        # Start on the next queue drain at current time (causal ordering).
        env.call_at(env.now, self._resume)

    @property
    def alive(self) -> bool:
        return not self.done.triggered

    @property
    def waiting_on(self) -> Optional[Yieldable]:
        """The event or the delay the process is waiting on."""
        return self._waiting_on

    def _resume(self, fired: Optional[Event] = None) -> None:
        """Send ``fired``'s value into the generator (``None`` when called
        from the queue: at the start, or after a delay) and wait on
        whatever it yields next."""
        self._waiting_on = None
        try:
            target = self._gen.send(None if fired is None else fired.value)
        except StopIteration as stop:
            self.env._live_processes.remove(self)
            self.done.succeed(stop.value)
            return
        if isinstance(target, float):
            if target < 0:
                raise SimulationError(f"negative timeout {target}")
            self._waiting_on = target
            # Environment.call_at, inlined: the hottest push in the engine.
            env = self.env
            env._seq += 1
            heappush(env._queue, (env.now + target, env._seq, self._resume))
        elif isinstance(target, Event):
            self._waiting_on = target
            target.add_callback(self._resume)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                f"yield Event instances"
            )


class Environment:
    """Simulation environment: clock + event queue + process registry."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._live_processes: List[Process] = []

    # ------------------------------------------------------------------
    def call_at(self, at: float, callback: Callable[[], None]) -> None:
        """Call ``callback()`` when the clock reaches ``at``; entries due
        at the same time are called in the order they were pushed."""
        if at < self.now:
            raise SimulationError(
                f"cannot schedule event at {at} before now={self.now}"
            )
        self._seq += 1
        heappush(self._queue, (at, self._seq, callback))

    # public factory helpers -------------------------------------------
    def event(self, label: Label = "") -> Event:
        return Event(self, label)

    def timeout(self, delay: float, label: Label = "") -> Timeout:
        return Timeout(self, delay, label)

    def all_of(self, events: Iterable[Event], label: Label = "all") -> AllOf:
        return AllOf(self, events, label)

    def process(
        self, gen: Generator[Yieldable, Any, Any], name: str = "process"
    ) -> Process:
        """Start a process on the next queue drain at the current time."""
        return Process(self, gen, name)

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Drain the queue; returns the final simulation time.

        With ``until``, stop before the first event due after it (that
        event stays queued, so a later ``run`` fires it) and return
        ``until``.  Raises :class:`DeadlockError` if the queue empties
        while processes are still alive (e.g. waiting on an event nobody
        will fire).
        """
        queue = self._queue
        pop = heappop
        while queue:
            if until is not None and queue[0][0] > until:
                self.now = until
                return self.now
            at, _seq, callback = pop(queue)
            self.now = at
            callback()
        if self._live_processes:
            waiters = ", ".join(
                f"{p.name} waiting on {p.waiting_on!r}"
                for p in self._live_processes
            )
            raise DeadlockError(
                f"simulation deadlock at t={self.now:g}: {waiters}"
            )
        return self.now


class Channel:
    """A capacity-1 serializing resource (e.g. one direction of a NIC).

    ``occupy(start, duration)`` reserves the channel for ``duration`` from
    ``start`` or, if it is still occupied then, from the end of the
    previous occupation, and returns the ``(begin, end)`` interval;
    occupations are granted in request order.
    """

    __slots__ = ("env", "name", "_free_at")

    def __init__(self, env: Environment, name: str = "channel") -> None:
        self.env = env
        self.name = name
        self._free_at = 0.0

    def occupy(self, start: float, duration: float) -> Tuple[float, float]:
        """Reserve the channel for ``duration`` starting no earlier than
        ``start``; returns the actual (begin, end) interval."""
        begin = max(start, self._free_at)
        end = begin + duration
        self._free_at = end
        return begin, end

    @property
    def free_at(self) -> float:
        return self._free_at
