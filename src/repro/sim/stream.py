"""GPU streams and CUDA events (paper §II).

"A GPU stream is a queue of [operations] in which each operation must
complete before the next begins. ... A CUDA event represents a particular
point in a stream's execution" — the CPU can block on it
(``cudaEventSynchronize``) or another stream can (``cudaStreamWaitEvent``).

A :class:`Stream` drains a FIFO of :class:`StreamItem`, driven by queue
and event callbacks; :class:`CudaEvent` wraps an engine event plus
recorded state so waits placed before the record (legal in CUDA only if
the event object exists; here creation is implicit at first reference)
behave like CUDA: waiting on an already-fired event proceeds immediately.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event


class CudaEvent:
    """A CUDA event: fires when the recording stream reaches the record op."""

    __slots__ = ("name", "_evt")

    def __init__(self, env: Environment, name: str) -> None:
        self.name = name
        self._evt = Event(env, ("cuda_event:{}", name))

    @property
    def fired(self) -> bool:
        return self._evt.triggered

    def fire(self) -> None:
        if self.fired:
            raise SimulationError(f"CUDA event {self.name!r} recorded twice")
        self._evt.succeed()

    @property
    def wait_event(self) -> Event:
        """Engine event to yield on; already-fired events resume immediately."""
        return self._evt


@dataclass(slots=True)
class StreamItem:
    """One entry in a stream's FIFO queue."""

    kind: str  # "kernel" | "record" | "wait"
    name: str
    duration: float = 0.0
    event: Optional[CudaEvent] = None
    on_complete: Optional[Callable[[float], None]] = None


class Stream:
    """FIFO GPU stream, driven by queue and event callbacks.

    The CPU enqueues items; the stream executes them in order, each once
    the one before it has completed:

    * ``kernel`` — advance time by the kernel duration, then invoke the
      completion callback (used for tracing, payload execution, and
      dependency bookkeeping) with the kernel's start time;
    * ``record`` — fire the attached :class:`CudaEvent` at the current time;
    * ``wait``  — block the stream until the attached event has fired.

    An idle stream starts an enqueued item at once, inside :meth:`enqueue`;
    a busy one queues it.  When an item has to wait, the stream leaves a
    callback that completes the item and goes on down the queue: a
    kernel's end is a bare callback on the environment's queue
    (:meth:`~repro.sim.engine.Environment.call_at`), an unfired CUDA
    event gets a callback on its engine event.  A stream is therefore
    no simulation process: it needs no start event, and deadlock detection
    never sees it.
    """

    __slots__ = ("env", "_queue", "_busy", "_current", "_kernel_start")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._queue: Deque[StreamItem] = deque()
        #: True from the start of an item until the queue runs dry.
        self._busy = False
        #: The item in progress while the stream waits on its kernel or
        #: its event.
        self._current: Optional[StreamItem] = None
        self._kernel_start = 0.0

    # ------------------------------------------------------------------
    def enqueue(self, item: StreamItem) -> None:
        self._queue.append(item)
        if not self._busy:
            self._advance()

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Run queued items in order until one has to wait or none is left."""
        self._busy = True
        queue = self._queue
        while queue:
            if self._start(queue.popleft()):
                return
        self._busy = False

    def _start(self, item: StreamItem) -> bool:
        """Start ``item``; True when it waits on an engine event."""
        env = self.env
        kind = item.kind
        if kind == "kernel":
            if item.duration > 0:
                self._current = item
                self._kernel_start = env.now
                env.call_at(env.now + item.duration, self._kernel_done)
                return True
            if item.on_complete is not None:
                item.on_complete(env.now)
        elif kind == "record":
            assert item.event is not None
            item.event.fire()
            if item.on_complete is not None:
                item.on_complete(env.now)
        elif kind == "wait":
            assert item.event is not None
            if not item.event.fired:
                self._current = item
                item.event.wait_event.add_callback(self._event_fired)
                return True
            if item.on_complete is not None:
                item.on_complete(env.now)
        else:  # pragma: no cover - guarded by construction
            raise SimulationError(f"unknown stream item kind {kind!r}")
        return False

    def _kernel_done(self) -> None:
        item = self._current
        if item.on_complete is not None:
            item.on_complete(self._kernel_start)
        self._advance()

    def _event_fired(self, _evt: Event) -> None:
        item = self._current
        if item.on_complete is not None:
            item.on_complete(self.env.now)
        self._advance()


class StreamSet:
    """All streams of one rank, plus the rank's CUDA event namespace."""

    def __init__(self, env: Environment, rank: int, n_streams: int) -> None:
        self.env = env
        self.rank = rank
        self.streams: List[Stream] = [Stream(env) for _ in range(n_streams)]
        self._events: Dict[str, CudaEvent] = {}

    def stream(self, stream_id: int) -> Stream:
        # A bare list index would let -1 alias the last stream.
        if 0 <= stream_id < len(self.streams):
            return self.streams[stream_id]
        raise SimulationError(
            f"rank {self.rank}: stream {stream_id} out of range "
            f"(have {len(self.streams)})"
        )

    def cuda_event(self, name: str) -> CudaEvent:
        """Get or create the named CUDA event (per-rank namespace)."""
        evt = self._events.get(name)
        if evt is None:
            evt = CudaEvent(self.env, f"rank{self.rank}:{name}")
            self._events[name] = evt
        return evt

    def device_synchronize_event(self) -> Event:
        """Event firing when every stream has drained its current queue.

        Each busy stream gets a zero-length kernel behind its queued work,
        whose completion counts the stream off; an idle stream has nothing
        to drain, so with none busy the event has fired already.
        """
        done = Event(self.env, ("rank{}.device_sync", self.rank))
        busy = [s for s in self.streams if s._busy]
        if not busy:
            return done.succeed()
        left = len(busy)

        def drained(_now: float) -> None:
            nonlocal left
            left -= 1
            if left == 0:
                done.succeed()

        for stream in busy:
            stream.enqueue(StreamItem("kernel", "drain", 0.0, None, drained))
        return done
