"""Simulated MPI network: message matching and α-β transfers.

Matching follows MPI point-to-point semantics: a send and a receive match
when (source, destination, tag) agree, in posting order within each triple
(MPI's non-overtaking rule).  Transfers cost ``α + nbytes·β``; with
``serialize_nic`` each rank's outgoing and incoming transfers are
serialized, so a burst of messages queues up — this is what makes *when*
sends are posted matter, which the design rules are ultimately about.

Two protocols (paper's platform uses Cray-MPICH, whose large messages are
rendezvous):

* **rendezvous** — the wire transfer starts once both sides have posted;
  both requests complete when it ends.
* **eager** — the transfer starts when the send is posted; the send request
  completes at injection end, and the receive completes at
  ``max(arrival, recv posted)``.

A completion is a bare callback on the environment's queue
(:meth:`~repro.sim.engine.Environment.call_at`), pushed when its time is
known: the request's :meth:`MpiRequest.complete`, or, when the network
reports transfers to a hook, :meth:`Network._deliver` for a receive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.dag.program import Message
from repro.errors import MpiError
from repro.platform.machine import NetworkModel, Protocol
from repro.sim.engine import Channel, Environment, Event


@dataclass(slots=True)
class MpiRequest:
    """Handle for one posted non-blocking operation."""

    kind: str  # "send" | "recv"
    message: Message
    posted_at: float
    done: Event
    completed_at: Optional[float] = None
    #: (begin, end) of the wire transfer, set for eager sends at injection.
    transfer_interval: Optional[Tuple[float, float]] = None

    @property
    def is_complete(self) -> bool:
        return self.done.triggered

    def complete(self) -> None:
        """Queue callback: the request completes now."""
        self.completed_at = self.done.env.now
        self.done.succeed()


#: ``Protocol.EAGER`` as a module global: enum member lookups on a class
#: are slow, and this one is read twice per message.
_EAGER = Protocol.EAGER

#: Callback invoked when a transfer completes: (message, begin, end).
TransferHook = Callable[[Message, float, float], None]


class Network:
    """Message-matching and transfer engine shared by all ranks.

    ``wire_times`` holds every message's wire time (a sample's
    :attr:`~repro.sim.durations.SampleDurations.wire`).
    """

    def __init__(
        self,
        env: Environment,
        model: NetworkModel,
        wire_times: Mapping[Message, float],
        on_transfer: Optional[TransferHook] = None,
    ) -> None:
        self.env = env
        self.model = model
        self.on_transfer = on_transfer
        self._wire_times = wire_times
        self._pending_sends: Dict[Tuple[int, int, int], Deque[MpiRequest]] = {}
        self._pending_recvs: Dict[Tuple[int, int, int], Deque[MpiRequest]] = {}
        self._send_ch: Dict[int, Channel] = {}
        self._recv_ch: Dict[int, Channel] = {}
        self.n_transfers = 0

    # ------------------------------------------------------------------
    def _channel(self, table: Dict[int, Channel], rank: int, side: str) -> Channel:
        ch = table.get(rank)
        if ch is None:
            ch = Channel(self.env, name=f"rank{rank}.{side}")
            table[rank] = ch
        return ch

    def post_send(self, msg: Message) -> MpiRequest:
        env = self.env
        label = ("send {}->{} tag{}", msg.src, msg.dst, msg.tag)
        req = MpiRequest("send", msg, env.now, Event(env, label))
        if self._protocol_for(msg) is _EAGER:
            # Buffered injection: the wire transfer happens now and the send
            # completes at injection end, whether or not a receive exists.
            self._inject_eager(req)
        key = (msg.src, msg.dst, msg.tag)
        recvs = self._pending_recvs.get(key)
        if recvs:
            self._complete_pair(req, recvs.popleft())
        else:
            self._pending_sends.setdefault(key, deque()).append(req)
        return req

    def post_recv(self, msg: Message) -> MpiRequest:
        env = self.env
        label = ("recv {}->{} tag{}", msg.src, msg.dst, msg.tag)
        req = MpiRequest("recv", msg, env.now, Event(env, label))
        key = (msg.src, msg.dst, msg.tag)
        sends = self._pending_sends.get(key)
        if sends:
            self._complete_pair(sends.popleft(), req)
        else:
            self._pending_recvs.setdefault(key, deque()).append(req)
        return req

    # ------------------------------------------------------------------
    def _protocol_for(self, msg: Message) -> Protocol:
        if self.model.is_eager(msg.nbytes):
            return _EAGER
        return self.model.protocol

    def _occupy_channels(self, msg: Message, ready: float, wire: float):
        """Reserve NIC channels; returns the (begin, end) wire interval."""
        if self.model.serialize_nic:
            sch = self._channel(self._send_ch, msg.src, "send")
            rch = self._channel(self._recv_ch, msg.dst, "recv")
            begin = max(ready, sch.free_at, rch.free_at, 0.0)
            sch.occupy(begin, wire)
            rch.occupy(begin, wire)
        else:
            begin = ready
        return begin, begin + wire

    def _inject_eager(self, send: MpiRequest) -> None:
        """Eager protocol: transfer at send-post time; send completes at
        injection end independent of any matching receive."""
        msg = send.message
        begin, end = self._occupy_channels(msg, send.posted_at, self._wire_times[msg])
        send.transfer_interval = (begin, end)
        self.env.call_at(max(end, self.env.now), send.complete)

    def _complete_pair(self, send: MpiRequest, recv: MpiRequest) -> None:
        """A send/recv pair has matched; schedule the remaining completions."""
        msg = send.message
        self.n_transfers += 1
        if self._protocol_for(msg) is _EAGER:
            begin, end = send.transfer_interval
            recv_done_at = max(end, recv.posted_at, self.env.now)
        else:
            # Rendezvous: the wire transfer starts once both sides posted
            # (i.e. now); both requests complete when it ends.
            ready = max(send.posted_at, recv.posted_at, self.env.now)
            begin, end = self._occupy_channels(msg, ready, self._wire_times[msg])
            recv_done_at = max(end, self.env.now)
            self.env.call_at(recv_done_at, send.complete)
        if self.on_transfer is None:
            self.env.call_at(recv_done_at, recv.complete)
        else:
            self.env.call_at(recv_done_at, partial(self._deliver, recv, begin))

    def _deliver(self, recv: MpiRequest, begin: float) -> None:
        """Queue callback of a receive when transfers are reported: report
        the transfer that began at ``begin``, then complete the receive."""
        self.on_transfer(recv.message, begin, self.env.now)
        recv.complete()

    # ------------------------------------------------------------------
    def unmatched(self) -> List[MpiRequest]:
        """All posted-but-unmatched requests (diagnostic for deadlocks)."""
        out: List[MpiRequest] = []
        for dq in self._pending_sends.values():
            out.extend(dq)
        for dq in self._pending_recvs.values():
            out.extend(dq)
        return out

    def assert_drained(self) -> None:
        """Raise :class:`MpiError` if any request was never matched."""
        left = self.unmatched()
        if left:
            desc = ", ".join(
                f"{r.kind} {r.message.src}->{r.message.dst} tag{r.message.tag}"
                for r in left
            )
            raise MpiError(f"unmatched MPI requests at end of run: {desc}")
