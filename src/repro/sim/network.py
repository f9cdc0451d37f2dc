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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.dag.program import Message
from repro.errors import MpiError
from repro.platform.machine import NetworkModel, Protocol
from repro.platform.noise import NoiseModel
from repro.sim.durations import wire_time
from repro.sim.engine import Channel, Environment, Event


@dataclass
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


#: Callback invoked when a transfer completes: (message, begin, end).
TransferHook = Callable[[Message, float, float], None]


class Network:
    """Message-matching and transfer engine shared by all ranks.

    ``wire_times`` holds precomputed wire times (a sample's
    :attr:`~repro.sim.durations.SampleDurations.wire`); a message it
    lacks is priced on the spot by the same function.
    """

    def __init__(
        self,
        env: Environment,
        model: NetworkModel,
        noise: NoiseModel,
        sample: int = 0,
        on_transfer: Optional[TransferHook] = None,
        wire_times: Optional[Mapping[Message, float]] = None,
    ) -> None:
        self.env = env
        self.model = model
        self.noise = noise
        self.sample = sample
        self.on_transfer = on_transfer
        self._wire_times = wire_times if wire_times is not None else {}
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
        req = MpiRequest(
            kind="send",
            message=msg,
            posted_at=self.env.now,
            done=self.env.event(f"send {msg.src}->{msg.dst} tag{msg.tag}"),
        )
        if self._protocol_for(msg) is Protocol.EAGER:
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
        req = MpiRequest(
            kind="recv",
            message=msg,
            posted_at=self.env.now,
            done=self.env.event(f"recv {msg.src}->{msg.dst} tag{msg.tag}"),
        )
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
            return Protocol.EAGER
        return self.model.protocol

    def _wire_time(self, msg: Message) -> float:
        wire = self._wire_times.get(msg)
        if wire is None:
            wire = wire_time(self.model, self.noise, msg, self.sample)
        return wire

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
        begin, end = self._occupy_channels(msg, send.posted_at, self._wire_time(msg))
        send.transfer_interval = (begin, end)

        def complete_send(_evt: Event, req=send, at=end) -> None:
            req.completed_at = at
            req.done.succeed()

        self.env.fire_at(
            max(end, self.env.now), f"eager_injected:{msg.src}->{msg.dst}"
        ).add_callback(complete_send)

    def _complete_pair(self, send: MpiRequest, recv: MpiRequest) -> None:
        """A send/recv pair has matched; schedule the remaining completions."""
        msg = send.message
        self.n_transfers += 1
        if self._protocol_for(msg) is Protocol.EAGER:
            begin, end = send.transfer_interval
            recv_done_at = max(end, recv.posted_at, self.env.now)
        else:
            # Rendezvous: the wire transfer starts once both sides posted
            # (i.e. now); both requests complete when it ends.
            ready = max(send.posted_at, recv.posted_at, self.env.now)
            begin, end = self._occupy_channels(msg, ready, self._wire_time(msg))
            send_done_at = max(end, self.env.now)
            recv_done_at = send_done_at

            def complete_send(_evt: Event, req=send, at=send_done_at) -> None:
                req.completed_at = at
                req.done.succeed()

            self.env.fire_at(
                send_done_at, f"xfer_send_done:{msg.src}->{msg.dst}"
            ).add_callback(complete_send)

        def complete_recv(_evt: Event, req=recv, at=recv_done_at, b=begin) -> None:
            req.completed_at = at
            if self.on_transfer is not None:
                self.on_transfer(req.message, b, at)
            req.done.succeed()

        self.env.fire_at(
            recv_done_at, f"xfer_recv_done:{msg.src}->{msg.dst}"
        ).add_callback(complete_recv)

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
