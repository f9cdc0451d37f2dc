"""Numeric payload execution and data-hazard tracking.

The real system runs real kernels, so a bad schedule would compute garbage.
Our simulator reproduces that check: vertices may carry *payload callbacks*
that operate on per-rank NumPy buffers, executed in simulated-time order, so
running a schedule also computes the program's actual result (e.g. the SpMV
``y = Ax``), which tests compare against a reference.

:class:`HazardTracker` additionally verifies producer-before-consumer
ordering on declared buffer names: a vertex ``writes`` buffers (marking
them ready at its completion time) and ``reads`` buffers (checked at its
start time).  A schedule that lets a consumer start before its producer
completed is reported as a hazard — the simulated analog of reading a
half-packed buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.errors import HazardError


@dataclass
class Hazard:
    """One observed read-before-ready violation."""

    rank: int
    op: str
    buffer: str
    read_at: float

    def __str__(self) -> str:
        return (
            f"rank {self.rank}: {self.op!r} read buffer {self.buffer!r} at "
            f"t={self.read_at:g} before it was marked ready"
        )


class HazardTracker:
    """Tracks buffer readiness per rank and records violations."""

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self._ready: Dict[Tuple[int, str], float] = {}
        self.hazards: List[Hazard] = []

    def mark_ready(self, rank: int, buffer: str, at: float) -> None:
        self._ready[(rank, buffer)] = at

    def check_read(self, rank: int, op: str, buffer: str, at: float) -> None:
        ready_at = self._ready.get((rank, buffer))
        if ready_at is None or ready_at > at:
            hazard = Hazard(rank=rank, op=op, buffer=buffer, read_at=at)
            self.hazards.append(hazard)
            if self.strict:
                raise HazardError(str(hazard))

    @property
    def clean(self) -> bool:
        return not self.hazards


class RankContext:
    """Per-rank namespace of named numeric buffers.

    Payload callbacks receive this object; they read and write
    ``ctx.buffers[name]`` (NumPy arrays or any Python values) and may stash
    scratch state in ``ctx.scratch``.
    """

    def __init__(self, rank: int, n_ranks: int) -> None:
        self.rank = rank
        self.n_ranks = n_ranks
        self.buffers: Dict[str, Any] = {}
        self.scratch: Dict[str, Any] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankContext(rank={self.rank}, buffers={sorted(self.buffers)})"


class PayloadContext:
    """All ranks' buffer namespaces plus the hazard tracker.

    Message payload copies (``Message.src_buf`` → ``Message.dst_buf``) go
    through :meth:`transfer`, which snapshots the source buffer (the wire
    has no reference semantics).
    """

    def __init__(self, n_ranks: int, strict_hazards: bool = False) -> None:
        self.ranks = [RankContext(r, n_ranks) for r in range(n_ranks)]
        self.hazards = HazardTracker(strict=strict_hazards)

    def __getitem__(self, rank: int) -> RankContext:
        return self.ranks[rank]

    def transfer(self, src: int, dst: int, src_buf: str, dst_buf: str) -> None:
        import numpy as np

        value = self.ranks[src].buffers.get(src_buf)
        if value is None:
            # Nothing staged; model an uninitialized read as zeros-of-unknown
            # shape — leave destination untouched but record via hazard path.
            return
        if isinstance(value, np.ndarray):
            self.ranks[dst].buffers[dst_buf] = value.copy()
        else:
            self.ranks[dst].buffers[dst_buf] = value
