"""How a run executes: the settings that never change what it measures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ExecConfig:
    """The three execution settings of a run, as one value.

    By the determinism contract (see :mod:`repro.exec`) none of them
    changes a measured result, so every layer between the CLI and the
    code that acts on a setting passes the value along unread.  Frozen,
    hence hashable: memoized builders may key on it.
    """

    #: Persistent measurement cache (SQLite path); None runs without one.
    cache_path: Optional[str] = None
    #: Processes running a plan's tasks (whole workloads or enumeration
    #: ranges); <= 1 runs them in-process.
    shard_workers: int = 0
    #: Schedules per enumeration/evaluation block of an exhaustive sweep;
    #: None keeps the sweep's default.
    block_size: Optional[int] = None
