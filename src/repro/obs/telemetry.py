"""Per-process resource telemetry: CPU, RSS, GC.

A :class:`TelemetrySampler` periodically reads this process's resource
state — cumulative CPU user/system time and resident set size from
``/proc/self`` (with a ``resource.getrusage`` fallback off Linux) and GC
collection counts — and records it as a :class:`ResourceSample` tagged
with the span path that was open at sample time.  Samples ride the
exact channels spans already use:

* the ambient hooks in :mod:`repro.obs.runtime` sample (throttled) on
  every counter bump and (forced) at task/stage boundaries, so every
  ``task:*`` span brackets at least two samples and per-path CPU deltas
  are well-defined;
* ``worker_capture`` ships a worker task's samples home on the
  ``TaskResult`` for :func:`repro.obs.absorb`, which rebases their
  timestamps onto the parent clock and grafts their paths under the
  open span — the same merge discipline span subtrees get.

Reading ``/proc`` costs a few microseconds and sampling is throttled
(default 50ms), so telemetry-on runs stay within the <5% overhead
budget ``benchmarks/bench_obs_telemetry.py`` pins.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ResourceSample",
    "TelemetrySampler",
    "read_resources",
    "sample_now",
]

#: Default sampling throttle (seconds between ambient samples).
SAMPLE_INTERVAL_S = 0.05


@dataclass(frozen=True)
class ResourceSample:
    """One point-in-time resource reading of one process.

    ``cpu_utime_s``/``cpu_stime_s`` are *cumulative* since process start
    (the kernel's accounting), so per-span CPU is the delta between a
    path's first and last sample.  ``ts`` is seconds since the owning
    sampler's epoch; absorbed worker samples are rebased onto the parent
    epoch, so timestamps in one trace are comparable across pids.
    """

    ts: float
    pid: int
    #: ``/``-joined open-span path at sample time ("" outside any span).
    path: str
    rss_bytes: int
    cpu_utime_s: float
    cpu_stime_s: float
    gc_collections: int

    @property
    def cpu_s(self) -> float:
        return self.cpu_utime_s + self.cpu_stime_s


def _read_proc_self() -> Optional[Tuple[int, float, float]]:
    """(rss_bytes, utime_s, stime_s) from /proc/self, or None off Linux."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            stat = fh.read()
        with open("/proc/self/statm", "rb") as fh:
            statm = fh.read()
    except OSError:
        return None
    try:
        # comm may contain spaces/parens; everything after the *last*
        # ") " is the fixed field tail starting at field 3 (state).
        fields = stat.rsplit(b") ", 1)[1].split()
        tick = float(os.sysconf("SC_CLK_TCK"))
        utime = int(fields[11]) / tick  # field 14 (utime), 1-indexed
        stime = int(fields[12]) / tick  # field 15 (stime)
        rss = int(statm.split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (IndexError, ValueError, OSError):
        return None
    return rss, utime, stime


def _read_rusage() -> Tuple[int, float, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is KiB on Linux, bytes on macOS; either way it is a
    # lifetime peak, not current residency — acceptable as a fallback.
    scale = 1 if sys.platform == "darwin" else 1024
    return int(ru.ru_maxrss) * scale, ru.ru_utime, ru.ru_stime


def read_resources() -> Tuple[int, float, float]:
    """Current (rss_bytes, cpu_utime_s, cpu_stime_s) of this process."""
    values = _read_proc_self()
    if values is None:
        values = _read_rusage()
    return values


def _gc_collections() -> int:
    return sum(int(s.get("collections", 0)) for s in gc.get_stats())


def sample_now(path: str = "", ts: float = 0.0) -> ResourceSample:
    """One immediate :class:`ResourceSample` of the calling process."""
    rss, utime, stime = read_resources()
    return ResourceSample(
        ts=ts,
        pid=os.getpid(),
        path=path,
        rss_bytes=rss,
        cpu_utime_s=utime,
        cpu_stime_s=stime,
        gc_collections=_gc_collections(),
    )


class TelemetrySampler:
    """Collects throttled :class:`ResourceSample` series for one process.

    The sampler shares its epoch with the process's tracer (when both
    are active) so sample timestamps land on the same axis as span
    starts.  ``due`` is the hot-path check — one clock read — and
    ``sample`` takes a reading, whether due or forced at a span boundary.
    """

    __slots__ = ("interval", "epoch", "samples", "_clock", "_last")

    def __init__(
        self,
        *,
        interval: float = SAMPLE_INTERVAL_S,
        epoch: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.interval = interval
        self._clock = clock
        self.epoch = clock() if epoch is None else epoch
        self.samples: List[ResourceSample] = []
        self._last = float("-inf")

    # ------------------------------------------------------------------
    def due(self) -> bool:
        """True when the throttle window has elapsed (hot-path check)."""
        return self._clock() - self._last >= self.interval

    def sample(self, path: str = "") -> ResourceSample:
        """Force one sample now, tagged with ``path``."""
        now = self._clock()
        self._last = now
        rec = sample_now(path, ts=now - self.epoch)
        self.samples.append(rec)
        return rec

    # ------------------------------------------------------------------
    def absorb(
        self,
        samples: Iterable[ResourceSample],
        *,
        shift: float = 0.0,
        prefix: str = "",
    ) -> None:
        """Fold shipped worker samples in: rebase ts, graft the path.

        ``shift`` is ``worker_epoch - parent_epoch`` (both are
        ``perf_counter`` readings, which share a clock across processes
        on the platforms we run on), so rebased timestamps line worker
        samples up with parent-side ones.  ``prefix`` is the open span
        path at absorb time — the same place the worker's span subtree
        is grafted — so sample paths stay congruent with span paths.
        """
        for rec in samples:
            path = rec.path
            if prefix:
                path = f"{prefix}/{path}" if path else prefix
            self.samples.append(replace(rec, ts=rec.ts + shift, path=path))

    def summary(self) -> Dict[str, float]:
        """Run-level rollup: peak RSS and total CPU across own samples."""
        own = [s for s in self.samples if s.pid == os.getpid()]
        out: Dict[str, float] = {}
        if own:
            out["rss_max_bytes"] = float(max(s.rss_bytes for s in own))
            out["cpu_s"] = max(0.0, own[-1].cpu_s - own[0].cpu_s)
        for pid in {s.pid for s in self.samples}:
            series = [s for s in self.samples if s.pid == pid]
            peak = float(max(s.rss_bytes for s in series))
            out["rss_max_bytes"] = max(out.get("rss_max_bytes", 0.0), peak)
        return out
