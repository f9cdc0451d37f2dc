"""Live progress for long runs: a throttled stderr meter.

The parent installs a :class:`ProgressMeter` as the ambient counter
ticker (:mod:`repro.obs.runtime`).  Its ``done`` count is the sum of
two sources that never overlap:

* the parent registry's own counter deltas (serial work, and worker
  results already absorbed);
* the counters of finished worker tasks that are not absorbed yet.  A
  worker ships its counters home on its ``TaskResult``; the plan runner
  hands them to :meth:`ProgressMeter.ship` when the task's future
  completes, and :func:`repro.obs.absorb` takes them back out of this
  pool as it merges them into the registry.

So sharded progress advances once per finished task, and
:meth:`ProgressMeter.finish` prints the exact 100% line from the
absorbed registry alone.

Progress totals come from ``DesignSpace.count()`` — the denominator is
exact, so the meter ends at precisely 100% and the final line's
numerator equals ``schedules evaluated + pruned + cut`` (the identity
the acceptance tests pin).
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Iterable, Optional, TextIO, Tuple

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot

__all__ = [
    "PLAN_PROGRESS_COUNTERS",
    "SEARCH_PROGRESS_COUNTERS",
    "ProgressMeter",
]

#: Progress numerator for schedule sweeps: every leaf the enumeration
#: retired, whether evaluated, skipped by a block filter, or cut with
#: its subtree (= evaluated + pruned + cut by the search accounting).
SEARCH_PROGRESS_COUNTERS: Tuple[str, ...] = (
    "space.schedules_enumerated",
    "space.leaves_cut",
)

#: Progress numerator for plan execution: completed tasks.
PLAN_PROGRESS_COUNTERS: Tuple[str, ...] = ("plan.tasks_completed",)


def _fmt_eta(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{int(seconds) // 60}m{int(seconds) % 60:02d}s"
    return f"{seconds:.0f}s"


class ProgressMeter:
    """Parent-side throttled stderr progress line with ETA.

    ``done`` is monotone by construction (``max`` against the last
    report), so the line never walks backwards.
    """

    def __init__(
        self,
        total: int,
        *,
        label: str = "progress",
        counters: Iterable[str] = SEARCH_PROGRESS_COUNTERS,
        stream: Optional[TextIO] = None,
        interval: float = 0.5,
        baseline: Optional[MetricsSnapshot] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = max(0, int(total))
        self.label = label
        self.counters = tuple(counters)
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.baseline = baseline or MetricsSnapshot()
        self._clock = clock
        self._started = clock()
        self._last_emit = -1.0
        self._last_done = 0
        #: Progress counted from shipped worker results not yet absorbed.
        self._shipped = 0.0

    # -- accounting ----------------------------------------------------
    def _progress_of(self, snap: MetricsSnapshot) -> float:
        return sum(snap.counter(name) for name in self.counters)

    def _registry_done(self, registry: MetricsRegistry) -> float:
        return self._progress_of(registry.snapshot()) - self._progress_of(
            self.baseline
        )

    def current_done(self, registry: MetricsRegistry) -> int:
        done = int(self._registry_done(registry) + self._shipped)
        self._last_done = max(self._last_done, done)
        return self._last_done

    # -- rendering -----------------------------------------------------
    def _line(self, done: int, final: bool) -> str:
        if self.total > 0:
            frac = min(1.0, done / self.total)
            pct = f"{100.0 * frac:5.1f}%"
        else:
            frac, pct = 1.0, "  ?  "
        elapsed = self._clock() - self._started
        if final or frac >= 1.0:
            eta = "done"
        elif done > 0:
            # Guard the denominator: an instant finish (or a coarse
            # clock) can report zero elapsed on the first render.
            rate = done / elapsed if elapsed > 0 else 0.0
            if rate > 0:
                eta = "eta " + _fmt_eta((self.total - done) / rate)
            else:
                eta = "eta --"
        else:
            eta = "eta --"
        return f"{self.label}: {pct} ({done}/{self.total}) {eta}"

    def _emit(self, done: int, final: bool) -> None:
        line = self._line(done, final)
        is_tty = getattr(self.stream, "isatty", lambda: False)()
        if is_tty:
            end = "\n" if final else "\r"
            self.stream.write(f"\x1b[2K{line}{end}")
        else:
            self.stream.write(line + "\n")
        try:
            self.stream.flush()
        except (OSError, ValueError):
            pass

    # -- hooks ---------------------------------------------------------
    def tick(self, registry: MetricsRegistry) -> None:
        """Counter-bump hook (ambient ``obs.add``); throttled."""
        now = self._clock()
        if (
            self._last_emit >= 0
            and now - self._last_emit < self.interval
        ):
            return
        self._last_emit = now
        self._emit(self.current_done(registry), final=False)

    def ship(self, snapshot: MetricsSnapshot, registry: MetricsRegistry) -> None:
        """Count a finished worker task's shipped counters, then tick."""
        self._shipped += self._progress_of(snapshot)
        self.tick(registry)

    def absorbed(self, snapshot: MetricsSnapshot) -> None:
        """``snapshot`` is merged into the registry: stop counting it here."""
        self._shipped -= self._progress_of(snapshot)

    def finish(self, registry: MetricsRegistry) -> int:
        """Final 100% line from the registry alone (post-absorb)."""
        done = int(self._registry_done(registry))
        self._last_done = max(self._last_done, done)
        self._emit(self._last_done, final=True)
        return self._last_done
