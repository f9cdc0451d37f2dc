"""Module-level observability state and the primitives built on it.

Two pieces of ambient state, both process-local:

* ``metrics`` — a :class:`MetricsRegistry` that is **always on**.  Hot
  paths emit at block/batch granularity (one dict add per enumeration
  block, not per schedule), so the always-on cost is unmeasurable while
  keeping cache hit/miss counts available without any opt-in.  Counts
  are read once a run ends (``--metrics``, ``--trace``); nothing
  watches them live.
* ``tracer`` — ``None`` by default.  :func:`span` is a shared no-op
  context manager until a :class:`~repro.obs.span.Tracer` is installed
  (via :class:`capture`), which is what makes tracing zero-cost when
  disabled.  A run's per-layer wall time is read from its spans alone.

Worker processes never share this state usefully (fork inherits a stale
copy): :class:`worker_capture` swaps in a fresh registry/tracer for the
duration of one task and the parent folds the shipped results back with
:func:`absorb` — the same merge discipline ``execute_plan`` applies to
task payloads.  A shipped ``TaskResult`` is the only channel from a
worker to the parent.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.span import SpanRecord, Tracer

__all__ = [
    "absorb",
    "add",
    "capture",
    "metrics_snapshot",
    "reset",
    "span",
    "tracing_active",
    "worker_capture",
]


class _ObsState:
    __slots__ = ("tracer", "metrics")

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None
        self.metrics: MetricsRegistry = MetricsRegistry()


_STATE = _ObsState()


def reset() -> None:
    """Drop all ambient state (fresh registry, no tracer).

    Tests call it between cases.
    """
    _STATE.tracer = None
    _STATE.metrics = MetricsRegistry()


# ---------------------------------------------------------------------------
# metrics facade


def add(name: str, value: float = 1) -> None:
    _STATE.metrics.add(name, value)


def observe(name: str, value: float) -> None:
    _STATE.metrics.observe(name, value)


def metrics_snapshot() -> MetricsSnapshot:
    return _STATE.metrics.snapshot()


# ---------------------------------------------------------------------------
# spans


class _NullSpan:
    """Shared do-nothing span handle returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    __slots__ = ("_tracer", "_name", "_attrs", "record")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        self.record = self._tracer.open(self._name, self._attrs)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer.close(self.record)

    def set(self, **attrs: object) -> None:
        self.record.attrs.update(attrs)


def span(name: str, **attrs: object):
    """Open a traced span, or a shared no-op when tracing is disabled."""
    tracer = _STATE.tracer
    if tracer is None:
        return _NULL_SPAN
    return _SpanHandle(tracer, name, attrs)


def tracing_active() -> bool:
    return _STATE.tracer is not None


# ---------------------------------------------------------------------------
# capture scopes


class capture:
    """Parent-side capture: optionally install a tracer, delta the metrics.

    After exit, ``.spans`` holds the finished root spans (empty when
    ``trace=False``) and ``.metrics`` the :class:`MetricsSnapshot` delta
    of everything recorded — or absorbed from workers — inside the
    block.  Nestable; the previous tracer is restored on exit.
    """

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.spans: Tuple[SpanRecord, ...] = ()
        self.metrics = MetricsSnapshot()

    def __enter__(self) -> "capture":
        self._before = _STATE.metrics.snapshot()
        self._prev_tracer = _STATE.tracer
        if self.trace:
            _STATE.tracer = Tracer()
        return self

    def __exit__(self, *exc: object) -> None:
        if self.trace and _STATE.tracer is not None:
            self.spans = _STATE.tracer.finished_roots()
        _STATE.tracer = self._prev_tracer
        self.metrics = _STATE.metrics.snapshot().diff(self._before)

    @property
    def n_spans(self) -> int:
        return sum(rec.n_spans() for rec in self.spans)


class worker_capture:
    """Worker-side capture for one shipped task.

    Swaps in a *fresh* registry (and tracer, when the parent is tracing)
    so a pooled worker process — which may run many tasks back to back —
    never leaks metrics between tasks.  After exit, ``.spans`` and
    ``.snapshot`` are the picklable payloads to ship on the TaskResult,
    and ``.epoch`` (traced tasks only) is the worker tracer's clock
    origin, which :func:`absorb` uses to rebase shipped span starts onto
    the parent clock.
    """

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.spans: Tuple[SpanRecord, ...] = ()
        self.snapshot = MetricsSnapshot()
        self.epoch: Optional[float] = None

    def __enter__(self) -> "worker_capture":
        self._prev_tracer = _STATE.tracer
        self._prev_metrics = _STATE.metrics
        _STATE.tracer = Tracer() if self.trace else None
        _STATE.metrics = MetricsRegistry()
        return self

    def __exit__(self, *exc: object) -> None:
        if self.trace and _STATE.tracer is not None:
            self.spans = _STATE.tracer.finished_roots()
            self.epoch = _STATE.tracer.epoch
        self.snapshot = _STATE.metrics.snapshot()
        _STATE.tracer = self._prev_tracer
        _STATE.metrics = self._prev_metrics


def _shift_span(rec: SpanRecord, shift: float) -> None:
    """Rebase one span subtree's start times by ``shift`` seconds."""
    rec.start += shift
    for child in rec.children:
        _shift_span(child, shift)


def absorb(
    spans: Sequence[SpanRecord] = (),
    snapshot: Optional[MetricsSnapshot] = None,
    epoch: Optional[float] = None,
) -> None:
    """Fold a worker's shipped spans and metrics into the ambient state.

    Metrics merge into the live registry; span subtrees graft under the
    current open span (``plan.execute`` during plan merging), giving one
    coherent trace tree per run.  When the worker ships its clock
    ``epoch``, span starts are rebased by ``worker_epoch -
    parent_epoch`` first — ``perf_counter`` is the system-wide monotonic
    clock on the platforms we run on, so after rebasing one trace holds
    a single coherent cross-pid timeline.
    """
    if snapshot is not None and not snapshot.is_empty():
        _STATE.metrics.merge_snapshot(snapshot)
    tracer = _STATE.tracer
    if spans and tracer is not None:
        if epoch is not None:
            shift = epoch - tracer.epoch
            for root in spans:
                _shift_span(root, shift)
        tracer.attach(list(spans))
