"""Trace/metrics diffing between two runs (``repro trace --diff``).

:func:`diff_runs` lines two :class:`~repro.obs.trace_io.TraceData`
bundles up by span path and metric name and classifies every delta:

* **wall deltas** per span path — a shared path regresses when the
  current total exceeds the baseline by more than
  ``max_wall_delta`` (relative) *and* the baseline wall clears
  ``min_wall_s`` (noise floor: a 3x jump on a 40us span is scheduler
  jitter, not a regression);
* **counter deltas** — counters count deterministic events, so the
  default tolerance is *zero*: any drift in e.g.
  ``search.schedules_evaluated`` between two runs of the same workload
  is a correctness bug, not noise.  A relative ``counter_tolerance``
  loosens this for counters that legitimately vary (cache hits across
  reused stores);
* **histogram quantile deltas** — informational by default (quantiles
  carry wall clock); setting ``max_quantile_delta`` turns them into
  gate inputs, which is how the serving-latency benchmark (ROADMAP
  item 1) will pin ``advisor.recommend_s`` tails.

The same :class:`RunDiff` object backs the CLI gate and the CI smoke-run
identity check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.obs.analyze import aggregate_spans
from repro.obs.trace_io import TraceData
from repro.textutil import format_table

__all__ = [
    "CounterDelta",
    "DiffThresholds",
    "PathDelta",
    "QuantileDelta",
    "RunDiff",
    "diff_runs",
    "render_diff",
]


@dataclass(frozen=True)
class DiffThresholds:
    """Relative gating thresholds for :func:`diff_runs`."""

    #: Max allowed relative wall growth per shared span path (0.25 = +25%).
    max_wall_delta: float = 0.25
    #: Ignore wall deltas on paths whose baseline total is below this.
    min_wall_s: float = 0.005
    #: Relative counter drift allowed; 0.0 means bit-exact counters.
    counter_tolerance: float = 0.0
    #: When set, histogram quantile growth beyond this gates too.
    max_quantile_delta: Optional[float] = None
    quantiles: Tuple[str, ...] = ("p50", "p95", "p99")


@dataclass(frozen=True)
class PathDelta:
    """Wall-time delta for one span path."""

    path: str
    baseline: Optional[float]  # None: path only exists in current
    current: Optional[float]  # None: path only exists in baseline
    regressed: bool = False

    @property
    def ratio(self) -> Optional[float]:
        if self.baseline and self.current is not None:
            return self.current / self.baseline
        return None


@dataclass(frozen=True)
class CounterDelta:
    name: str
    baseline: Optional[float]
    current: Optional[float]
    regressed: bool = False

    @property
    def delta(self) -> float:
        return (self.current or 0) - (self.baseline or 0)


@dataclass(frozen=True)
class QuantileDelta:
    name: str
    quantile: str
    baseline: float
    current: float
    regressed: bool = False


@dataclass
class RunDiff:
    """Everything that differs between a baseline and a current run."""

    thresholds: DiffThresholds
    paths: List[PathDelta] = field(default_factory=list)
    counters: List[CounterDelta] = field(default_factory=list)
    quantiles: List[QuantileDelta] = field(default_factory=list)

    def regressions(self) -> List[str]:
        """Human-readable line per gating violation (empty = pass)."""
        out: List[str] = []
        for p in self.paths:
            if p.regressed:
                out.append(
                    f"span path {p.path!r}: wall {p.baseline:.4f}s -> "
                    f"{p.current:.4f}s ({p.ratio:.2f}x > "
                    f"{1 + self.thresholds.max_wall_delta:.2f}x allowed)"
                )
        for c in self.counters:
            if c.regressed:
                out.append(
                    f"counter {c.name!r}: {c.baseline!r} -> {c.current!r} "
                    f"(tolerance {self.thresholds.counter_tolerance:g})"
                )
        for q in self.quantiles:
            if q.regressed:
                out.append(
                    f"histogram {q.name!r} {q.quantile}: "
                    f"{q.baseline:.6f} -> {q.current:.6f} "
                    f"(> {self.thresholds.max_quantile_delta:+.0%} allowed)"
                )
        return out

    @property
    def ok(self) -> bool:
        return not self.regressions()

    def n_shared_paths(self) -> int:
        return sum(
            1
            for p in self.paths
            if p.baseline is not None and p.current is not None
        )


def _counter_regressed(
    baseline: Optional[float],
    current: Optional[float],
    tolerance: float,
) -> bool:
    if baseline is None or current is None:
        # Appearing/disappearing counters are structural drift — always
        # flagged under zero tolerance, never under a loose one.
        return tolerance == 0.0
    if baseline == current:
        return False
    if tolerance <= 0.0:
        return True
    scale = max(abs(baseline), abs(current))
    return abs(current - baseline) > tolerance * scale


def diff_runs(
    baseline: TraceData,
    current: TraceData,
    thresholds: Optional[DiffThresholds] = None,
) -> RunDiff:
    """Compare two parsed runs path-by-path and metric-by-metric."""
    thr = thresholds or DiffThresholds()
    out = RunDiff(thresholds=thr)

    stats_a = aggregate_spans(baseline.spans)
    stats_b = aggregate_spans(current.spans)
    for path in sorted(stats_a.keys() | stats_b.keys()):
        a = stats_a.get(path)
        b = stats_b.get(path)
        regressed = False
        if a is not None and b is not None:
            regressed = (
                a.total >= thr.min_wall_s
                and b.total > a.total * (1.0 + thr.max_wall_delta)
            )
        out.paths.append(
            PathDelta(
                path=path,
                baseline=None if a is None else a.total,
                current=None if b is None else b.total,
                regressed=regressed,
            )
        )

    counters_a = dict(baseline.metrics.counters)
    counters_b = dict(current.metrics.counters)
    for name in sorted(counters_a.keys() | counters_b.keys()):
        a_val = counters_a.get(name)
        b_val = counters_b.get(name)
        if a_val == b_val:
            continue
        out.counters.append(
            CounterDelta(
                name=name,
                baseline=a_val,
                current=b_val,
                regressed=_counter_regressed(
                    a_val, b_val, thr.counter_tolerance
                ),
            )
        )

    hists_a = baseline.metrics.histograms
    hists_b = current.metrics.histograms
    for name in sorted(hists_a.keys() & hists_b.keys()):
        summary_a = baseline.metrics.histogram_summary(name)
        summary_b = current.metrics.histogram_summary(name)
        for q in thr.quantiles:
            if q not in summary_a or q not in summary_b:
                continue
            a_val, b_val = summary_a[q], summary_b[q]
            if a_val == b_val:
                continue
            regressed = bool(
                thr.max_quantile_delta is not None
                and a_val > 0
                and b_val > a_val * (1.0 + thr.max_quantile_delta)
            )
            out.quantiles.append(
                QuantileDelta(
                    name=name,
                    quantile=q,
                    baseline=a_val,
                    current=b_val,
                    regressed=regressed,
                )
            )

    return out


# ----------------------------------------------------------------------
def _fmt_wall(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4f}s"


def render_diff(diff: RunDiff, top: int = 15) -> str:
    """ASCII report: changed paths, counter drift, quantile drift."""
    lines: List[str] = []

    changed = [
        p
        for p in diff.paths
        if p.baseline is None
        or p.current is None
        or p.baseline != p.current
    ]
    shared = [p for p in changed if p.ratio is not None]
    shared.sort(key=lambda p: -abs(p.ratio - 1.0))
    structural = [p for p in changed if p.ratio is None]
    lines.append(
        f"run diff: {diff.n_shared_paths()} shared span paths, "
        f"{len(structural)} only in one run, "
        f"{len(diff.counters)} counter deltas"
    )
    if shared:
        lines.append("")
        lines.append(f"span-path wall deltas (top {top} by |ratio-1|):")
        lines += format_table(
            ("path", "baseline", "current", "ratio", "gate"),
            [
                (
                    p.path,
                    _fmt_wall(p.baseline),
                    _fmt_wall(p.current),
                    f"{p.ratio:.2f}x",
                    "REGRESSED" if p.regressed else "ok",
                )
                for p in shared[:top]
            ],
        )
    if structural:
        lines.append("")
        lines.append("span paths present in only one run:")
        lines += format_table(
            ("path", "baseline", "current"),
            [
                (p.path, _fmt_wall(p.baseline), _fmt_wall(p.current))
                for p in structural[:top]
            ],
        )
    if diff.counters:
        lines.append("")
        lines.append("counter deltas:")
        lines += format_table(
            ("name", "baseline", "current", "gate"),
            [
                (
                    c.name,
                    "-" if c.baseline is None else f"{c.baseline:g}",
                    "-" if c.current is None else f"{c.current:g}",
                    "REGRESSED" if c.regressed else "ok",
                )
                for c in diff.counters
            ],
        )
    else:
        lines.append("counters: identical")
    if diff.quantiles:
        lines.append("")
        lines.append("histogram quantile deltas:")
        lines += format_table(
            ("name", "q", "baseline", "current", "gate"),
            [
                (
                    q.name,
                    q.quantile,
                    f"{q.baseline:.6f}",
                    f"{q.current:.6f}",
                    "REGRESSED" if q.regressed else "ok",
                )
                for q in diff.quantiles
            ],
        )

    problems = diff.regressions()
    lines.append("")
    if problems:
        lines.append(f"RESULT: {len(problems)} regression(s)")
        lines += [f"  - {msg}" for msg in problems]
    else:
        lines.append("RESULT: ok")
    return "\n".join(lines)
