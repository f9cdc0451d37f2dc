"""Counter identity between two runs (``repro trace --diff``).

Counters count deterministic events, so two runs of the same workload
must agree on every one of them: any drift in e.g.
``search.schedules_evaluated`` is a correctness bug, not noise.
:func:`diff_runs` lists each counter whose value differs or that exists
in only one run, and every such delta fails; there is no tolerance.
Wall time is not compared here: perfbench and the history trend gate
(:func:`repro.obs.history.detect_regressions`) judge it.  CI diffs the
trace files of its serial and sharded smoke runs with this check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs.trace_io import TraceData
from repro.textutil import format_table

__all__ = ["CounterDelta", "RunDiff", "diff_runs", "render_diff"]


@dataclass(frozen=True)
class CounterDelta:
    """One differing counter; ``None`` marks the run that lacks it."""

    name: str
    baseline: Optional[float]
    current: Optional[float]

    @property
    def delta(self) -> float:
        return (self.current or 0) - (self.baseline or 0)


@dataclass
class RunDiff:
    """Every counter that differs between a baseline and a current run."""

    counters: List[CounterDelta] = field(default_factory=list)

    def regressions(self) -> List[str]:
        """Human-readable line per differing counter (empty = pass)."""
        return [
            f"counter {c.name!r}: {c.baseline!r} -> {c.current!r}"
            for c in self.counters
        ]

    @property
    def ok(self) -> bool:
        return not self.counters


def diff_runs(baseline: TraceData, current: TraceData) -> RunDiff:
    """Compare two parsed runs counter by counter, exactly."""
    counters_a = baseline.metrics.counters
    counters_b = current.metrics.counters
    return RunDiff(
        counters=[
            CounterDelta(name, counters_a.get(name), counters_b.get(name))
            for name in sorted(counters_a.keys() | counters_b.keys())
            if counters_a.get(name) != counters_b.get(name)
        ]
    )


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:g}"


def render_diff(diff: RunDiff) -> str:
    """ASCII report: the differing counters and the verdict."""
    lines = [f"run diff: {len(diff.counters)} counter deltas"]
    if diff.counters:
        lines.append("")
        lines.append("counter deltas:")
        lines += format_table(
            ("name", "baseline", "current"),
            [
                (c.name, _fmt(c.baseline), _fmt(c.current))
                for c in diff.counters
            ],
        )
    else:
        lines.append("counters: identical")
    problems = diff.regressions()
    lines.append("")
    if problems:
        lines.append(f"RESULT: {len(problems)} regression(s)")
        lines += [f"  - {msg}" for msg in problems]
    else:
        lines.append("RESULT: ok")
    return "\n".join(lines)
