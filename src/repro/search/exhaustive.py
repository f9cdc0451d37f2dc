"""Exhaustive enumeration + benchmarking of the full design space.

The paper's canonical labels and rules (the "2036" column of Tables VI-VIII
and Figures 1/4/5/6) come from benchmarking every possible traversal; this
strategy reproduces that.  ``n_iterations`` is ignored beyond capping the
number of schedules benchmarked (useful for tests).

Enumeration streams through :meth:`repro.schedule.space.DesignSpace.iter_blocks`
in blocks of ``batch_size`` schedules, so batch replay gets a whole block
per call, results remain in enumeration order, and peak schedule
residency is one block — never the space.

A rule ``guide`` (:class:`repro.advisor.guided.ScheduleGuide`) turns the
sweep into *guided* exhaustive search, a branch-and-bound walk.  The
guide prunes at two levels: incomplete prefixes that determinately
violate a prune-strength rule cut their entire subtree before
enumeration (``result.n_subtrees_cut``), and surviving complete
schedules that still violate are dropped before simulation
(``result.n_pruned``).  Both prune toward exactly the set
``guide.admits`` keeps, so the guided best is found while enumerating —
not merely skipping — the violating region.

``cursor``/``limit`` restrict the sweep to an enumeration range (see
:meth:`DesignSpace.seek`), which is how
:mod:`repro.orchestrate.ranges` splits one huge space across a shard
pool with bit-identical merged results.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.schedule.space import EnumerationCursor
from repro.search.base import SearchResult, SearchStrategy


class ExhaustiveSearch(SearchStrategy):
    """Benchmark the entire design space in enumeration order."""

    name = "exhaustive"

    def __init__(
        self,
        space,
        evaluator,
        batch_size: int = 64,
        guide=None,
        cursor: Optional[EnumerationCursor] = None,
        limit: Optional[int] = None,
    ) -> None:
        super().__init__(space, evaluator)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.guide = guide
        self.cursor = cursor
        self.limit = limit

    def run(self, n_iterations: Optional[int] = None) -> SearchResult:
        result = SearchResult(strategy=self.name)
        sims_before = self.evaluator.n_simulations
        keep = self.guide.admits if self.guide is not None else None
        keep_prefix = (
            self.guide.admits_prefix if self.guide is not None else None
        )
        with obs.span(
            "search.exhaustive",
            batch_size=self.batch_size,
            guided=self.guide is not None,
            limit=self.limit,
        ):
            for block in self.space.iter_blocks(
                self.batch_size,
                cursor=self.cursor,
                keep=keep,
                keep_prefix=keep_prefix,
                limit=self.limit,
            ):
                result.n_pruned += block.n_skipped
                result.n_subtrees_cut += block.n_subtrees_cut
                schedules = block.schedules
                if n_iterations is not None:
                    schedules = schedules[: n_iterations - result.n_iterations]
                for schedule, m in zip(
                    schedules, self.evaluator.evaluate_batch(schedules)
                ):
                    result.add(schedule, m.time)
                    result.n_iterations += 1
                # Stop before enumerating a block past the cap.
                if (
                    n_iterations is not None
                    and result.n_iterations >= n_iterations
                ):
                    break
        result.n_simulations = self.evaluator.n_simulations - sims_before
        result.record_metrics()
        return result
