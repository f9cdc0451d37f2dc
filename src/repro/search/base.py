"""Common interfaces for design-space search."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro import obs
from repro.schedule.schedule import Schedule
from repro.schedule.space import DesignSpace
from repro.sim.measure import Benchmarker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.evaluator import Evaluator


@dataclass(frozen=True)
class SearchSample:
    """One explored implementation and its measured time."""

    schedule: Schedule
    time: float


@dataclass
class SearchResult:
    """Everything a search produced, in exploration order.

    ``samples`` may contain repeated schedules (MCTS rollouts can revisit);
    :meth:`unique` deduplicates keeping the first measurement, which is
    what label generation consumes.
    """

    strategy: str
    samples: List[SearchSample] = field(default_factory=list)
    n_iterations: int = 0
    #: Simulations the run made: its evaluator's count after the run
    #: minus before (0 when the evaluator had measured every schedule).
    n_simulations: int = 0
    #: Schedules a rule guide rejected before evaluation (guided search
    #: only; see :mod:`repro.advisor.guided`).
    n_pruned: int = 0
    #: Whole subtrees branch-and-bound cut before enumeration (guided
    #: exhaustive search), or rollouts abandoned mid-prefix (guided
    #: random search).  Schedules inside cut subtrees are counted in
    #: neither ``n_iterations`` nor ``n_pruned`` — they were never built.
    n_subtrees_cut: int = 0

    def add(self, schedule: Schedule, time: float) -> None:
        self.samples.append(SearchSample(schedule=schedule, time=time))

    def unique(self) -> "SearchResult":
        seen: Dict[Schedule, None] = {}
        out = SearchResult(
            strategy=self.strategy,
            n_iterations=self.n_iterations,
            n_simulations=self.n_simulations,
            n_pruned=self.n_pruned,
            n_subtrees_cut=self.n_subtrees_cut,
        )
        for s in self.samples:
            if s.schedule not in seen:
                seen[s.schedule] = None
                out.samples.append(s)
        return out

    def schedules(self) -> List[Schedule]:
        return [s.schedule for s in self.samples]

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.samples])

    def record_metrics(self) -> None:
        """Emit this result's counters into the ambient metrics registry.

        Called once at the end of every strategy's ``run`` — counter
        totals across range shards therefore equal the serial sweep's,
        because shard results partition the same enumeration.
        """
        obs.add("search.schedules_evaluated", self.n_iterations)
        if self.n_pruned:
            obs.add("search.pruned", self.n_pruned)
        if self.n_subtrees_cut:
            obs.add("search.subtrees_cut", self.n_subtrees_cut)

    def best(self) -> SearchSample:
        return min(self.samples, key=lambda s: s.time)

    def worst(self) -> SearchSample:
        return max(self.samples, key=lambda s: s.time)

    def __len__(self) -> int:
        return len(self.samples)


class SearchStrategy(abc.ABC):
    """A strategy explores a design space through an evaluator.

    Strategies submit *batches* of candidate schedules via
    :meth:`repro.exec.Evaluator.evaluate_batch` and never own a
    measurement loop, so any evaluator (cached, traced, batch-replayed)
    can stand behind them.  A bare
    :class:`~repro.sim.measure.Benchmarker` is accepted and wrapped in a
    :class:`~repro.exec.SerialEvaluator`; ``self.benchmarker`` then
    aliases the wrapped benchmarker (``None`` for evaluators without
    one).
    """

    name: str = "search"

    def __init__(
        self, space: DesignSpace, evaluator: "Evaluator | Benchmarker"
    ) -> None:
        from repro.exec.evaluator import as_evaluator

        self.space = space
        self.evaluator = as_evaluator(evaluator)
        self.benchmarker: Optional[Benchmarker] = getattr(
            self.evaluator, "benchmarker", None
        )

    @abc.abstractmethod
    def run(self, n_iterations: int) -> SearchResult:
        """Explore for ``n_iterations`` iterations (one benchmark each)."""
