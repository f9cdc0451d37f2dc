"""Uniform random sampling of the design space.

The paper's future-work section (§VI) proposes exactly this comparison:
"a search strategy that randomly samples the design space could be used to
show that the current strategy indeed produces better results."  We
implement it as the ablation baseline: each iteration draws one schedule
by uniform frontier choice (the same policy as an MCTS rollout, but with
no tree, no selection bias, and no memory).

Draws are collected into sample blocks of up to ``batch_size`` schedules
and submitted to the evaluator as one batch.  Because measurement never
consumes the sampling RNG, the drawn sequence — and therefore every
result — is identical to drawing and measuring one schedule at a time.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro import obs
from repro.schedule.schedule import Schedule
from repro.search.base import SearchResult, SearchStrategy


class RandomSearch(SearchStrategy):
    """Memoryless random exploration (baseline)."""

    name = "random"

    def __init__(
        self,
        space,
        evaluator,
        seed: int = 0,
        batch_size: int = 64,
        guide=None,
    ) -> None:
        super().__init__(space, evaluator)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.rng = np.random.default_rng(seed)
        self.batch_size = batch_size
        #: Optional rule guide (:mod:`repro.advisor.guided`): rollouts
        #: whose prefix determinately violates a prune-strength rule are
        #: abandoned mid-draw (counted in ``n_subtrees_cut``, mirroring
        #: the enumerator's branch-and-bound cut), and completed draws
        #: the guide still rejects are skipped (``n_pruned``) before
        #: they cost a simulation — rejection sampling toward the
        #: rule-satisfying region, bounded by the same attempt cap.
        self.guide = guide

    def run(self, n_iterations: int) -> SearchResult:
        with obs.span(
            "search.random",
            n_iterations=n_iterations,
            guided=self.guide is not None,
        ):
            result = self._run(n_iterations)
        result.record_metrics()
        return result

    def _run(self, n_iterations: int) -> SearchResult:
        result = SearchResult(strategy=self.name)
        sims_before = self.evaluator.n_simulations
        attempts = 0
        max_attempts = 50 * max(1, n_iterations)
        while result.n_iterations < n_iterations and attempts < max_attempts:
            block: List[Schedule] = []
            while (
                result.n_iterations + len(block) < n_iterations
                and len(block) < self.batch_size
                and attempts < max_attempts
            ):
                attempts += 1
                keep_prefix = (
                    self.guide.admits_prefix
                    if self.guide is not None
                    else None
                )
                schedule = self.space.random_schedule(
                    self.rng, keep_prefix=keep_prefix
                )
                if schedule is None:  # rollout abandoned mid-prefix
                    result.n_subtrees_cut += 1
                    continue
                if self.guide is not None and not self.guide.admits(schedule):
                    result.n_pruned += 1
                    continue
                block.append(schedule)
            if not block:
                break
            for schedule, m in zip(
                block, self.evaluator.evaluate_batch(block)
            ):
                result.add(schedule, m.time)
                result.n_iterations += 1
        result.n_simulations = self.evaluator.n_simulations - sims_before
        return result
