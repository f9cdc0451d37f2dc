"""Beam search over schedule prefixes (additional baseline).

The paper's related work (§II-A) contrasts MCTS with beam search (Adams et
al., Anderson et al.); §VI asks for alternative strategies "at least as a
baseline for comparison".  Because the performance of a *partial* program
cannot be evaluated (§III-B), each candidate prefix is scored by the best
of ``rollouts_per_candidate`` random completions, exactly the estimator
MCTS uses in its rollout phase.

The search proceeds level by level: expand every action of every prefix in
the beam, score the children, keep the ``width`` best.  All rollouts of a
level are submitted to the evaluator as **one batch** (random completions
are drawn first, in the serial order; measurement never consumes the RNG,
so scores and the sample trace are identical to rollout-at-a-time
evaluation).  Every benchmarked rollout is recorded in the result, so beam
search plugs into the same label/train/rules pipeline as the other
strategies.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro import obs
from repro.schedule.schedule import Schedule
from repro.schedule.space import DecisionState
from repro.search.base import SearchResult, SearchStrategy


class BeamSearch(SearchStrategy):
    """Level-synchronous beam search with rollout-based scoring."""

    name = "beam"

    def __init__(
        self,
        space,
        evaluator,
        width: int = 8,
        rollouts_per_candidate: int = 1,
        seed: int = 0,
        guide=None,
    ) -> None:
        super().__init__(space, evaluator)
        if width < 1:
            raise ValueError("beam width must be >= 1")
        if rollouts_per_candidate < 1:
            raise ValueError("need at least one rollout per candidate")
        self.width = width
        self.rollouts_per_candidate = rollouts_per_candidate
        self.rng = np.random.default_rng(seed)
        #: Optional rule guide (:mod:`repro.advisor.guided`), used as an
        #: ordering prior: each level's expansions are visited in
        #: ascending prefix-violation order (so a truncated budget spends
        #: its rollouts on rule-satisfying prefixes first), and the
        #: penalty breaks measured-score ties when the beam is cut.
        self.guide = guide

    # ------------------------------------------------------------------
    def _random_completion(self, state: DecisionState):
        while not state.is_complete():
            actions = state.available_actions()
            state = state.child(int(self.rng.integers(len(actions))))
        return state.schedule()

    # ------------------------------------------------------------------
    def run(self, n_iterations: int) -> SearchResult:
        """Explore with a total budget of ``n_iterations`` benchmarks."""
        with obs.span("search.beam", n_iterations=n_iterations):
            result = self._run(n_iterations)
        result.record_metrics()
        return result

    def _run(self, n_iterations: int) -> SearchResult:
        result = SearchResult(strategy=self.name)
        sims_before = self.evaluator.n_simulations
        budget = n_iterations
        beam: List[Tuple[float, DecisionState]] = [
            (np.inf, self.space.initial_state())
        ]
        while budget > 0:
            # Expand the level and draw all rollout completions first.
            candidates: List[DecisionState] = []
            penalties: List[float] = []
            rollouts: List[Tuple[int, Schedule]] = []
            any_expandable = False
            for _, state in beam:
                if state.is_complete():
                    continue
                any_expandable = True
                actions = state.available_actions()
                if self.guide is not None:
                    # Ordering prior: expand low-violation children first
                    # (stable on the original action order for ties).
                    priced = sorted(
                        (
                            (self.guide.prefix_penalty(state.placed + a), i)
                            for i, a in enumerate(actions)
                        ),
                        key=lambda pi: pi[0],
                    )
                else:
                    priced = [(0.0, i) for i in range(len(actions))]
                for penalty, i in priced:
                    if budget <= 0:
                        break
                    child = state.child(i)
                    idx = len(candidates)
                    candidates.append(child)
                    penalties.append(penalty)
                    for _ in range(self.rollouts_per_candidate):
                        if budget <= 0:
                            break
                        rollouts.append(
                            (idx, self._random_completion(child))
                        )
                        budget -= 1
            if not any_expandable or not candidates:
                break
            # One batch per beam level.
            scores = [np.inf] * len(candidates)
            measurements = self.evaluator.evaluate_batch(
                [schedule for _, schedule in rollouts]
            )
            for (idx, schedule), m in zip(rollouts, measurements):
                result.add(schedule, m.time)
                result.n_iterations += 1
                scores[idx] = min(scores[idx], m.time)
            scored = sorted(
                zip(scores, penalties, candidates),
                key=lambda sc: (sc[0], sc[1]),
            )
            beam = [(score, state) for score, _, state in scored[: self.width]]
        result.n_simulations = self.evaluator.n_simulations - sims_before
        return result
