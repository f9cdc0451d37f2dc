"""A search reports the simulations its own run made.

Strategies measure through an evaluator that may be shared (the
experiment workbench shares one across every search), so a result's
``n_simulations`` is the evaluator's count after the run minus before,
not its running total.
"""

import pytest

from repro.exec import build_evaluator
from repro.platform import perlmutter_like
from repro.schedule.space import DesignSpace
from repro.search.beam import BeamSearch
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.mcts import MctsConfig, MctsSearch, PlainUctMcts
from repro.search.random_search import RandomSearch
from repro.sim.measure import MeasurementConfig
from repro.workloads import WorkloadSpec, build_workload

#: Each strategy at a budget that covers much of the 16-schedule space.
STRATEGIES = {
    "exhaustive": lambda space, ev: ExhaustiveSearch(space, ev).run(),
    "random": lambda space, ev: RandomSearch(space, ev, seed=1).run(12),
    "beam": lambda space, ev: BeamSearch(space, ev, width=2, seed=1).run(12),
    "mcts": lambda space, ev: MctsSearch(space, ev, MctsConfig(seed=1)).run(12),
    "mcts-plain-uct": lambda space, ev: PlainUctMcts(
        space, ev, MctsConfig(seed=1)
    ).run(12),
}


@pytest.fixture(scope="module")
def program():
    return build_workload(WorkloadSpec("wavefront", {"width": 2, "height": 2}))


def _evaluator(program):
    return build_evaluator(
        program,
        perlmutter_like(noise_sigma=0.01).with_ranks(program.n_ranks),
        MeasurementConfig(max_samples=3),
    )


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_search_reports_its_own_simulations(program, strategy):
    """On a fresh evaluator a run's count is the evaluator's total, as
    ``repro search`` prints it; on one that has swept the space, 0."""
    space = DesignSpace(program, n_streams=2)
    evaluator = _evaluator(program)
    first = STRATEGIES[strategy](space, evaluator)
    assert first.n_simulations == evaluator.n_simulations > 0
    ExhaustiveSearch(space, evaluator).run()
    result = STRATEGIES[strategy](space, evaluator)
    assert result.n_iterations > 0
    assert result.n_simulations == 0
