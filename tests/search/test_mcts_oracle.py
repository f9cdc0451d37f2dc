"""Oracle test: MCTS, plain-UCT MCTS and beam search on the state graph
against the implementations they replaced.

``MctsSearch`` keys each tree node's children by the index of their
action in the node's state, descends through ``DecisionState.child`` (the
state graph's cached child) and marks a node fully explored during
backpropagation.  The reference classes below are the code it replaced:
``RefMctsNode`` keys children by the ops' names, streams and events and
rebuilds its list of unexpanded actions on every visit;
``RefMctsSearch._select`` stops at a child without rollouts and climbs out
of a node whose children are all fully explored, ``_expand`` falls back
to a zero-rollout child, and a separate pass marks fully explored nodes;
``RefPlainUct`` copies all of ``_select`` to set the exploitation term to
1; ``RefBeamSearch`` extends states by action with ``ref_apply``.

Each pair must give the same samples (fingerprint and time), iteration
count, simulation count (a run reports its own; a reference reports its
evaluator's running total, so the check takes that total's change), tree
size, per-node statistics in creation order and rng state, on every
built-in family, spmv, halo3d x and Hypothesis DAGs, for several seeds
and budgets (some past full exploration), with and without a rule guide.
A property test checks the invariant the new selection relies on after
every iteration.

Continuation: successive runs on one ``MctsSearch`` or ``PlainUctMcts``
must give, in order, the samples of one fresh search's run of the summed
budget, simulate as many schedules in all, and leave the same node
statistics, tree size and rng state, past full exploration too.  The
experiment workbench grows one tree per seed across Table V budgets on
the strength of this.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import partial
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.advisor import ScheduleGuide
from repro.errors import SearchError
from repro.exec import Evaluator, build_evaluator
from repro.platform import perlmutter_like
from repro.schedule.space import DecisionState, DesignSpace
from repro.search.base import SearchResult, SearchStrategy
from repro.search.beam import BeamSearch
from repro.search.mcts import (
    EXPLORATION_C,
    MctsConfig,
    MctsNode,
    MctsSearch,
    PlainUctMcts,
)
from repro.sim.measure import Measurement, MeasurementConfig
from repro.workloads import WorkloadSpec, build_workload
from repro.workloads.spec import list_families
from tests.schedule.test_decision_state import SMALL, programs


# -- reference: the tree keyed by action names -------------------------------
def _action_key(action) -> Tuple:
    return tuple((op.name, op.stream, op.event) for op in action)


def ref_apply(state: DecisionState, action) -> DecisionState:
    """``DecisionState.apply``: the state after appending ``action``."""
    out = DecisionState.__new__(DecisionState)
    out.space = state.space
    out.placed = state.placed + action
    out._node = state.space._graph.step(state._node, action)
    return out


class RefMctsNode:
    __slots__ = (
        "parent",
        "action",
        "state",
        "children",
        "n_rollouts",
        "t_min",
        "t_max",
        "fully_explored",
    )

    def __init__(self, parent, action, state) -> None:
        self.parent = parent
        self.action = action
        self.state = state
        self.children: Dict[Tuple, "RefMctsNode"] = {}
        self.n_rollouts = 0
        self.t_min = math.inf
        self.t_max = -math.inf
        self.fully_explored = False

    @property
    def actions(self):
        return self.state.available_actions()

    @property
    def is_terminal(self) -> bool:
        return self.state.is_complete()

    def unexpanded_actions(self):
        return [
            a for a in self.actions if _action_key(a) not in self.children
        ]

    def child_for(self, action) -> "RefMctsNode":
        key = _action_key(action)
        child = self.children.get(key)
        if child is None:
            child = RefMctsNode(
                parent=self, action=action, state=ref_apply(self.state, action)
            )
            self.children[key] = child
        return child

    def exploration_value(self, c: float) -> float:
        if self.fully_explored:
            return -math.inf
        parent_n = self.parent.n_rollouts if self.parent else self.n_rollouts
        if self.n_rollouts == 0 or parent_n == 0:
            return math.inf
        return c * math.sqrt(math.log(parent_n) / self.n_rollouts)

    def exploitation_value(self) -> float:
        parent = self.parent
        if parent is None or self.n_rollouts < 2 or parent.n_rollouts < 2:
            return 1.0
        parent_range = parent.t_max - parent.t_min
        if parent_range <= 0.0:
            return 1.0
        return (self.t_max - self.t_min) / parent_range

    def value(self, c: float) -> float:
        return self.exploration_value(c) + self.exploitation_value()


class RefMctsSearch(SearchStrategy):
    name = "mcts"

    def __init__(self, space, evaluator, config=MctsConfig(), guide=None):
        super().__init__(space, evaluator)
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.guide = guide
        self.root = RefMctsNode(None, None, space.initial_state())

    def run(self, n_iterations: int) -> SearchResult:
        result = SearchResult(strategy=self.name)
        while result.n_iterations < n_iterations and not self.root.fully_explored:
            node = self._expand(self._select(self.root))
            schedule, path = self._rollout(node)
            time = self.evaluator.evaluate(schedule).time
            self._backpropagate(path, time)
            result.add(schedule, time)
            result.n_iterations += 1
        result.n_simulations = self.evaluator.n_simulations
        return result

    def _select(self, root):
        node = root
        while True:
            if node.is_terminal:
                return node
            if node.unexpanded_actions():
                return node
            children = list(node.children.values())
            zero = [ch for ch in children if ch.n_rollouts == 0]
            if zero:
                return node
            viable = [ch for ch in children if not ch.fully_explored]
            if not viable:
                node.fully_explored = True
                if node.parent is None:
                    return node
                node = node.parent
                continue
            c = EXPLORATION_C
            node = max(viable, key=lambda ch: ch.value(c))

    def _expand(self, node):
        if node.is_terminal:
            return node
        unexpanded = node.unexpanded_actions()
        if unexpanded:
            action = unexpanded[int(self.rng.integers(len(unexpanded)))]
            return node.child_for(action)
        zero = [ch for ch in node.children.values() if ch.n_rollouts == 0]
        if zero:
            return zero[int(self.rng.integers(len(zero)))]
        raise SearchError("expansion called on a fully expanded node")

    def _rollout(self, node):
        path: List[RefMctsNode] = []
        cur = node
        while cur is not None:
            path.append(cur)
            cur = cur.parent
        path.reverse()
        current = node
        while not current.is_terminal:
            actions = current.actions
            if not actions:
                raise SearchError(
                    "dead end during rollout; inconsistent design space"
                )
            if self.guide is not None and len(actions) > 1:
                placed = current.state.placed
                penalties = [
                    self.guide.prefix_penalty(placed + a) for a in actions
                ]
                floor = min(penalties)
                actions = tuple(
                    a for a, p in zip(actions, penalties) if p == floor
                )
            action = actions[int(self.rng.integers(len(actions)))]
            current = current.child_for(action)
            path.append(current)
        return current.state.schedule(), path

    def _backpropagate(self, path, time: float) -> None:
        for node in reversed(path):
            node.n_rollouts += 1
            node.t_min = min(node.t_min, time)
            node.t_max = max(node.t_max, time)
        for node in reversed(path):
            self._update_fully_explored(node)

    def _update_fully_explored(self, node) -> None:
        if node.is_terminal:
            node.fully_explored = True
            return
        if node.unexpanded_actions():
            return
        if all(ch.fully_explored for ch in node.children.values()):
            node.fully_explored = True

    def tree_size(self) -> int:
        def count(node) -> int:
            return 1 + sum(count(ch) for ch in node.children.values())

        return count(self.root)


class RefPlainUct(RefMctsSearch):
    name = "mcts-plain-uct"

    def _select(self, root):  # same flow, V == 1
        node = root
        while True:
            if node.is_terminal or node.unexpanded_actions():
                return node
            children = list(node.children.values())
            if any(ch.n_rollouts == 0 for ch in children):
                return node
            viable = [ch for ch in children if not ch.fully_explored]
            if not viable:
                node.fully_explored = True
                if node.parent is None:
                    return node
                node = node.parent
                continue
            c = EXPLORATION_C
            node = max(viable, key=lambda ch: ch.exploration_value(c) + 1.0)


class RefBeamSearch(SearchStrategy):
    name = "beam"

    def __init__(
        self, space, evaluator, width=8, rollouts_per_candidate=1, seed=0,
        guide=None,
    ) -> None:
        super().__init__(space, evaluator)
        self.width = width
        self.rollouts_per_candidate = rollouts_per_candidate
        self.rng = np.random.default_rng(seed)
        self.guide = guide

    def _random_completion(self, state):
        while not state.is_complete():
            actions = state.available_actions()
            state = ref_apply(
                state, actions[int(self.rng.integers(len(actions)))]
            )
        return state.schedule()

    def run(self, n_iterations: int) -> SearchResult:
        result = SearchResult(strategy=self.name)
        budget = n_iterations
        beam = [(np.inf, self.space.initial_state())]
        while budget > 0:
            candidates, penalties, rollouts = [], [], []
            any_expandable = False
            for _, state in beam:
                if state.is_complete():
                    continue
                any_expandable = True
                actions = state.available_actions()
                if self.guide is not None:
                    priced = sorted(
                        (
                            (self.guide.prefix_penalty(state.placed + a), a)
                            for a in actions
                        ),
                        key=lambda pa: pa[0],
                    )
                else:
                    priced = [(0.0, a) for a in actions]
                for penalty, action in priced:
                    if budget <= 0:
                        break
                    child = ref_apply(state, action)
                    idx = len(candidates)
                    candidates.append(child)
                    penalties.append(penalty)
                    for _ in range(self.rollouts_per_candidate):
                        if budget <= 0:
                            break
                        rollouts.append((idx, self._random_completion(child)))
                        budget -= 1
            if not any_expandable or not candidates:
                break
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
        result.n_simulations = self.evaluator.n_simulations
        return result


# -- evaluators ----------------------------------------------------------------
class KeyedTimes(Evaluator):
    """A time per schedule from its fingerprint.  Five distinct values, so
    coverage ratios and selection values tie often."""

    def __init__(self) -> None:
        self._n = 0

    @property
    def n_simulations(self) -> int:
        return self._n

    def evaluate_batch(self, schedules):
        self._n += len(schedules)
        out = []
        for s in schedules:
            t = 1.0 + int(s.fingerprint()[:8], 16) % 5
            out.append(Measurement(time=t, n_samples=1, per_rank_time=(t,)))
        return out


MACHINE = perlmutter_like(noise_sigma=0.01)


def simulator(program) -> Evaluator:
    """A fresh evaluator, so both sides count their own simulations."""
    return build_evaluator(
        program,
        MACHINE.with_ranks(program.n_ranks),
        MeasurementConfig(max_samples=1),
    )


# -- comparison ----------------------------------------------------------------
@contextmanager
def recording(cls):
    """Collect every instance of ``cls`` made inside the block, in order."""
    made = []
    init = cls.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    cls.__init__ = record
    try:
        yield made
    finally:
        cls.__init__ = init


def node_stats(nodes) -> List[Tuple]:
    return [
        (
            _action_key(node.state.placed),
            node.n_rollouts,
            node.t_min,
            node.t_max,
            node.fully_explored,
            len(node.children),
        )
        for node in nodes
    ]


def samples(result: SearchResult) -> List[Tuple[str, float]]:
    return [(s.schedule.fingerprint(), s.time) for s in result.samples]


def assert_same_runs(ref, new, ref_nodes, new_nodes, budgets) -> None:
    """Run both searches through the same budgets, one after the other
    on the same tree, and compare everything after each."""
    for budget in budgets:
        # The references report their evaluator's running total; a run
        # now reports its own simulations.
        ref_before = ref.evaluator.n_simulations
        a, b = ref.run(budget), new.run(budget)
        assert samples(b) == samples(a)
        assert (b.n_iterations, b.n_simulations) == (
            a.n_iterations,
            a.n_simulations - ref_before,
        )
        if ref_nodes is not None:
            assert new.tree_size() == ref.tree_size() == len(ref_nodes)
            assert node_stats(new_nodes) == node_stats(ref_nodes)
            assert new.root.fully_explored == ref.root.fully_explored
        assert new.rng.bit_generator.state == ref.rng.bit_generator.state


def assert_mcts_matches(
    space, evaluators, seed, budgets, guide=None, plain=False
) -> Tuple[MctsSearch, RefMctsSearch]:
    ref_cls, new_cls = (
        (RefPlainUct, PlainUctMcts) if plain else (RefMctsSearch, MctsSearch)
    )
    config = MctsConfig(seed=seed)
    with recording(RefMctsNode) as ref_nodes, recording(MctsNode) as new_nodes:
        ref = ref_cls(space, evaluators(), config, guide=guide)
        new = new_cls(space, evaluators(), config, guide=guide)
        assert_same_runs(ref, new, ref_nodes, new_nodes, budgets)
    return new, ref


def assert_beam_matches(space, evaluators, budget, guide=None, **kwargs):
    ref = RefBeamSearch(space, evaluators(), guide=guide, **kwargs)
    new = BeamSearch(space, evaluators(), guide=guide, **kwargs)
    assert_same_runs(ref, new, None, None, [budget])


# -- built-in families ----------------------------------------------------------
#: Every built-in family, at the sizes the decision-state oracle uses
#: (halo3d exchanging along x and y), and halo3d along x alone.
SPECS = {f.name: WorkloadSpec(f.name, SMALL.get(f.name, {})) for f in list_families()}
SPECS["halo3d-x"] = WorkloadSpec("halo3d", {**SMALL["halo3d"], "axes": "x"})
CASES = sorted(SPECS)

#: Spaces small enough to explore fully in a test (16 to 540 schedules).
EXHAUSTIBLE = ("wavefront", "tree_allreduce", "spmv")


def _case(case):
    program = build_workload(SPECS[case])
    return program, DesignSpace(program, n_streams=2)


def _budgets(space, case):
    """Budgets of successive runs on one tree: 1, 10 and 100 iterations in
    all, then past full exploration, or 250 on the larger spaces."""
    last = space.count() + 7 if case in EXHAUSTIBLE else 150
    return [1, 9, 90, last]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", [0, 3])
def test_family_mcts_matches_reference(case, seed):
    program, space = _case(case)
    new, _ = assert_mcts_matches(
        space, partial(simulator, program), seed, _budgets(space, case)
    )
    if case in EXHAUSTIBLE:
        assert new.root.fully_explored


@pytest.mark.parametrize("case", ["spmv", "halo3d-x", "layered_random"])
def test_family_plain_uct_matches_reference(case):
    program, space = _case(case)
    assert_mcts_matches(
        space, partial(simulator, program), 1, _budgets(space, case),
        plain=True,
    )


@pytest.mark.parametrize("case", CASES)
def test_family_beam_matches_reference(case):
    program, space = _case(case)
    evaluators = partial(simulator, program)
    assert_beam_matches(space, evaluators, 60, width=4, seed=2)
    assert_beam_matches(
        space, evaluators, 90, width=8, rollouts_per_candidate=2, seed=5
    )


# -- guided ------------------------------------------------------------------------
GUIDED = ("halo3d-x", "spmv", "layered_random", "wavefront")

#: The machine preset the advisor store was trained for.
STORE_MACHINE = "perlmutter-like"


@pytest.fixture(scope="module")
def guided(trained_store):
    """(program, space, guide) per guided case, from the advisor store."""
    out = {}
    for case in GUIDED:
        program, space = _case(case)
        guide = ScheduleGuide.from_store(
            trained_store, program, machine=STORE_MACHINE
        )
        out[case] = program, space, guide
    return out


@pytest.mark.parametrize("case", GUIDED)
@pytest.mark.parametrize("seed", [0, 5])
def test_guided_mcts_matches_reference(guided, case, seed):
    program, space, guide = guided[case]
    assert guide.n_rules > 0
    assert_mcts_matches(
        space, partial(simulator, program), seed, [1, 9, 40], guide=guide
    )


@pytest.mark.parametrize("case", GUIDED)
def test_guided_plain_uct_and_beam_match_reference(guided, case):
    program, space, guide = guided[case]
    evaluators = partial(simulator, program)
    assert_mcts_matches(space, evaluators, 2, [1, 9, 40], guide=guide, plain=True)
    assert_beam_matches(space, evaluators, 48, guide=guide, width=4, seed=2)


# -- Hypothesis DAGs ---------------------------------------------------------------
STREAMS = st.integers(min_value=1, max_value=3)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
BUDGETS = st.lists(st.integers(min_value=1, max_value=80), min_size=1, max_size=4)


@given(programs(), STREAMS, SEEDS, BUDGETS, st.booleans())
@settings(max_examples=60, deadline=None)
def test_hypothesis_mcts_matches_reference(program, n_streams, seed, budgets, plain):
    space = DesignSpace(program, n_streams=n_streams)
    assert_mcts_matches(space, KeyedTimes, seed, budgets, plain=plain)


@given(programs(), STREAMS, SEEDS, st.integers(1, 40), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_hypothesis_beam_matches_reference(program, n_streams, seed, budget, width):
    space = DesignSpace(program, n_streams=n_streams)
    assert_beam_matches(space, KeyedTimes, budget, width=width, seed=seed)


# -- continuation: successive runs on one tree --------------------------------------
def assert_continues(space, evaluators, seed, splits, guide=None, plain=False):
    """Runs of each budget in ``splits``, one after the other on one
    search, against one fresh search's run of their sum."""
    cls = PlainUctMcts if plain else MctsSearch
    config = MctsConfig(seed=seed)
    with recording(MctsNode) as whole_nodes:
        whole = cls(space, evaluators(), config, guide=guide)
        want = whole.run(sum(splits))
    with recording(MctsNode) as split_nodes:
        split = cls(space, evaluators(), config, guide=guide)
        runs = [split.run(budget) for budget in splits]
    assert [s for run in runs for s in samples(run)] == samples(want)
    assert sum(run.n_iterations for run in runs) == want.n_iterations
    assert sum(run.n_simulations for run in runs) == want.n_simulations
    assert split.tree_size() == whole.tree_size() == len(whole_nodes)
    assert node_stats(split_nodes) == node_stats(whole_nodes)
    assert split.root.fully_explored == whole.root.fully_explored
    assert split.rng.bit_generator.state == whole.rng.bit_generator.state
    return whole


SPLITS = st.lists(st.integers(min_value=1, max_value=60), min_size=2, max_size=4)


@pytest.mark.parametrize("case", CASES)
@given(splits=SPLITS, seed=st.integers(0, 3), plain=st.booleans())
@settings(max_examples=4, deadline=None)
def test_family_runs_continue_one_tree(case, splits, seed, plain):
    program, space = _case(case)
    assert_continues(space, partial(simulator, program), seed, splits, plain=plain)


@pytest.mark.parametrize("plain", [False, True])
def test_runs_continue_past_full_exploration(plain):
    for case, splits in (("wavefront", [3, 20, 5]), ("spmv", [1, 139, 400, 7])):
        program, space = _case(case)
        whole = assert_continues(
            space, partial(simulator, program), 2, splits, plain=plain
        )
        assert whole.root.fully_explored
        assert whole.root.n_rollouts == space.count() < sum(splits)


@pytest.mark.parametrize("case", GUIDED)
@given(splits=SPLITS, seed=st.integers(0, 5), plain=st.booleans())
@settings(max_examples=3, deadline=None)
def test_guided_runs_continue_one_tree(guided, case, splits, seed, plain):
    program, space, guide = guided[case]
    assert_continues(
        space, partial(simulator, program), seed, splits, guide=guide,
        plain=plain,
    )


@given(
    programs(),
    STREAMS,
    SEEDS,
    st.lists(st.integers(min_value=1, max_value=80), min_size=2, max_size=4),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_hypothesis_runs_continue_one_tree(program, n_streams, seed, splits, plain):
    space = DesignSpace(program, n_streams=n_streams)
    assert_continues(space, KeyedTimes, seed, splits, plain=plain)


# -- the invariant selection relies on ----------------------------------------------
def assert_invariant(root: MctsNode) -> None:
    """No node has a child without rollouts, and a node is marked fully
    explored exactly when it is terminal or every action has a fully
    explored child."""
    stack = [root]
    while stack:
        node = stack.pop()
        children = node.children
        assert all(ch.n_rollouts > 0 for ch in children.values())
        assert all(0 <= i < len(node.actions) for i in children)
        expected = node.is_terminal or (
            len(children) == len(node.actions)
            and all(ch.fully_explored for ch in children.values())
        )
        assert node.fully_explored == expected
        stack.extend(children.values())


@given(programs(), STREAMS, SEEDS, st.booleans())
@settings(max_examples=40, deadline=None)
def test_invariant_holds_after_every_iteration(program, n_streams, seed, plain):
    space = DesignSpace(program, n_streams=n_streams)
    cls = PlainUctMcts if plain else MctsSearch
    search = cls(space, KeyedTimes(), MctsConfig(seed=seed))
    for _ in range(min(space.count() + 2, 120)):
        search.run(1)
        assert_invariant(search.root)
    assert search.root.fully_explored == (space.count() <= 120)


def test_invariant_on_spmv_through_full_exploration(spmv_space, spmv_benchmarker):
    search = MctsSearch(spmv_space, spmv_benchmarker, MctsConfig(seed=4))
    while not search.root.fully_explored:
        search.run(1)
        assert_invariant(search.root)
    assert search.root.n_rollouts == spmv_space.count()
