"""Tests for the paper's MCTS (selection values, phases, termination)."""

import math

import pytest

from repro.search.mcts import MctsConfig, MctsNode, MctsSearch


@pytest.fixture()
def mcts(spmv_space, spmv_benchmarker):
    return MctsSearch(spmv_space, spmv_benchmarker, MctsConfig(seed=0))


class TestValueTerms:
    def _tree(self, spmv_space):
        root = MctsNode(None, None, spmv_space.initial_state())
        child = root.child_at(0)
        return root, child

    def test_exploration_matches_formula(self, spmv_space):
        root, child = self._tree(spmv_space)
        root.n_rollouts = 10
        child.n_rollouts = 4
        c = math.sqrt(2)
        assert child.exploration_value(c) == pytest.approx(
            c * math.sqrt(math.log(10) / 4)
        )

    def test_exploration_infinite_for_unvisited(self, spmv_space):
        _, child = self._tree(spmv_space)
        assert child.exploration_value(1.0) == math.inf

    def test_exploration_neg_inf_when_fully_explored(self, spmv_space):
        root, child = self._tree(spmv_space)
        root.n_rollouts = child.n_rollouts = 5
        child.fully_explored = True
        assert child.exploration_value(1.0) == -math.inf

    def test_exploitation_coverage_ratio(self, spmv_space):
        root, child = self._tree(spmv_space)
        root.n_rollouts = child.n_rollouts = 3
        root.t_min, root.t_max = 1.0, 5.0
        child.t_min, child.t_max = 2.0, 4.0
        assert child.exploitation_value() == pytest.approx(0.5)

    def test_exploitation_default_one_below_two_rollouts(self, spmv_space):
        root, child = self._tree(spmv_space)
        root.n_rollouts = 5
        child.n_rollouts = 1
        child.t_min = child.t_max = 1.0
        assert child.exploitation_value() == 1.0

    def test_exploitation_bounded(self, spmv_space):
        """0 <= V <= 1 since child range is inside parent range."""
        root, child = self._tree(spmv_space)
        root.n_rollouts = child.n_rollouts = 4
        root.t_min, root.t_max = 1.0, 3.0
        child.t_min, child.t_max = 1.0, 3.0
        assert 0.0 <= child.exploitation_value() <= 1.0


class TestSearch:
    def test_iterations_produce_samples(self, mcts):
        result = mcts.run(50)
        assert result.n_iterations == 50
        assert len(result) == 50
        assert all(s.time > 0 for s in result.samples)

    def test_samples_are_valid_schedules(self, mcts, spmv_space):
        result = mcts.run(30)
        for sample in result.samples:
            spmv_space.validate_schedule(sample.schedule)

    def test_deterministic_for_seed(self, spmv_space, spmv_benchmarker):
        r1 = MctsSearch(spmv_space, spmv_benchmarker, MctsConfig(seed=7)).run(40)
        r2 = MctsSearch(spmv_space, spmv_benchmarker, MctsConfig(seed=7)).run(40)
        assert [s.schedule for s in r1.samples] == [
            s.schedule for s in r2.samples
        ]

    def test_different_seeds_explore_differently(self, spmv_space, spmv_benchmarker):
        r1 = MctsSearch(spmv_space, spmv_benchmarker, MctsConfig(seed=1)).run(30)
        r2 = MctsSearch(spmv_space, spmv_benchmarker, MctsConfig(seed=2)).run(30)
        assert [s.schedule for s in r1.samples] != [
            s.schedule for s in r2.samples
        ]

    def test_full_exploration_terminates(self, spmv_space, spmv_benchmarker):
        """Running past the space size marks the root fully explored and
        the search stops issuing iterations."""
        search = MctsSearch(spmv_space, spmv_benchmarker, MctsConfig(seed=0))
        result = search.run(5000)
        assert search.root.fully_explored
        assert result.n_iterations <= 5000
        assert search.benchmarker.n_unique_schedules == spmv_space.count()

    def test_backprop_ranges_contain_children(self, mcts):
        mcts.run(80)
        root = mcts.root

        def check(node):
            for ch in node.children.values():
                if ch.n_rollouts:
                    assert node.t_min <= ch.t_min
                    assert node.t_max >= ch.t_max
                    check(ch)

        check(root)
        assert root.n_rollouts == 80

    def test_rollout_counts_sum(self, mcts):
        mcts.run(60)
        # Every rollout passes through exactly one root child.
        total = sum(ch.n_rollouts for ch in mcts.root.children.values())
        assert total == 60

    def test_tree_grows_with_rollouts(self, mcts):
        mcts.run(10)
        small = mcts.tree_size()
        mcts.run(40)
        assert mcts.tree_size() > small

    def test_best_found_is_reasonable(self, spmv_space, spmv_benchmarker, spmv_exhaustive):
        """MCTS at ~40% budget should find within 3% of the true optimum."""
        search = MctsSearch(spmv_space, spmv_benchmarker, MctsConfig(seed=0))
        result = search.run(int(spmv_space.count() * 0.4))
        true_best = spmv_exhaustive.best().time
        assert result.best().time <= true_best * 1.03
