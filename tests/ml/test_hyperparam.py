"""Tests for Algorithm 1 (tree-size search)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.hyperparam import HyperparamTrace, search_tree_size
from repro.ml.metrics import training_error
from repro.ml.tree import DecisionTree, TreeConfig


def reference_search_tree_size(
    x, y, *, criterion="gini", class_weight="balanced", patience=5
):
    """Algorithm 1 as the paper runs it: train a fresh tree at every size
    and measure its error with ``predict``."""
    trace = HyperparamTrace()

    def train(mln):
        clf = DecisionTree(
            TreeConfig(
                criterion=criterion,
                class_weight=class_weight,
                max_leaf_nodes=mln,
                max_depth=mln - 1,
            )
        ).fit(x, y)
        err = training_error(clf, x, y)
        trace.record(mln, err, clf.depth)
        return err, clf

    mln = 2
    err = np.inf
    cur, clf = train(mln)
    while cur < err:
        err = cur
        for i in range(1, patience + 1):
            cur, nclf = train(mln + i)
            if cur < err:
                clf = nclf
                mln = mln + i
                break
    return clf, trace


def assert_matches_reference(x, y, **kwargs):
    """Same tree and the same trace, floats compared exactly."""
    tree, trace = search_tree_size(x, y, **kwargs)
    ref_tree, ref_trace = reference_search_tree_size(x, y, **kwargs)
    assert trace.rows() == ref_trace.rows()
    assert [e.hex() for e in trace.errors] == [e.hex() for e in ref_trace.errors]
    assert tree.to_dict() == ref_tree.to_dict()
    return tree, trace


def make_data(seed=0, n=200, f=6, k=3):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(n, f)).astype(np.uint8)
    # Labels from a hidden depth-3 rule + noise-free mapping.
    y = (x[:, 0] * 2 + (x[:, 1] & x[:, 2])).astype(int) % k
    return x, y


class TestAlgorithm1:
    def test_starts_at_two_leaves(self):
        x, y = make_data()
        _, trace = search_tree_size(x, y)
        assert trace.leaf_nodes[0] == 2

    def test_chosen_error_is_trace_minimum(self):
        x, y = make_data()
        clf, trace = search_tree_size(x, y)
        assert training_error(clf, x, y) == pytest.approx(min(trace.errors))

    def test_max_depth_bound_is_leaves_minus_one(self):
        x, y = make_data()
        clf, trace = search_tree_size(x, y)
        for mln, depth in zip(trace.leaf_nodes, trace.depths):
            assert depth <= mln - 1

    def test_stops_after_patience_without_improvement(self):
        """Once error stops shrinking, at most `patience` more sizes are
        tried past the accepted one."""
        x, y = make_data()
        _, trace = search_tree_size(x, y, patience=5)
        best = min(trace.errors)
        best_at = trace.errors.index(best)
        assert len(trace.errors) - 1 - best_at <= 5

    def test_separable_data_reaches_zero(self):
        x, y = make_data()
        clf, trace = search_tree_size(x, y)
        assert min(trace.errors) == 0.0

    def test_entropy_criterion_works(self):
        x, y = make_data()
        clf, _ = search_tree_size(x, y, criterion="entropy")
        assert training_error(clf, x, y) == 0.0

    def test_trace_rows(self):
        x, y = make_data()
        _, trace = search_tree_size(x, y)
        rows = trace.rows()
        assert len(rows) == len(trace.leaf_nodes)
        assert all(len(r) == 3 for r in rows)

    def test_spmv_full_space(self, spmv_exhaustive):
        """On the real SpMV labels the search reaches zero training error
        with a small tree (paper: 13 leaves, depth 6)."""
        from repro.ml.features import FeatureExtractor
        from repro.ml.labeling import label_by_performance

        lab = label_by_performance(spmv_exhaustive.times())
        fm = FeatureExtractor().fit_transform(spmv_exhaustive.schedules())
        clf, trace = search_tree_size(fm.matrix, lab.labels)
        assert training_error(clf, fm.matrix, lab.labels) <= 0.02
        assert clf.n_leaves <= 25


@st.composite
def labeled_binary_data(draw):
    """Binary features; labels follow a hidden rule on up to three
    features, with some rows relabeled at random (which also makes
    identical rows with different labels)."""
    n = draw(st.integers(min_value=4, max_value=300))
    f = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=2, max_value=4))
    noise = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, 2, size=(n, f)).astype(np.uint8)
    table = rng.integers(0, k, size=8)
    y = table[x[:, :3] @ (1 << np.arange(min(f, 3)))]
    relabel = rng.random(n) < noise
    return x, np.where(relabel, rng.integers(0, k, size=n), y)


class TestMatchesRetraining:
    """One growth gives exactly what retraining at every size gives."""

    @given(
        labeled_binary_data(),
        st.sampled_from(["gini", "entropy"]),
        st.sampled_from(["balanced", None]),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_data(self, data, criterion, class_weight, patience):
        x, y = data
        assert_matches_reference(
            x, y, criterion=criterion, class_weight=class_weight, patience=patience
        )

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_spmv_full_space(self, spmv_exhaustive, criterion):
        from repro.ml.features import FeatureExtractor
        from repro.ml.labeling import label_by_performance

        lab = label_by_performance(spmv_exhaustive.times())
        fm = FeatureExtractor().fit_transform(spmv_exhaustive.schedules())
        assert_matches_reference(fm.matrix, lab.labels, criterion=criterion)

    def test_pure_labels_never_split(self):
        x = np.random.default_rng(0).integers(0, 2, size=(20, 3)).astype(np.uint8)
        tree, trace = assert_matches_reference(x, np.zeros(20, dtype=int))
        assert tree.n_leaves == 1
        assert trace.leaf_nodes == [2, 3, 4, 5, 6, 7]
        assert trace.errors == [0.0] * 6

    def test_growth_runs_out_inside_patience_window(self):
        """Conflicting duplicate rows: no tree has fewer than 1/16 error,
        and no leaf can be split past four leaves, so the sizes after the
        accepted one repeat the last split's tree until the patience
        window is spent."""
        x = np.array([[0, 0]] * 4 + [[0, 1]] * 4 + [[1, 0]] * 4 + [[1, 1]] * 4)
        y = np.array([0] * 4 + [1] * 4 + [2] * 4 + [2, 2, 2, 0])
        assert DecisionTree().fit(x, y).n_leaves == 4
        tree, trace = assert_matches_reference(x, y, patience=3)
        assert tree.n_leaves == 3
        assert trace.leaf_nodes == [2, 3, 4, 5, 6]
        assert trace.errors[1:] == [1 / 16] * 4

    def test_xor_first_split_has_zero_gain(self):
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 10, dtype=np.uint8)
        y = x[:, 0] ^ x[:, 1]
        tree, trace = assert_matches_reference(x, y)
        assert trace.errors[:3] == [0.5, 0.25, 0.0]
        assert tree.n_leaves == 4
