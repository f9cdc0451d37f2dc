"""Tests for the from-scratch CART decision tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TrainingError
from repro.ml.metrics import training_error
from repro.ml.tree import DecisionTree, TreeConfig, _impurity


class TestImpurity:
    def test_pure_zero(self):
        assert _impurity(np.array([10.0, 0.0]), "gini") == 0.0
        assert _impurity(np.array([10.0, 0.0]), "entropy") == 0.0

    def test_uniform_max(self):
        assert _impurity(np.array([5.0, 5.0]), "gini") == pytest.approx(0.5)
        assert _impurity(np.array([5.0, 5.0]), "entropy") == pytest.approx(1.0)

    def test_empty_zero(self):
        assert _impurity(np.zeros(3), "gini") == 0.0


class TestConfigValidation:
    def test_bad_criterion(self):
        with pytest.raises(TrainingError):
            TreeConfig(criterion="mse")

    def test_bad_leaf_count(self):
        with pytest.raises(TrainingError):
            TreeConfig(max_leaf_nodes=1)

    def test_bad_class_weight(self):
        with pytest.raises(TrainingError):
            TreeConfig(class_weight="magic")


def xor_data():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 10, dtype=np.uint8)
    y = np.array([a ^ b for a, b in x], dtype=int)
    return x, y


class TestFitPredict:
    def test_single_feature_split(self):
        x = np.array([[0], [0], [1], [1]], dtype=np.uint8)
        y = np.array([0, 0, 1, 1])
        t = DecisionTree().fit(x, y)
        assert t.n_leaves == 2
        assert t.predict(x).tolist() == [0, 0, 1, 1]

    def test_xor_needs_three_leaves(self):
        x, y = xor_data()
        t = DecisionTree(TreeConfig(max_leaf_nodes=4)).fit(x, y)
        assert training_error(t, x, y) == 0.0
        assert t.n_leaves >= 3

    def test_max_leaf_nodes_respected(self):
        x, y = xor_data()
        t = DecisionTree(TreeConfig(max_leaf_nodes=2)).fit(x, y)
        assert t.n_leaves == 2

    def test_max_depth_respected(self):
        x, y = xor_data()
        t = DecisionTree(TreeConfig(max_depth=1)).fit(x, y)
        assert t.depth <= 1

    def test_pure_data_single_leaf(self):
        x = np.zeros((10, 3), dtype=np.uint8)
        y = np.zeros(10, dtype=int)
        t = DecisionTree().fit(x, y)
        assert t.n_leaves == 1
        assert t.predict(x).tolist() == [0] * 10

    def test_unfitted_predict_rejected(self):
        with pytest.raises(TrainingError):
            DecisionTree().predict(np.zeros((1, 1)))

    def test_input_validation(self):
        with pytest.raises(TrainingError):
            DecisionTree().fit(np.zeros(3), np.zeros(3))
        with pytest.raises(TrainingError):
            DecisionTree().fit(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(TrainingError):
            DecisionTree().fit(np.zeros((0, 1)), np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, bad):
        """No threshold separates a number from NaN, and none from inf."""
        x = np.array([[0.0], [1.0], [bad], [2.0]])
        with pytest.raises(TrainingError, match="finite"):
            DecisionTree().fit(x, np.array([0, 1, 1, 0]))

    def test_rejects_negative_labels(self):
        with pytest.raises(TrainingError, match="non-negative"):
            DecisionTree().fit(np.zeros((3, 1)), np.array([0, -1, 1]))

    def test_rejects_non_integral_labels(self):
        """0.6, 0.2, 1.9, 1.1 would otherwise train as classes 0, 0, 1, 1."""
        x = np.array([[0], [0], [1], [1]])
        with pytest.raises(TrainingError, match="integers"):
            DecisionTree().fit(x, np.array([0.6, 0.2, 1.9, 1.1]))
        with pytest.raises(TrainingError, match="integers"):
            DecisionTree().fit(x, np.array([0.0, np.nan, 1.0, 1.0]))

    def test_accepts_integral_float_labels(self):
        x = np.array([[0], [0], [1], [1]])
        tree = DecisionTree().fit(x, np.array([0.0, 0.0, 1.0, 1.0]))
        assert tree.predict(x).tolist() == [0, 0, 1, 1]
        assert DecisionTree().fit(np.zeros((3, 1)), np.zeros(3)).n_leaves == 1

    def test_numeric_threshold_split(self):
        """Non-binary features split at value midpoints."""
        x = np.array([[1.0], [2.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        t = DecisionTree().fit(x, y)
        assert t.predict(np.array([[5.0]])).tolist() == [0]
        assert t.predict(np.array([[9.0]])).tolist() == [1]


class TestBalancedWeights:
    def test_minority_class_not_swamped(self):
        """95/5 imbalance: with balanced weights the minority class is
        predicted on its own side of a perfect split."""
        x = np.array([[0]] * 95 + [[1]] * 5, dtype=np.uint8)
        y = np.array([0] * 95 + [1] * 5)
        t = DecisionTree(TreeConfig(class_weight="balanced")).fit(x, y)
        assert t.predict(np.array([[1]], dtype=np.uint8)).tolist() == [1]

    def test_root_proportions_balanced(self):
        x = np.array([[0]] * 90 + [[1]] * 10, dtype=np.uint8)
        y = np.array([0] * 90 + [1] * 10)
        t = DecisionTree(TreeConfig(class_weight="balanced")).fit(x, y)
        # Weighted root proportions are ~50/50 regardless of raw imbalance
        # (this is why the paper's Fig. 6 root shows 33.3%/33.3%/33.3%).
        props = t.root.class_proportions()
        assert props[0] == pytest.approx(0.5)
        assert props[1] == pytest.approx(0.5)


class TestStructure:
    def test_paths_cover_all_leaves(self):
        x, y = xor_data()
        t = DecisionTree(TreeConfig(max_leaf_nodes=4)).fit(x, y)
        paths = t.paths()
        assert len(paths) == t.n_leaves
        # Applying each path's conditions reaches its leaf.
        for conds, leaf in paths:
            row = np.zeros(x.shape[1], dtype=np.uint8)
            for f, val in conds:
                row[f] = 1 if val else 0
            assert t.apply(row[None, :])[0] == leaf.node_id

    def test_render_contains_samples_and_classes(self):
        x, y = xor_data()
        t = DecisionTree(TreeConfig(max_leaf_nodes=3)).fit(x, y)
        out = t.render(feature_names=["f0 is one", "f1 is one"])
        assert "samples=" in out
        assert "classes=[" in out
        assert "f0 is one" in out or "f1 is one" in out

    def test_leaf_count_consistency(self):
        x, y = xor_data()
        t = DecisionTree(TreeConfig(max_leaf_nodes=4)).fit(x, y)
        assert len(t.leaves()) == t.n_leaves
        assert sum(leaf.n_samples for leaf in t.leaves()) == len(y)


def walk_to_leaves(tree, x):
    """Reference lookup: walk the tree row by row."""
    out = []
    for row in np.asarray(x):
        node = tree.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out.append(node)
    return out


def assert_lookup_matches_walk(tree, x):
    leaves = walk_to_leaves(tree, x)
    pred = tree.predict(x)
    assert pred.dtype == int
    assert pred.tolist() == [n.predicted_class for n in leaves]
    assert tree.apply(x).tolist() == [n.node_id for n in leaves]
    proba = tree.predict_proba(x)
    assert proba.shape == (len(leaves), tree.n_classes)
    for got, leaf in zip(proba, leaves):
        assert got.tolist() == leaf.class_proportions().tolist()


class TestLeafLookup:
    """predict / apply / predict_proba share one vectorized lookup; each
    must agree with the per-row walk."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(min_value=1, max_value=5),
        st.sampled_from([None, 2, 5, 12]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_trees(self, seed, f, mln):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, size=(60, f)).astype(np.uint8)
        y = rng.integers(0, 3, size=60)
        tree = DecisionTree(TreeConfig(max_leaf_nodes=mln)).fit(x, y)
        assert_lookup_matches_walk(tree, x)
        assert_lookup_matches_walk(tree, rng.integers(0, 2, size=(30, f)))

    def test_numeric_thresholds(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 20, size=(80, 2)).astype(float)
        y = (x[:, 0] > 7).astype(int) + (x[:, 1] > 12).astype(int)
        tree = DecisionTree().fit(x, y)
        assert tree.n_leaves >= 3
        # Every threshold itself, and values just either side of it.
        values = [
            n.threshold + d
            for n in tree.nodes()
            if not n.is_leaf
            for d in (-0.5, 0.0, 0.5)
        ]
        probes = np.array([[a, b] for a in values for b in values])
        assert_lookup_matches_walk(tree, probes)
        assert_lookup_matches_walk(tree, x)

    def test_zero_rows(self):
        x, y = xor_data()
        tree = DecisionTree(TreeConfig(max_leaf_nodes=4)).fit(x, y)
        assert_lookup_matches_walk(tree, np.zeros((0, 2)))

    def test_single_leaf_tree(self):
        tree = DecisionTree().fit(np.zeros((10, 3)), np.zeros(10, dtype=int))
        assert tree.n_leaves == 1
        assert_lookup_matches_walk(tree, np.ones((5, 3)))

    def test_from_dict_tree(self):
        x, y = xor_data()
        tree = DecisionTree(TreeConfig(max_leaf_nodes=4)).fit(x, y)
        restored = DecisionTree.from_dict(tree.to_dict())
        assert_lookup_matches_walk(restored, x)
        assert restored.predict_proba(x).tolist() == tree.predict_proba(x).tolist()

    @pytest.mark.parametrize("method", ["predict", "apply", "predict_proba"])
    def test_rejects_x_of_wrong_shape(self, method):
        """1-D x on a single-leaf tree and on a split tree, and 7 columns
        on a 3-feature tree."""
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=(40, 3))
        split = DecisionTree().fit(x, x[:, 0] ^ x[:, 2])
        single = DecisionTree().fit(x, np.zeros(40, dtype=int))
        assert single.n_leaves == 1 and split.n_leaves > 1
        for tree, bad in (
            (single, np.zeros(5)),
            (split, np.zeros(3)),
            (split, np.zeros((4, 7))),
        ):
            with pytest.raises(TrainingError):
                getattr(tree, method)(bad)
