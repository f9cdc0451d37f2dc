"""The count-table split scorer against the per-threshold loop it replaced.

``ReferenceGrowth`` is the growth before the count table: each node's
weighted counts and each side of each threshold summed with ``np.add.at``,
one ``_impurity`` call per side, ``x <= threshold`` partitions.  Its only
change is the midpoint rule (``a/2 + b/2`` in float64, or ``a`` when that
is ``b`` or infinite).  The live scorer must pick the same split at every
leaf (gain bit pattern, feature, threshold) and give the same trees,
traces and training errors, bit for bit.
"""

import heapq
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ml.hyperparam as hyperparam
from repro.ml.hyperparam import search_tree_size
from repro.ml.tree import DecisionTree, TreeConfig, TreeGrowth, TreeNode


def reference_impurity(weighted_counts, criterion):
    total = weighted_counts.sum()
    if total <= 0:
        return 0.0
    p = weighted_counts / total
    if criterion == "gini":
        return float(1.0 - np.sum(p * p))
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def reference_weights(y, n_classes, class_weight):
    if class_weight is None:
        return np.ones(len(y))
    counts = np.bincount(y, minlength=n_classes).astype(float)
    nonzero = counts > 0
    class_w = np.zeros(n_classes)
    class_w[nonzero] = len(y) / (nonzero.sum() * counts[nonzero])
    return class_w[y]


def midpoints(values):
    """Thresholds between consecutive distinct values."""
    a = values[:-1].astype(float)
    b = values[1:].astype(float)
    t = a / 2.0 + b / 2.0
    return np.where((t == b) | np.isinf(t), a, t)


def reference_best_split(x, y, weights, n_classes, indices, weighted_counts, crit):
    """``(gain, feature, threshold)`` of the leaf's best split, or None."""
    parent_imp = reference_impurity(weighted_counts, crit)
    w_total = weighted_counts.sum()
    if parent_imp <= 0 or w_total <= 0:
        return None
    best_gain = -1.0
    best = None
    xv = x[indices]
    yv = y[indices]
    wv = weights[indices]
    for f in range(x.shape[1]):
        col = xv[:, f]
        values = np.unique(col)
        if len(values) < 2:
            continue
        for thr in midpoints(values):
            mask = col <= thr
            wl = np.zeros(n_classes)
            wr = np.zeros(n_classes)
            np.add.at(wl, yv[mask], wv[mask])
            np.add.at(wr, yv[~mask], wv[~mask])
            sl, sr = wl.sum(), wr.sum()
            if sl <= 0 or sr <= 0:
                continue
            child_imp = (
                sl * reference_impurity(wl, crit) + sr * reference_impurity(wr, crit)
            ) / w_total
            gain = (w_total / w_total) * (parent_imp - child_imp)
            if gain > best_gain + 1e-15:
                best_gain = gain
                best = (f, float(thr))
    if best is None:
        return None
    return float(best_gain), best[0], best[1]


def reference_node_counts(growth, indices):
    wc = np.zeros(growth.n_classes)
    np.add.at(wc, growth.y[indices], growth.weights[indices])
    return wc


class ReferenceGrowth(TreeGrowth):
    """The growth with the per-threshold scorer; ``build`` and ``grow_to``
    are the live ones."""

    def __init__(self, x, y, config):
        self.config = config
        self.x = np.asarray(x)
        self.y = np.asarray(y, dtype=int)
        self.n_classes = int(self.y.max()) + 1
        self.n_features = self.x.shape[1]
        self.weights = reference_weights(self.y, self.n_classes, config.class_weight)
        self.nodes = []
        self.splits = []
        self.depth = 0
        self._misclassified = []
        self._heap = []
        self._tiebreak = 0
        root = np.arange(len(self.y))
        self.misclassified = self._push(self._make_node(root, 0), root)

    def split(self):
        if not self._heap or -self._heap[0][0] < self.config.min_impurity_decrease:
            return False
        _, _, node, idx, feature, threshold = heapq.heappop(self._heap)
        go_left = self.x[idx, feature] <= threshold
        li, ri = idx[go_left], idx[~go_left]
        left = self._make_node(li, node.depth + 1)
        right = self._make_node(ri, node.depth + 1)
        self.splits.append((node.node_id, feature, threshold))
        self.depth = max(self.depth, node.depth + 1)
        self.misclassified += (
            self._push(left, li)
            + self._push(right, ri)
            - self._misclassified[node.node_id]
        )
        return True

    def _make_node(self, indices, depth):
        node = TreeNode(
            len(self.nodes), depth, len(indices), reference_node_counts(self, indices)
        )
        self.nodes.append(node)
        return node

    def _push(self, node, indices):
        wrong = len(indices) - int(
            np.count_nonzero(self.y[indices] == node.predicted_class)
        )
        self._misclassified.append(wrong)
        if (
            self.config.max_depth is None or node.depth < self.config.max_depth
        ) and len(indices) >= 2:
            found = reference_best_split(
                self.x,
                self.y,
                self.weights,
                self.n_classes,
                indices,
                node.weighted_counts,
                self.config.criterion,
            )
            if found is not None:
                gain, feature, threshold = found
                self._tiebreak += 1
                heapq.heappush(
                    self._heap,
                    (-gain, self._tiebreak, node, indices, feature, threshold),
                )
        return wrong


def split_key(gain, feature, threshold):
    return (float(gain).hex(), feature, float(threshold).hex())


def assert_same_leaf_splits(x, y, config):
    """Grow fully; every scored leaf's weighted counts and best split
    equal the reference's."""
    scored = []

    class Spy(TreeGrowth):
        def _best_split(self, node, indices, class_counts, impurity):
            cand = super()._best_split(node, indices, class_counts, impurity)
            scored.append((node, indices, cand))
            return cand

    growth = Spy(x, y, config)
    growth.grow_to(None)
    ref = ReferenceGrowth(x, y, config)
    assert len(scored) == len(growth.nodes)
    for node, indices, cand in scored:
        expected_counts = reference_node_counts(ref, indices)
        assert node.weighted_counts.tobytes() == expected_counts.tobytes()
        depth_ok = config.max_depth is None or node.depth < config.max_depth
        found = None
        if depth_ok and len(indices) >= 2:
            found = reference_best_split(
                ref.x, ref.y, ref.weights, ref.n_classes, indices,
                expected_counts, config.criterion,
            )
        if found is None:
            assert cand is None
        else:
            assert cand is not None
            assert split_key(-cand.neg_gain, cand.feature, cand.threshold) == (
                split_key(*found)
            )
    return growth


def reference_search(x, y, **kwargs):
    with mock.patch.object(hyperparam, "TreeGrowth", ReferenceGrowth):
        return search_tree_size(x, y, **kwargs)


def tree_json(tree):
    return json.dumps(tree.to_dict())


def assert_same_search(x, y, criterion, class_weight):
    """Algorithm 1 and a full growth give the reference's trees, trace and
    training errors, bit for bit."""
    tree, trace = search_tree_size(x, y, criterion=criterion, class_weight=class_weight)
    ref_tree, ref_trace = reference_search(
        x, y, criterion=criterion, class_weight=class_weight
    )
    assert tree_json(tree) == tree_json(ref_tree)
    assert trace.rows() == ref_trace.rows()
    assert [e.hex() for e in trace.errors] == [e.hex() for e in ref_trace.errors]
    config = TreeConfig(criterion=criterion, class_weight=class_weight)
    full = DecisionTree(config).fit(x, y)
    ref_full = ReferenceGrowth(x, y, config).build(DecisionTree(config))
    assert tree_json(full) == tree_json(ref_full)


@st.composite
def labeled_data(draw):
    """Binary, small-integer (uint8 up to 255 or int64) or float features,
    sometimes with a duplicated column; 2-10 classes from a hidden rule on
    the first columns plus relabeling noise."""
    n = draw(st.integers(min_value=2, max_value=80))
    f = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=2, max_value=10))
    kind = draw(st.sampled_from(["binary", "uint8", "int", "float", "float-pool"]))
    noise = draw(st.sampled_from([0.0, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "binary":
        x = rng.integers(0, 2, size=(n, f)).astype(np.uint8)
    elif kind == "uint8":
        x = rng.integers(0, 256, size=(n, f)).astype(np.uint8)
    elif kind == "int":
        x = rng.integers(-3, 4, size=(n, f))
    elif kind == "float":
        x = rng.normal(size=(n, f)) * 10.0 ** rng.integers(-3, 4)
    else:
        x = rng.choice(rng.normal(size=int(rng.integers(2, 8))), size=(n, f))
    if f > 1 and draw(st.booleans()):
        x[:, -1] = x[:, 0]
    above = (x[:, : min(f, 2)] > np.median(x[:, : min(f, 2)], axis=0)).astype(int)
    y = rng.integers(0, k, size=4)[above @ (1 << np.arange(above.shape[1]))]
    relabel = rng.random(n) < noise
    y = np.where(relabel, rng.integers(0, k, size=n), y)
    return x, y


CRITERIA = st.sampled_from(["gini", "entropy"])
WEIGHTS = st.sampled_from(["balanced", None])


class TestMatchesReference:
    @given(labeled_data(), CRITERIA, WEIGHTS)
    @settings(max_examples=120, deadline=None)
    def test_every_leaf(self, data, criterion, class_weight):
        x, y = data
        assert_same_leaf_splits(
            x, y, TreeConfig(criterion=criterion, class_weight=class_weight)
        )

    @given(labeled_data(), CRITERIA, WEIGHTS)
    @settings(max_examples=120, deadline=None)
    def test_every_run(self, data, criterion, class_weight):
        x, y = data
        assert_same_search(x, y, criterion, class_weight)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_spmv_full_space(self, spmv_exhaustive, criterion):
        from repro.ml.features import FeatureExtractor
        from repro.ml.labeling import label_by_performance

        lab = label_by_performance(spmv_exhaustive.times())
        fm = FeatureExtractor().fit_transform(spmv_exhaustive.schedules())
        assert fm.matrix.dtype == np.uint8
        assert_same_leaf_splits(fm.matrix, lab.labels, TreeConfig(criterion=criterion))
        assert_same_search(fm.matrix, lab.labels, criterion, "balanced")

    def test_depth_cap(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 4, size=(60, 3))
        y = rng.integers(0, 3, size=60)
        growth = assert_same_leaf_splits(x, y, TreeConfig(max_depth=2))
        assert growth.depth == 2


class TestFixedCases:
    def test_near_tie_keeps_first_feature(self):
        """At the root, feature 1's gain beats feature 0's by less than
        1e-15: the scan keeps feature 0, where ``argmax`` would not."""
        x = np.array(
            [
                [0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 1, 1, 0, 1],
                [0, 1, 1, 1, 1, 0, 0, 0, 1, 0],
            ],
            dtype=np.uint8,
        ).T
        y = np.array([1, 1, 1, 1, 1, 1, 1, 0, 0, 1])
        ref = ReferenceGrowth(x, y, TreeConfig())
        root = np.arange(len(y))
        gains = [
            reference_best_split(
                x[:, [f]], y, ref.weights, 2, root, ref.nodes[0].weighted_counts, "gini"
            )[0]
            for f in range(3)
        ]
        assert 0 < gains[1] - gains[0] < 1e-15
        assert int(np.argmax(gains)) != 0
        growth = assert_same_leaf_splits(x, y, TreeConfig())
        assert growth.splits[0][1] == 0
        assert_same_search(x, y, "gini", "balanced")

    def test_weighted_counts_are_sequential_sums(self):
        """Class 1 weighs 9/14 under ``balanced``; six such rows summed one
        at a time are not six times the weight, and the left child holds
        six."""
        x = np.array([[0]] * 8 + [[1]], dtype=np.uint8)
        y = np.array([0, 0, 1, 1, 1, 1, 1, 1, 1])
        w = 9 / 14
        assert sum([w] * 6) != 6 * w
        growth = assert_same_leaf_splits(x, y, TreeConfig())
        assert growth.nodes[1].n_samples == 8
        assert_same_search(x, y, "gini", "balanced")

    @pytest.mark.parametrize("n_classes", [8, 9, 10])
    def test_many_classes_entropy(self, n_classes):
        """From 8 terms on, numpy sums pairwise, so each row's zero
        entropy terms must be left out, as the reference leaves them out."""
        rng = np.random.default_rng(n_classes)
        x = rng.integers(0, 3, size=(90, 4))
        y = rng.integers(0, n_classes, size=90)
        assert_same_leaf_splits(x, y, TreeConfig(criterion="entropy"))
        assert_same_search(x, y, "entropy", "balanced")
        assert_same_search(x, y, "entropy", None)


class TestMidpoints:
    """Each case made a wrong tree with ``(a + b) / 2`` in the column's
    dtype."""

    def test_uint8_values_do_not_wrap(self):
        x = np.array([[100], [100], [200], [200]], dtype=np.uint8)
        y = np.array([0, 0, 1, 1])
        tree = DecisionTree().fit(x, y)
        assert tree.n_leaves == 2
        assert tree.root.threshold == 150.0
        assert tree.predict(x).tolist() == [0, 0, 1, 1]
        assert_same_search(x, y, "gini", "balanced")

    def test_threshold_never_rounds_onto_upper_value(self):
        """``a/2 + b/2`` rounds onto ``b`` here, so the threshold is ``a``."""
        a, b = 1 + 2**-52, 1 + 2**-51
        x = np.array([[a], [b], [3.0]])
        y = np.array([0, 1, 1])
        assert a / 2 + b / 2 == b
        tree = DecisionTree().fit(x, y)
        assert tree.root.threshold == a
        assert tree.predict(x).tolist() == [0, 1, 1]
        assert_same_leaf_splits(x, y, TreeConfig())

    def test_midpoint_cannot_overflow(self):
        x = np.array([[1e308], [1.5e308], [1e308]])
        y = np.array([0, 1, 0])
        tree = DecisionTree().fit(x, y)
        assert tree.n_leaves == 2
        assert tree.root.threshold == 1.25e308
        assert tree.predict(x).tolist() == [0, 1, 0]
        assert_same_search(x, y, "gini", "balanced")
