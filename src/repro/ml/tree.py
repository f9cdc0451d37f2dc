"""CART decision tree, from scratch (paper §IV-C, Table IV).

The paper trains scikit-learn's ``DecisionTreeClassifier`` (CART [30]) with
``criterion`` gini or entropy, ``class_weight="balanced"``, and
``max_leaf_nodes`` / ``max_depth`` chosen by Algorithm 1.  scikit-learn is
not installable in this offline environment, so this module implements the
same algorithm:

* impurity: Gini or entropy over *weighted* class frequencies;
* ``class_weight="balanced"``: sample weight
  ``n_samples / (n_classes * count(class))``;
* growth: best-first — repeatedly split the leaf with the greatest
  weighted impurity decrease — which is exactly how scikit-learn grows
  trees when ``max_leaf_nodes`` is set.  :class:`TreeGrowth` makes the
  splits one at a time, so Algorithm 1 (:mod:`repro.ml.hyperparam`) reads
  every tree size off one growth;
* splits: binary tests ``x[f] <= threshold``; for the pipeline's binary
  features the threshold is always 0.5 (left = feature 0, right = 1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError


@dataclass(frozen=True)
class TreeConfig:
    """Training hyperparameters (paper Table IV)."""

    criterion: str = "gini"  # "gini" | "entropy"
    max_leaf_nodes: Optional[int] = None
    max_depth: Optional[int] = None
    class_weight: Optional[str] = "balanced"  # "balanced" | None
    min_impurity_decrease: float = 0.0

    def __post_init__(self) -> None:
        if self.criterion not in ("gini", "entropy"):
            raise TrainingError(f"unknown criterion {self.criterion!r}")
        if self.max_leaf_nodes is not None and self.max_leaf_nodes < 2:
            raise TrainingError("max_leaf_nodes must be >= 2")
        if self.class_weight not in (None, "balanced"):
            raise TrainingError(f"unknown class_weight {self.class_weight!r}")


def _impurity(weighted_counts: np.ndarray, criterion: str) -> float:
    total = weighted_counts.sum()
    if total <= 0:
        return 0.0
    p = weighted_counts / total
    if criterion == "gini":
        return float(1.0 - np.sum(p * p))
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


class TreeNode:
    """One node of the fitted tree."""

    __slots__ = (
        "node_id",
        "depth",
        "feature",
        "threshold",
        "left",
        "right",
        "n_samples",
        "weighted_counts",
    )

    def __init__(
        self,
        node_id: int,
        depth: int,
        n_samples: int,
        weighted_counts: np.ndarray,
    ) -> None:
        self.node_id = node_id
        self.depth = depth
        self.feature: Optional[int] = None
        self.threshold: float = 0.0
        self.left: Optional["TreeNode"] = None
        self.right: Optional["TreeNode"] = None
        self.n_samples = n_samples
        self.weighted_counts = weighted_counts

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def predicted_class(self) -> int:
        return int(np.argmax(self.weighted_counts))

    def class_proportions(self) -> np.ndarray:
        total = self.weighted_counts.sum()
        if total <= 0:
            return np.zeros_like(self.weighted_counts)
        return self.weighted_counts / total


@dataclass(order=True)
class _Candidate:
    """Heap entry: a leaf and its best available split."""

    neg_gain: float
    tiebreak: int
    node: TreeNode = field(compare=False)
    indices: np.ndarray = field(compare=False)
    feature: int = field(compare=False, default=-1)
    threshold: float = field(compare=False, default=0.0)


class TreeGrowth:
    """One best-first growth, advanced a split at a time.

    The heap pops the leaf with the greatest gain, ties going to the leaf
    created first, and node ids follow creation order.  So the first
    ``s`` splits do not depend on how far the growth goes afterwards:
    :meth:`build` can hand out the tree after any prefix of the splits.

    The growth also keeps the unweighted training error of the tree grown
    so far.  Every training row lies in exactly one leaf, and a split
    swaps that leaf's misclassified count for its two children's, so the
    error never needs a ``predict`` pass.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, config: TreeConfig) -> None:
        x = np.asarray(x)
        y = np.asarray(y, dtype=int)
        if x.ndim != 2:
            raise TrainingError("x must be 2-D (n_samples, n_features)")
        if len(x) != len(y):
            raise TrainingError("x and y length mismatch")
        if len(x) == 0:
            raise TrainingError("cannot fit on zero samples")
        self.config = config
        self.x = x
        self.y = y
        self.n_classes = int(y.max()) + 1
        self.n_features = x.shape[1]
        self.weights = self._sample_weights()
        #: Every node made so far, indexed by id; split ``j`` made nodes
        #: ``2j + 1`` (left) and ``2j + 2`` (right).
        self.nodes: List[TreeNode] = []
        #: ``(node id, feature, threshold)`` of each split, in order.
        self.splits: List[Tuple[int, int, float]] = []
        #: Depth of the grown tree.
        self.depth = 0
        #: Misclassified training rows (unweighted) per node id.
        self._misclassified: List[int] = []
        self._heap: List[_Candidate] = []
        self._tiebreak = 0
        root = np.arange(len(y))
        #: Training rows the grown tree misclassifies (unweighted).
        self.misclassified = self._push(self._make_node(root, depth=0), root)

    @property
    def n_leaves(self) -> int:
        return len(self.splits) + 1

    @property
    def error(self) -> float:
        """Misclassification rate of the grown tree on its training rows."""
        return self.misclassified / len(self.y)

    def split(self) -> bool:
        """Make the next split; False once no leaf can be split."""
        # Zero-gain splits are allowed when min_impurity_decrease is 0
        # (matches scikit-learn; required for XOR-style interactions
        # where the first split alone does not reduce impurity).
        if (
            not self._heap
            or -self._heap[0].neg_gain < self.config.min_impurity_decrease
        ):
            return False
        cand = heapq.heappop(self._heap)
        node, idx = cand.node, cand.indices
        go_left = self.x[idx, cand.feature] <= cand.threshold
        li, ri = idx[go_left], idx[~go_left]
        left = self._make_node(li, node.depth + 1)
        right = self._make_node(ri, node.depth + 1)
        self.splits.append((node.node_id, cand.feature, cand.threshold))
        self.depth = max(self.depth, node.depth + 1)
        self.misclassified += (
            self._push(left, li)
            + self._push(right, ri)
            - self._misclassified[node.node_id]
        )
        return True

    def grow_to(self, max_leaf_nodes: Optional[int]) -> None:
        """Split until the tree has ``max_leaf_nodes`` leaves (None: no
        limit) or no leaf can be split."""
        while (
            max_leaf_nodes is None or self.n_leaves < max_leaf_nodes
        ) and self.split():
            pass

    def build(self, tree: "DecisionTree") -> "DecisionTree":
        """Fill ``tree`` with this growth up to ``tree.config``'s leaf
        budget, growing further if needed, and return it.

        ``tree.config`` must equal the growth's config apart from
        ``max_leaf_nodes``; or the growth has no depth cap and the tree's
        is ``max_leaf_nodes - 1``, which cannot bind: a node that deep
        appears only once the tree already has ``max_leaf_nodes`` leaves.
        """
        budget = tree.config.max_leaf_nodes
        self.grow_to(budget)
        n_splits = len(self.splits) if budget is None else min(
            budget - 1, len(self.splits)
        )
        nodes = [
            TreeNode(n.node_id, n.depth, n.n_samples, n.weighted_counts)
            for n in self.nodes[: 2 * n_splits + 1]
        ]
        for j, (node_id, feature, threshold) in enumerate(self.splits[:n_splits]):
            node = nodes[node_id]
            node.feature = feature
            node.threshold = threshold
            node.left = nodes[2 * j + 1]
            node.right = nodes[2 * j + 2]
        tree.n_classes = self.n_classes
        tree.n_features = self.n_features
        tree.n_leaves = n_splits + 1
        tree.depth = max(n.depth for n in nodes)
        tree.root = nodes[0]
        return tree

    # ------------------------------------------------------------------
    def _sample_weights(self) -> np.ndarray:
        y = self.y
        if self.config.class_weight is None:
            return np.ones(len(y))
        counts = np.bincount(y, minlength=self.n_classes).astype(float)
        nonzero = counts > 0
        class_w = np.zeros(self.n_classes)
        class_w[nonzero] = len(y) / (nonzero.sum() * counts[nonzero])
        return class_w[y]

    def _make_node(self, indices: np.ndarray, depth: int) -> TreeNode:
        wc = np.zeros(self.n_classes)
        np.add.at(wc, self.y[indices], self.weights[indices])
        node = TreeNode(
            node_id=len(self.nodes),
            depth=depth,
            n_samples=len(indices),
            weighted_counts=wc,
        )
        self.nodes.append(node)
        return node

    def _push(self, node: TreeNode, indices: np.ndarray) -> int:
        """Queue the new leaf's best split; return its misclassified count."""
        wrong = len(indices) - int(
            np.count_nonzero(self.y[indices] == node.predicted_class)
        )
        self._misclassified.append(wrong)
        cand = self._best_split(node, indices)
        if cand is not None:
            heapq.heappush(self._heap, cand)
        return wrong

    def _best_split(
        self, node: TreeNode, indices: np.ndarray
    ) -> Optional[_Candidate]:
        """Best (feature, threshold) for this leaf, as a heap candidate."""
        if self.config.max_depth is not None and node.depth >= self.config.max_depth:
            return None
        if len(indices) < 2:
            return None
        crit = self.config.criterion
        parent_imp = _impurity(node.weighted_counts, crit)
        w_total = node.weighted_counts.sum()
        if parent_imp <= 0 or w_total <= 0:
            return None
        best_gain = -1.0
        best: Optional[Tuple[int, float]] = None
        xv = self.x[indices]
        yv = self.y[indices]
        wv = self.weights[indices]
        for f in range(self.n_features):
            col = xv[:, f]
            values = np.unique(col)
            if len(values) < 2:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            for thr in thresholds:
                mask = col <= thr
                wl = np.zeros(self.n_classes)
                wr = np.zeros(self.n_classes)
                np.add.at(wl, yv[mask], wv[mask])
                np.add.at(wr, yv[~mask], wv[~mask])
                sl, sr = wl.sum(), wr.sum()
                if sl <= 0 or sr <= 0:
                    continue
                child_imp = (
                    sl * _impurity(wl, crit) + sr * _impurity(wr, crit)
                ) / w_total
                gain = (w_total / w_total) * (parent_imp - child_imp)
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best = (f, float(thr))
        if best is None:
            return None
        self._tiebreak += 1
        return _Candidate(
            neg_gain=-best_gain,
            tiebreak=self._tiebreak,
            node=node,
            indices=indices,
            feature=best[0],
            threshold=best[1],
        )


class DecisionTree:
    """Best-first CART classifier."""

    def __init__(self, config: TreeConfig = TreeConfig()) -> None:
        self.config = config
        self.root: Optional[TreeNode] = None
        self.n_classes = 0
        self.n_features = 0
        self.n_leaves = 0
        self.depth = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTree":
        return TreeGrowth(x, y, self.config).build(self)

    # ------------------------------------------------------------------
    def _route(self, x: np.ndarray) -> Tuple[List[TreeNode], np.ndarray]:
        """Send every row of ``x`` to its leaf.

        Rows are partitioned down the tree, one vectorized test per
        internal node.  Returns every leaf once, and for each row the
        position of its leaf in that list.
        """
        if self.root is None:
            raise TrainingError("tree is not fitted")
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise TrainingError(
                f"x must be 2-D with {self.n_features} feature columns, "
                f"got shape {x.shape}"
            )
        leaves: List[TreeNode] = []
        where = np.empty(len(x), dtype=np.intp)
        stack = [(self.root, np.arange(len(x)))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                where[rows] = len(leaves)
                leaves.append(node)
                continue
            go_left = x[rows, node.feature] <= node.threshold
            stack.append((node.right, rows[~go_left]))
            stack.append((node.left, rows[go_left]))
        return leaves, where

    def predict(self, x: np.ndarray) -> np.ndarray:
        leaves, where = self._route(x)
        return np.array([n.predicted_class for n in leaves], dtype=int)[where]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf node id for each sample."""
        leaves, where = self._route(x)
        return np.array([n.node_id for n in leaves], dtype=int)[where]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Weighted class proportions of each sample's leaf,
        shape ``(n_samples, n_classes)``."""
        leaves, where = self._route(x)
        return np.array([n.class_proportions() for n in leaves])[where]

    # ------------------------------------------------------------------
    def leaves(self) -> List[TreeNode]:
        return [n for n in self.nodes() if n.is_leaf]

    def nodes(self) -> Iterator[TreeNode]:
        if self.root is None:
            return iter(())

        def walk(node: TreeNode) -> Iterator[TreeNode]:
            yield node
            if not node.is_leaf:
                yield from walk(node.left)
                yield from walk(node.right)

        return walk(self.root)

    def paths(self) -> List[Tuple[List[Tuple[int, bool]], TreeNode]]:
        """Root-to-leaf paths as (conditions, leaf).

        Each condition is ``(feature index, value)`` where value is the
        boolean outcome of the binary feature on that branch (False =
        "<= threshold" branch, True = ">" branch).
        """
        if self.root is None:
            raise TrainingError("tree is not fitted")
        out: List[Tuple[List[Tuple[int, bool]], TreeNode]] = []

        def walk(node: TreeNode, conds: List[Tuple[int, bool]]) -> None:
            if node.is_leaf:
                out.append((list(conds), node))
                return
            walk(node.left, conds + [(node.feature, False)])
            walk(node.right, conds + [(node.feature, True)])

        walk(self.root, [])
        return out

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form of the fitted tree (config + node structure).

        The node encoding is recursive and canonical — two equal trees
        produce identical dicts, so persisted artifacts
        (:mod:`repro.advisor.store`) are bit-stable.  ``weighted_counts``
        are stored as plain floats; :meth:`from_dict` restores them as
        ``np.ndarray`` exactly (they are finite IEEE doubles end to end).
        """

        def node_dict(node: TreeNode) -> dict:
            out = {
                "node_id": node.node_id,
                "depth": node.depth,
                "n_samples": node.n_samples,
                "weighted_counts": [float(w) for w in node.weighted_counts],
            }
            if not node.is_leaf:
                out["feature"] = node.feature
                out["threshold"] = node.threshold
                out["left"] = node_dict(node.left)
                out["right"] = node_dict(node.right)
            return out

        return {
            "config": {
                "criterion": self.config.criterion,
                "max_leaf_nodes": self.config.max_leaf_nodes,
                "max_depth": self.config.max_depth,
                "class_weight": self.config.class_weight,
                "min_impurity_decrease": self.config.min_impurity_decrease,
            },
            "n_classes": self.n_classes,
            "n_features": self.n_features,
            "n_leaves": self.n_leaves,
            "depth": self.depth,
            "root": node_dict(self.root) if self.root is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTree":
        """Rebuild a fitted tree from :meth:`to_dict` output."""
        tree = cls(TreeConfig(**data["config"]))
        tree.n_classes = int(data["n_classes"])
        tree.n_features = int(data["n_features"])
        tree.n_leaves = int(data["n_leaves"])
        tree.depth = int(data["depth"])

        def build(nd: Optional[dict]) -> Optional[TreeNode]:
            if nd is None:
                return None
            node = TreeNode(
                node_id=int(nd["node_id"]),
                depth=int(nd["depth"]),
                n_samples=int(nd["n_samples"]),
                weighted_counts=np.asarray(nd["weighted_counts"], dtype=float),
            )
            if "feature" in nd:
                node.feature = int(nd["feature"])
                node.threshold = float(nd["threshold"])
                node.left = build(nd["left"])
                node.right = build(nd["right"])
            return node

        tree.root = build(data.get("root"))
        return tree

    # ------------------------------------------------------------------
    def render(self, feature_names: Optional[Sequence[str]] = None) -> str:
        """Text rendering in the style of the paper's Figure 6."""
        if self.root is None:
            return "(unfitted tree)"
        lines: List[str] = []

        def name(f: int) -> str:
            if feature_names is not None:
                return str(feature_names[f])
            return f"x[{f}]"

        def walk(node: TreeNode, prefix: str, branch: str) -> None:
            props = ", ".join(
                f"{100*p:.1f}%" for p in node.class_proportions()
            )
            if node.is_leaf:
                lines.append(
                    f"{prefix}{branch}leaf#{node.node_id} "
                    f"samples={node.n_samples} classes=[{props}] "
                    f"-> class {node.predicted_class}"
                )
                return
            lines.append(
                f"{prefix}{branch}[{name(node.feature)}] "
                f"samples={node.n_samples} classes=[{props}]"
            )
            walk(node.left, prefix + "  ", "False: ")
            walk(node.right, prefix + "  ", "True:  ")

        walk(self.root, "", "")
        return "\n".join(lines)
