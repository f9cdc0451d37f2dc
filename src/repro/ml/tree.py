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
* splits: binary tests ``x[f] <= threshold``, one candidate between each
  pair of consecutive distinct values ``a < b`` of the leaf's column.  The
  threshold follows scikit-learn: ``a/2 + b/2`` in float64, or ``a`` when
  that rounds onto ``b`` or is infinite.  Unlike ``(a + b) / 2`` in the
  column's dtype it cannot wrap (uint8), overflow (``1e308``) or round
  onto ``b``, so ``x[f] <= threshold`` holds exactly for ``x[f] <= a``.
  Between integers ``k`` and ``k + 1`` it is ``k + 0.5``; for the
  pipeline's 0/1 features, 0.5 (left = feature 0, right = 1).

**Scoring a leaf.**  A growth rank-encodes each column once: its sorted
distinct values, and each row's rank among them.  Slots number every
column's distinct values in (feature, value) order, and each entry of
``x`` is kept as one code, ``slot * n_classes + class``, in the
narrowest unsigned dtype (uint8 for the pipeline's features).  A leaf's
count table, rows per (slot, class), is one ``np.bincount`` of its rows'
codes, taken in feature chunks so its temporary stays bounded.  A
running total along the slots, less the leaf's class counts once per
earlier feature, is each candidate's left side ("rank <= v", by the
threshold rule); the leaf's counts minus it is the right side.
Weighted sums, impurities and gains of all candidates are then a few
array operations.  The winner's rows of those arrays are both
children's class counts, weighted counts and impurities, so a new leaf
is never summed again.

**Why the result is exact.**  The reference, kept in
``tests/ml/test_split_oracle.py``, loops over features and thresholds,
sums each side's weights with ``np.add.at`` and takes each side's
impurity from one vector, summing entropy over its nonzero terms only.
Under ``balanced`` and ``None`` every row of a class weighs the same, so
``np.add.at``'s sum over ``k`` rows of class ``c`` is ``k`` copies of
that weight added one at a time: a lookup in a table made once per
growth, bit for bit (``k`` times the weight is not).  Row sums reduce
each row along its contiguous axis as numpy reduces one vector, and
entropy sums each row's nonzero terms on their own, rows grouped by how
many they have (a zero term would move numpy's pairwise grouping).
Candidates are scanned in (feature, threshold) order, and a gain is
taken only when it beats the best so far by more than ``1e-15``, as in
the reference; ``argmax`` would pick differently on near-ties.

**Input checks.**  :class:`TreeGrowth` raises :class:`TrainingError` for
``x`` that is not 2-D or has no rows, ``x`` and ``y`` of different
lengths, a non-finite feature (no threshold separates a number from
NaN), and a negative or non-integral label (``0.0``, ``1.0`` pass).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError

#: Codes per counting chunk.  ``np.bincount`` widens a chunk to intp
#: (256 KiB), so a leaf's counting pass holds a bounded temporary.
_COUNT_CHUNK = 1 << 15


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
    return float(_impurities(weighted_counts[None, :], total[None], criterion)[0])


def _impurities(
    weighted: np.ndarray, totals: np.ndarray, criterion: str
) -> np.ndarray:
    """Impurity of each row of ``weighted``, whose row sums ``totals`` are
    positive.

    Each row is reduced along its contiguous axis, so a row's impurity
    does not depend on the rows beside it.  Entropy sums only a row's
    nonzero terms: rows are grouped by how many they have, because a zero
    term would move numpy's pairwise grouping of the sum.
    """
    p = weighted / totals[:, None]
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=1)
    nonzero = p > 0
    n_terms = np.count_nonzero(nonzero, axis=1)
    out = np.empty(len(p))
    for k in np.unique(n_terms).tolist():
        rows = n_terms == k
        q = p[rows][nonzero[rows]].reshape(-1, k)
        out[rows] = -(q * np.log2(q)).sum(axis=1)
    return out


def _midpoint(a: float, b: float) -> float:
    """Threshold between consecutive distinct values ``a < b``
    (scikit-learn's rule; see the module docstring)."""
    t = a / 2.0 + b / 2.0
    if t == b or math.isinf(t):
        return a
    return t


def _encode(
    x: np.ndarray, y: np.ndarray, n_classes: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-encode each column, and code each entry's (feature, rank, class).

    Slots number every column's distinct values in (feature, value)
    order: column ``f``'s values, ascending, are the slots
    ``starts[f]`` to ``starts[f + 1] - 1``, holding
    ``levels[starts[f]:starts[f + 1]]``.  Returns ``(codes, levels,
    starts)``, where ``codes[i, f]`` is ``slot * n_classes + y[i]`` for
    the slot of ``x[i, f]``, in the narrowest unsigned dtype that holds
    every code (uint8 for the pipeline's features).
    """
    columns = np.ascontiguousarray(x.T)
    ordered = np.sort(columns, axis=1, kind="stable")
    first = np.ones(columns.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    levels = ordered[first]
    starts = np.concatenate(([0], np.cumsum(np.count_nonzero(first, axis=1))))
    dtype = np.min_scalar_type(max(len(levels) * n_classes - 1, 0))
    codes = np.empty(x.shape, dtype)
    for f, column in enumerate(columns):
        slot = np.searchsorted(levels[starts[f] : starts[f + 1]], column) + starts[f]
        codes[:, f] = slot * n_classes + y
    return codes, levels, starts


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
    feature: int = field(compare=False)
    threshold: float = field(compare=False)
    #: The left child holds the leaf's rows whose code in ``feature`` is
    #: below ``code_limit``: those of rank ``<= v``, which are exactly
    #: those with ``x <= threshold``.
    code_limit: int = field(compare=False)
    #: Class counts, weighted class counts and impurities of the (left,
    #: right) children.
    child_counts: np.ndarray = field(compare=False)
    child_weights: np.ndarray = field(compare=False)
    child_impurities: List[float] = field(compare=False)


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
        y = np.asarray(y)
        if x.ndim != 2:
            raise TrainingError("x must be 2-D (n_samples, n_features)")
        if len(x) != len(y):
            raise TrainingError("x and y length mismatch")
        if len(x) == 0:
            raise TrainingError("cannot fit on zero samples")
        if y.dtype.kind == "f" and not np.all(np.isfinite(y) & (y == np.trunc(y))):
            raise TrainingError("labels must be integers")
        y = y.astype(int)
        if y.min() < 0:
            raise TrainingError("labels must be non-negative")
        if x.dtype.kind == "f" and not np.isfinite(x).all():
            raise TrainingError("features must be finite")
        self.config = config
        self.y = y
        self.n_classes = int(y.max()) + 1
        self.n_features = x.shape[1]
        class_counts = np.bincount(y, minlength=self.n_classes)
        self._classes = np.arange(self.n_classes)
        #: ``_weight_sums[k, c]``: ``k`` rows of class ``c`` weighed.
        self._weight_sums = self._weight_table(class_counts)
        self._codes, self._levels, self._starts = _encode(x, y, self.n_classes)
        #: The feature of each slot (a column's distinct value) of a
        #: leaf's count table.
        self._slot_feature = np.repeat(
            np.arange(self.n_features), np.diff(self._starts)
        )
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
        root = self._make_node(
            len(y), 0, self._weight_sums[class_counts, self._classes]
        )
        #: Training rows the grown tree misclassifies (unweighted).
        self.misclassified = self._push(
            root,
            np.arange(len(y)),
            class_counts,
            _impurity(root.weighted_counts, config.criterion),
        )

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
        go_left = self._codes[idx, cand.feature] < cand.code_limit
        li, ri = idx[go_left], idx[~go_left]
        depth = node.depth + 1
        left = self._make_node(len(li), depth, cand.child_weights[0])
        right = self._make_node(len(ri), depth, cand.child_weights[1])
        self.splits.append((node.node_id, cand.feature, cand.threshold))
        self.depth = max(self.depth, depth)
        left_imp, right_imp = cand.child_impurities
        self.misclassified += (
            self._push(left, li, cand.child_counts[0], left_imp)
            + self._push(right, ri, cand.child_counts[1], right_imp)
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
    def _weight_table(self, class_counts: np.ndarray) -> np.ndarray:
        """``table[k, c]``: class ``c``'s sample weight added ``k`` times,
        one at a time, which is ``np.add.at``'s sum over any ``k`` rows of
        class ``c`` (every row of a class weighs the same)."""
        if self.config.class_weight is None:
            class_w = np.ones(self.n_classes)
        else:
            counts = class_counts.astype(float)
            present = counts > 0
            class_w = np.zeros(self.n_classes)
            class_w[present] = len(self.y) / (present.sum() * counts[present])
        table = np.zeros((int(class_counts.max()) + 1, self.n_classes))
        np.cumsum(np.broadcast_to(class_w, table[1:].shape), axis=0, out=table[1:])
        return table

    def _make_node(
        self, n_samples: int, depth: int, weighted_counts: np.ndarray
    ) -> TreeNode:
        node = TreeNode(
            node_id=len(self.nodes),
            depth=depth,
            n_samples=n_samples,
            weighted_counts=weighted_counts,
        )
        self.nodes.append(node)
        return node

    def _push(
        self,
        node: TreeNode,
        indices: np.ndarray,
        class_counts: np.ndarray,
        impurity: float,
    ) -> int:
        """Queue the new leaf's best split; return its misclassified count."""
        wrong = node.n_samples - int(class_counts[node.predicted_class])
        self._misclassified.append(wrong)
        cand = self._best_split(node, indices, class_counts, impurity)
        if cand is not None:
            heapq.heappush(self._heap, cand)
        return wrong

    def _count(self, indices: np.ndarray) -> np.ndarray:
        """The leaf's count table: ``counts[s, c]`` rows of class ``c``
        holding slot ``s``'s value in slot ``s``'s column."""
        size = len(self._levels) * self.n_classes
        width = max(1, _COUNT_CHUNK // len(indices))
        counts = np.zeros(size, dtype=np.intp)
        for f in range(0, self.n_features, width):
            counts += np.bincount(
                self._codes[indices, f : f + width].ravel(), minlength=size
            )
        return counts.reshape(-1, self.n_classes)

    def _best_split(
        self,
        node: TreeNode,
        indices: np.ndarray,
        class_counts: np.ndarray,
        impurity: float,
    ) -> Optional[_Candidate]:
        """Best (feature, threshold) for this leaf, as a heap candidate.

        ``class_counts`` and ``impurity`` are the leaf's, as the parent's
        scoring (or the root's set-up) computed them.
        """
        if self.config.max_depth is not None and node.depth >= self.config.max_depth:
            return None
        if len(indices) < 2:
            return None
        w_total = node.weighted_counts.sum()
        if impurity <= 0 or w_total <= 0:
            return None
        counts = self._count(indices)
        present = counts.any(axis=1)
        # Rows of rank <= each slot's, per class: a running total over the
        # slots, less the whole leaf once per earlier feature.
        left = counts.cumsum(axis=0)
        left -= np.multiply.outer(self._slot_feature, class_counts)
        # Candidates: every distinct value of the leaf's column but the
        # largest, in (feature, threshold) order.
        slots = (present & (left.sum(axis=1) < len(indices))).nonzero()[0]
        n = len(slots)
        if n == 0:
            return None
        lefts = left[slots]
        sides = np.concatenate((lefts, class_counts - lefts))
        weighted = self._weight_sums[sides, self._classes]
        totals = weighted.sum(axis=1)
        imp = _impurities(weighted, totals, self.config.criterion)
        weighted_imp = totals * imp
        gains = impurity - (weighted_imp[:n] + weighted_imp[n:]) / w_total
        # A gain counts only when it beats the best so far by more than
        # 1e-15, in candidate order; argmax would break near-ties otherwise.
        best_gain, pick = -1.0, -1
        for i, gain in enumerate(gains.tolist()):
            if gain > best_gain + 1e-15:
                best_gain, pick = gain, i
        slot = int(slots[pick])
        upper = slot + 1 + int(present[slot + 1 :].argmax())
        feature = int(self._slot_feature[slot])
        children = slice(pick, None, n)  # the winner's left and right rows
        self._tiebreak += 1
        return _Candidate(
            neg_gain=-best_gain,
            tiebreak=self._tiebreak,
            node=node,
            indices=indices,
            feature=feature,
            threshold=_midpoint(float(self._levels[slot]), float(self._levels[upper])),
            code_limit=(slot + 1) * self.n_classes,
            child_counts=sides[children].copy(),
            child_weights=weighted[children].copy(),
            child_impurities=imp[children].tolist(),
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
