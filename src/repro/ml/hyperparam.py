"""Decision-tree size search — the paper's Algorithm 1 and Figure 5.

"The number of leaf nodes of the tree is initially set to [2], and
iteratively increased until classification error no longer shrinks" —
``train()`` takes ``max_leaf_nodes`` and uses
``max_depth = max_leaf_nodes - 1``.  The search keeps trying up to five
larger sizes after each accepted size; the first improvement is accepted
(greedy), and if none of the five improves, the search stops.

The trees of all sizes nest, so the search runs one best-first growth
(:class:`~repro.ml.tree.TreeGrowth`) instead of training one tree per
size, and the ``k``-leaf tree is the growth after its first ``k - 1``
splits:

* the depth cap never binds: a node at depth ``k - 1`` or deeper only
  appears once the tree already has ``k`` leaves, so the uncapped growth
  makes the same first ``k - 1`` splits as training with
  ``max_depth = k - 1``;
* the growth splits leaves in a fixed order (greatest gain, ties to the
  leaf created first), whatever the leaf budget;
* node ids follow creation order, so the prefix numbers its nodes as the
  ``k``-leaf training run does.

The sizes the search tries are consecutive, so each one costs one more
split, and its training error comes from per-leaf misclassified counts
the growth keeps, with no ``predict`` pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.ml.tree import DecisionTree, TreeConfig, TreeGrowth


@dataclass
class HyperparamTrace:
    """Every (max_leaf_nodes, error, depth) evaluated — Figure 5's series."""

    leaf_nodes: List[int] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)
    depths: List[int] = field(default_factory=list)

    def record(self, mln: int, err: float, depth: int) -> None:
        self.leaf_nodes.append(mln)
        self.errors.append(err)
        self.depths.append(depth)

    def rows(self) -> List[Tuple[int, float, int]]:
        return list(zip(self.leaf_nodes, self.errors, self.depths))


def search_tree_size(
    x: np.ndarray,
    y: np.ndarray,
    *,
    criterion: str = "gini",
    class_weight: Optional[str] = "balanced",
    patience: int = 5,
) -> Tuple[DecisionTree, HyperparamTrace]:
    """Algorithm 1: grow ``max_leaf_nodes`` until error stops shrinking.

    Returns the selected classifier and the evaluation trace (Figure 5).
    """
    trace = HyperparamTrace()
    growth = TreeGrowth(
        x, y, TreeConfig(criterion=criterion, class_weight=class_weight)
    )

    def train(mln: int) -> float:
        growth.grow_to(mln)
        err = growth.error
        trace.record(mln, err, growth.depth)
        return err

    mln = 2
    err = np.inf
    cur = train(mln)
    while cur < err:
        err = cur
        for i in range(1, patience + 1):
            cur = train(mln + i)
            if cur < err:
                mln = mln + i
                break
    clf = DecisionTree(
        TreeConfig(
            criterion=criterion,
            class_weight=class_weight,
            max_leaf_nodes=mln,
            max_depth=mln - 1,
        )
    )
    return growth.build(clf), trace
