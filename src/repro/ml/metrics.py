"""Evaluation metrics for the rule-generation pipeline.

``range_accuracy`` is the paper's Table V metric: classify every
implementation in the full space with a tree trained on a search subset;
an implementation is counted accurate when its measured time falls within
the *performance range* of the class the tree assigned it ("the proportion
of implementations with performance that falls within the label's range,
i.e., how well using only a subset generalized to the entire space").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ml.labeling import ClassInfo
from repro.ml.tree import DecisionTree


def training_error(tree: DecisionTree, x: np.ndarray, y: np.ndarray) -> float:
    """Misclassification rate on the training set."""
    pred = tree.predict(x)
    return float(np.mean(pred != np.asarray(y)))


def range_accuracy(
    tree: DecisionTree,
    x_all: np.ndarray,
    times_all: np.ndarray,
    classes: Sequence[ClassInfo],
) -> float:
    """Table V metric: fraction of implementations whose measured time lies
    within the time range of their predicted class."""
    pred = tree.predict(x_all)
    times = np.asarray(times_all, dtype=float)
    by_label = {c.label: c for c in classes}
    ok = 0
    for label, t in zip(pred, times):
        c = by_label.get(int(label))
        if c is not None and c.contains_time(float(t)):
            ok += 1
    return ok / len(times) if len(times) else 0.0
