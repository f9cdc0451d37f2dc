"""Machine-learning pipeline: labels, features, decision tree, metrics.

This package implements paper §IV end to end, including a from-scratch
CART decision tree (scikit-learn is not available in this environment;
the algorithm — gini/entropy impurity, balanced class weights, best-first
growth bounded by ``max_leaf_nodes`` — matches what the paper used).
"""

from repro.ml.features import (
    FeatureExtractor,
    FeatureMatrix,
    OrderFeature,
    StreamFeature,
)
from repro.ml.hyperparam import HyperparamTrace, search_tree_size
from repro.ml.labeling import (
    ClassInfo,
    LabelingConfig,
    LabelResult,
    label_by_performance,
)
from repro.ml.metrics import range_accuracy, training_error
from repro.ml.peaks import find_peaks, peak_prominences
from repro.ml.tree import DecisionTree, TreeConfig, TreeNode

__all__ = [
    "ClassInfo",
    "DecisionTree",
    "FeatureExtractor",
    "FeatureMatrix",
    "HyperparamTrace",
    "LabelResult",
    "LabelingConfig",
    "OrderFeature",
    "StreamFeature",
    "TreeConfig",
    "TreeNode",
    "find_peaks",
    "label_by_performance",
    "peak_prominences",
    "range_accuracy",
    "search_tree_size",
    "training_error",
]
