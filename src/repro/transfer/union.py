"""Union-feature training: one tree over several workloads' schedules.

The paper's §VI "generalize across inputs" extension trains one decision
tree on several inputs of the *same* program.  Here the training set is
the union of several *programs'* labeled schedules, projected into the
signature-canonical feature space of
:class:`repro.ml.features.MappedFeatureExtractor`: every schedule becomes
a vector over (signature, signature) ordering/stream features shared by
all participating workloads, labeled **fast** (the workload's fastest
performance class) or **slow** (everything else).  Class counts and time
scales differ across programs, so the binary fast/slow target is the
common denominator every workload can supply.

The interesting number is *held-out-workload* accuracy: train on all
workloads but one, classify the held-out workload's schedules, and score
against its own labeling.  High accuracy means the union tree has learned
design guidance that moves across programs — the cross-program analogue
of the paper's Table V.

Each workload enters as a :class:`UnionWorkload` holding its schedules'
signature-keyed :class:`~repro.ml.features.KeySpans` (the one table its
:class:`~repro.workloads.generalization.WorkloadRules` caches), so the
leave-one-out folds and the published all-workload tree scan no
schedules of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.ml.features import KeySpans, MappedFeatureExtractor
from repro.ml.hyperparam import search_tree_size
from repro.ml.tree import DecisionTree

#: Binary union labels.
FAST, SLOW = 0, 1


@dataclass
class UnionWorkload:
    """One workload's contribution to the union training set.

    Every fold that trains on or holds out this workload reads its one
    :attr:`spans` table, so holding the same objects across folds (as
    the transfer matrix does) scans each workload once.
    """

    label: str
    #: The workload's schedules keyed by structural signature key.
    spans: KeySpans
    #: Binary label per schedule: 0 = fastest class, 1 = slower.
    labels: np.ndarray


def binary_labels(class_labels: Sequence[int]) -> np.ndarray:
    """Collapse per-workload performance classes to fast (0) / slow (1)."""
    arr = np.asarray(list(class_labels), dtype=int)
    return np.where(arr == 0, FAST, SLOW)


@dataclass
class UnionTrainingResult:
    """A union-trained tree and its evaluation."""

    extractor: MappedFeatureExtractor
    tree: DecisionTree
    #: Workload labels the tree was trained on.
    trained_on: Tuple[str, ...]
    #: Training-set accuracy over the union.
    train_accuracy: float
    #: Per-workload accuracy on the training workloads.
    per_workload_accuracy: Dict[str, float]
    #: Held-out workload label and accuracy (None when not held out).
    holdout: Optional[str] = None
    holdout_accuracy: Optional[float] = None

    @property
    def n_features(self) -> int:
        return len(self.extractor.features)


def train_union(
    workloads: Sequence[UnionWorkload],
    *,
    holdout: Optional[str] = None,
    criterion: str = "gini",
) -> UnionTrainingResult:
    """Train one tree on the union of ``workloads`` (minus ``holdout``).

    The feature vocabulary is fitted on the *training* workloads only —
    the held-out workload plays no part in choosing features.  The
    projection is total: a feature whose signature keys the held-out
    program lacks evaluates to 0 there (a structurally absent constraint
    is unsatisfied), so the tree always predicts foreign schedules.

    Every workload is read through its :attr:`UnionWorkload.spans`
    table, and the tree predicts the training matrix once: train and
    per-workload accuracy are slices of that one prediction.
    """
    train = [w for w in workloads if w.label != holdout]
    if holdout is not None and len(train) == len(workloads):
        raise TrainingError(f"holdout workload {holdout!r} not in the union")
    if len(train) < 2:
        raise TrainingError("union training needs at least two workloads")

    extractor = MappedFeatureExtractor().fit_spans([w.spans for w in train])
    if not extractor.features:
        raise TrainingError(
            "no shared, non-constant signature features across the union"
        )
    blocks = [extractor.project(w.spans).matrix for w in train]
    x = np.concatenate(blocks)
    y = np.concatenate([np.asarray(w.labels, dtype=int) for w in train])
    tree, _ = search_tree_size(x, y, criterion=criterion)

    hit = tree.predict(x) == y
    per_block = np.split(hit, np.cumsum([len(b) for b in blocks])[:-1])
    result = UnionTrainingResult(
        extractor=extractor,
        tree=tree,
        trained_on=tuple(w.label for w in train),
        train_accuracy=float(np.mean(hit)),
        per_workload_accuracy={
            w.label: float(np.mean(part)) for w, part in zip(train, per_block)
        },
        holdout=holdout,
    )
    if holdout is not None:
        held = next(w for w in workloads if w.label == holdout)
        pred = tree.predict(extractor.project(held.spans).matrix)
        result.holdout_accuracy = float(np.mean(pred == held.labels))
    return result
