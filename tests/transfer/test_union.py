"""Tests for union-feature training (repro.transfer.union +
repro.ml.features.MappedFeatureExtractor)."""

import numpy as np
import pytest

from repro.dag.vertex import cpu_op, gpu_op
from repro.errors import TrainingError
from repro.ml.features import MappedFeatureExtractor, OrderFeature, ScheduleTable
from repro.ml.hyperparam import search_tree_size
from repro.schedule.schedule import BoundOp, Schedule
from repro.sim.measure import MeasurementConfig
from repro.transfer.signature import program_signatures
from repro.transfer.union import UnionWorkload, binary_labels, train_union
from repro.workloads import WorkloadSpec, rules_for_specs


def _gpu(name, stream):
    return BoundOp(vertex=gpu_op(name), stream=stream)


def _cpu(name):
    return BoundOp(vertex=cpu_op(name))


#: Two "programs" with disjoint naming but identical structure: a packer
#: kernel (key K), a post op (key P), and a worker kernel (key W).
MAP_A = {"PackA": "K", "PostA": "P", "WorkA": "W"}
MAP_B = {"PackB": "K", "PostB": "P", "WorkB": "W"}


def _sched_a(order, streams):
    names = {"K": "PackA", "P": "PostA", "W": "WorkA"}
    ops = []
    for key in order:
        name = names[key]
        if key == "P":
            ops.append(_cpu(name))
        else:
            ops.append(_gpu(name, streams[key]))
    return Schedule(ops)


def _sched_b(order, streams):
    names = {"K": "PackB", "P": "PostB", "W": "WorkB"}
    ops = []
    for key in order:
        name = names[key]
        if key == "P":
            ops.append(_cpu(name))
        else:
            ops.append(_gpu(name, streams[key]))
    return Schedule(ops)


class TestMappedExtractor:
    def test_features_over_shared_keys(self):
        a = [_sched_a("KPW", {"K": 0, "W": 0}), _sched_a("WKP", {"K": 0, "W": 1})]
        b = [_sched_b("KPW", {"K": 0, "W": 1}), _sched_b("PWK", {"K": 1, "W": 0})]
        ex = MappedFeatureExtractor().fit([(a, MAP_A), (b, MAP_B)])
        assert set(ex.keys) == {"K", "P", "W"}
        assert set(ex.gpu_keys) == {"K", "W"}
        names = {f.name for f in ex.features}
        # Features refer to keys, not program-specific op names.
        assert all("Pack" not in n for n in names)

    def test_projection_is_structural(self):
        # The same structural schedule in both programs featurizes equally.
        a = [_sched_a("KPW", {"K": 0, "W": 1}), _sched_a("WKP", {"K": 0, "W": 0})]
        b = [_sched_b("KPW", {"K": 0, "W": 1}), _sched_b("WKP", {"K": 0, "W": 0})]
        ex = MappedFeatureExtractor().fit([(a, MAP_A), (b, MAP_B)])
        ma = ex.transform(a, MAP_A).matrix
        mb = ex.transform(b, MAP_B).matrix
        assert np.array_equal(ma, mb)

    def test_universal_quantification_over_groups(self):
        # Two ops share key K; "K before W" needs *both* before W.
        mapping = {"k1": "K", "k2": "K", "w": "W", "x": "X"}
        both_first = Schedule([_gpu("k1", 0), _gpu("k2", 0), _gpu("w", 0), _gpu("x", 0)])
        interleaved = Schedule([_gpu("k1", 0), _gpu("w", 0), _gpu("k2", 0), _gpu("x", 0)])
        ex = MappedFeatureExtractor().fit(
            [([both_first, interleaved], mapping)]
        )
        f = OrderFeature("K", "W")
        col = ex.transform([both_first, interleaved], mapping).column(f)
        assert col.tolist() == [1, 0]

    def test_missing_key_defaults_to_zero(self):
        a = [_sched_a("KPW", {"K": 0, "W": 0}), _sched_a("WKP", {"K": 0, "W": 1})]
        b = [_sched_b("KPW", {"K": 0, "W": 1}), _sched_b("PWK", {"K": 1, "W": 0})]
        ex = MappedFeatureExtractor().fit([(a, MAP_A), (b, MAP_B)])
        foreign = Schedule([_gpu("Other", 0)])
        m = ex.transform([foreign], {"Other": "K"}).matrix
        assert m.sum() == 0  # nothing evaluable: all defaults

    def test_min_sets_filters_private_keys(self):
        a = [_sched_a("KPW", {"K": 0, "W": 0}), _sched_a("WKP", {"K": 0, "W": 1})]
        only_b = [Schedule([_gpu("PackB", 0), _gpu("Priv", 1)])]
        mapping_b = {"PackB": "K", "Priv": "PRIVATE"}
        ex = MappedFeatureExtractor().fit([(a, MAP_A), (only_b, mapping_b)])
        assert "PRIVATE" not in ex.keys  # appears in one set only

    def test_zero_schedules_rejected(self):
        with pytest.raises(TrainingError, match="zero schedules"):
            MappedFeatureExtractor().fit([([], MAP_A)])

    def test_transform_requires_fit(self):
        with pytest.raises(TrainingError, match="not fitted"):
            MappedFeatureExtractor().transform([], MAP_A)


class TestBinaryLabels:
    def test_fastest_class_is_fast(self):
        labels = binary_labels([0, 1, 2, 0, 3])
        assert labels.tolist() == [0, 1, 1, 0, 1]


def _union_workload(label, schedules, labels, mapping):
    """A union workload from raw parts: its schedules keyed by ``mapping``
    (op name -> key)."""
    return UnionWorkload(
        label, ScheduleTable(schedules).keyed(mapping.get), np.asarray(labels)
    )


class TestTrainUnion:
    """Schedules are fast iff K launches before W — learnable from the
    union of two differently-named programs, transferable to a third."""

    def _workloads(self):
        return [_union_workload(*raw) for raw in self._raw()]

    def _raw(self):
        """``(label, schedules, labels, mapping)`` per workload."""
        a_fast = [_sched_a("KPW", {"K": 0, "W": 0}), _sched_a("KWP", {"K": 0, "W": 1})]
        a_slow = [_sched_a("WKP", {"K": 0, "W": 0}), _sched_a("PWK", {"K": 1, "W": 0})]
        b_fast = [_sched_b("KPW", {"K": 0, "W": 1}), _sched_b("KWP", {"K": 0, "W": 0})]
        b_slow = [_sched_b("WPK", {"K": 0, "W": 0}), _sched_b("PWK", {"K": 1, "W": 1})]
        map_c = {"PackC": "K", "PostC": "P", "WorkC": "W"}
        c_scheds = [
            Schedule([_gpu("PackC", 0), _cpu("PostC"), _gpu("WorkC", 1)]),
            Schedule([_gpu("WorkC", 0), _cpu("PostC"), _gpu("PackC", 0)]),
        ]
        return [
            ("A", a_fast + a_slow, [0, 0, 1, 1], MAP_A),
            ("B", b_fast + b_slow, [0, 0, 1, 1], MAP_B),
            ("C", c_scheds, [0, 1], map_c),
        ]

    def test_holdout_generalizes(self):
        result = train_union(self._workloads(), holdout="C")
        assert result.trained_on == ("A", "B")
        assert result.holdout == "C"
        assert result.train_accuracy == 1.0
        assert result.holdout_accuracy == 1.0

    def test_train_on_all(self):
        result = train_union(self._workloads())
        assert result.holdout is None
        assert result.holdout_accuracy is None
        assert set(result.per_workload_accuracy) == {"A", "B", "C"}

    def test_unknown_holdout_rejected(self):
        with pytest.raises(TrainingError, match="not in the union"):
            train_union(self._workloads(), holdout="nope")

    def test_needs_two_training_workloads(self):
        with pytest.raises(TrainingError, match="at least two"):
            train_union(self._workloads()[:2], holdout="A")

    def test_no_shared_features_rejected(self):
        w1 = _union_workload(
            "X",
            [Schedule([_gpu("a", 0)]), Schedule([_gpu("a", 1)])],
            [0, 1],
            {"a": "KA"},
        )
        w2 = _union_workload(
            "Y",
            [Schedule([_gpu("b", 0)]), Schedule([_gpu("b", 1)])],
            [0, 1],
            {"b": "KB"},
        )
        with pytest.raises(TrainingError, match="no shared"):
            train_union([w1, w2])


# ----------------------------------------------------------------------
# Shared span tables against per-call projection.


def reference_train_union(raw, holdout=None):
    """``train_union`` projecting each raw ``(label, schedules, labels,
    mapping)`` workload with ``transform``: one table per fit set, per
    training block and per accuracy, and one ``predict`` per training
    workload on top of the training matrix's."""
    train = [w for w in raw if w[0] != holdout]
    ex = MappedFeatureExtractor().fit([(s, m) for _, s, _, m in train])
    if not ex.features:
        raise TrainingError(
            "no shared, non-constant signature features across the union"
        )
    x = np.concatenate([ex.transform(s, m).matrix for _, s, _, m in train])
    y = np.concatenate([np.asarray(labels, dtype=int) for _, _, labels, _ in train])
    tree, _ = search_tree_size(x, y)

    def accuracy(w):
        _, schedules, labels, mapping = w
        pred = tree.predict(ex.transform(schedules, mapping).matrix)
        return float(np.mean(pred == np.asarray(labels)))

    held = [w for w in raw if w[0] == holdout]
    return (
        ex.features,
        tree.to_dict(),
        float(np.mean(tree.predict(x) == y)),
        {w[0]: accuracy(w) for w in train},
        accuracy(held[0]) if held else None,
    )


#: Tiny exhaustible programs with shared structural signatures.
REAL_SPECS = [
    WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
    WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
    WorkloadSpec("wavefront", {"width": 2, "height": 2}),
    WorkloadSpec("stencil_reduce", {"width": 2, "height": 2}),
]


@pytest.fixture(scope="module")
def real_workloads():
    """``(label, schedules, labels, signature-key mapping)`` per spec."""
    per_workload = rules_for_specs(
        REAL_SPECS, measurement=MeasurementConfig(max_samples=1)
    )
    return [
        (
            wl.spec.label,
            list(wl.result.search.schedules()),
            binary_labels(wl.result.labeling.labels),
            {n: sig.key for n, sig in program_signatures(wl.program).items()},
        )
        for wl in per_workload
    ]


def _summary(result):
    return (
        result.extractor.features,
        result.tree.to_dict(),
        result.train_accuracy,
        result.per_workload_accuracy,
        result.holdout_accuracy,
    )


def test_synthetic_union_matches_transform_projection():
    raw = TestTrainUnion()._raw()
    workloads = [_union_workload(*w) for w in raw]
    for holdout in (None, "A", "B", "C"):
        assert _summary(
            train_union(workloads, holdout=holdout)
        ) == reference_train_union(raw, holdout)


def _outcome(train, workloads, holdout):
    try:
        return train(workloads, holdout)
    except TrainingError as exc:
        return str(exc)


def test_real_union_matches_transform_projection(real_workloads):
    """Every leave-one-out fold and the all-workload tree, reading one
    shared table per workload, agree with per-call projection (a fold
    with no shared features fails in both)."""

    def new(workloads, holdout):
        return _summary(train_union(workloads, holdout=holdout))

    shared = [_union_workload(*w) for w in real_workloads]
    folds = [None] + [w.label for w in shared]
    got = [_outcome(new, shared, held) for held in folds]
    want = [_outcome(reference_train_union, real_workloads, h) for h in folds]
    assert got == want
    assert sum(isinstance(g, tuple) for g in got) >= 3
