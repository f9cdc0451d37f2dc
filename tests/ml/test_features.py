"""Tests for the sequence-to-vector feature transformation (§IV-B)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dag.vertex import OpKind, cpu_op, gpu_op
from repro.errors import TrainingError
from repro.ml.features import FeatureExtractor, OrderFeature, StreamFeature
from repro.schedule.schedule import BoundOp, Schedule
from repro.schedule.space import DesignSpace
from repro.workloads import WorkloadSpec, build_workload


class TestFeatureNaming:
    def test_order_feature_text(self):
        f = OrderFeature("Pack", "yL")
        assert f.describe(True) == "Pack before yL"
        assert f.describe(False) == "yL before Pack"

    def test_stream_feature_text(self):
        f = StreamFeature("Pack", "yL")
        assert f.describe(True) == "Pack same stream as yL"
        assert f.describe(False) == "Pack different stream than yL"


class TestExtractor:
    def test_unfitted_transform_rejected(self, spmv_schedules):
        with pytest.raises(TrainingError):
            FeatureExtractor().transform(spmv_schedules[:2])

    def test_fit_on_empty_rejected(self):
        with pytest.raises(TrainingError):
            FeatureExtractor().fit([])

    def test_constant_columns_dropped(self, spmv_schedules):
        fx = FeatureExtractor()
        fm = fx.fit_transform(spmv_schedules)
        # No column is constant.
        for j in range(fm.n_features):
            col = fm.matrix[:, j]
            assert col.min() != col.max()

    def test_forced_orders_not_features(self, spmv_schedules):
        """DAG-implied orders (e.g. Pack before PostSends) are constant and
        must have been pruned."""
        fx = FeatureExtractor()
        fx.fit(spmv_schedules)
        pairs = {
            (f.u, f.v)
            for f in fx.features
            if isinstance(f, OrderFeature)
        }
        assert ("Pack", "PostSends") not in pairs
        assert ("PostSends", "WaitSend") not in pairs

    def test_stream_features_for_gpu_pairs(self, spmv_schedules):
        fx = FeatureExtractor()
        fx.fit(spmv_schedules)
        stream_pairs = {
            frozenset((f.u, f.v))
            for f in fx.features
            if isinstance(f, StreamFeature)
        }
        assert stream_pairs == {
            frozenset(("Pack", "yL")),
            frozenset(("Pack", "yR")),
            frozenset(("yL", "yR")),
        }

    def test_values_match_schedule(self, spmv_schedules):
        fx = FeatureExtractor()
        fm = fx.fit_transform(spmv_schedules)
        s = spmv_schedules[123]
        row = fm.matrix[123]
        for j, f in enumerate(fm.features):
            if isinstance(f, OrderFeature):
                expected = s.position(f.u) < s.position(f.v)
            else:
                expected = s.stream_of(f.u) == s.stream_of(f.v)
            assert bool(row[j]) == expected

    def test_transform_consistent_on_subset_then_full(self, spmv_schedules):
        """Fitting on a subset must featurize the full space consistently
        (the Table V generalization path)."""
        fx = FeatureExtractor()
        fx.fit(spmv_schedules[:100])
        fm_full = fx.transform(spmv_schedules)
        assert fm_full.matrix.shape == (len(spmv_schedules), len(fx.features))

    def test_matrix_dtype_binary(self, spmv_schedules):
        fm = FeatureExtractor().fit_transform(spmv_schedules[:50])
        assert fm.matrix.dtype == np.uint8
        assert set(np.unique(fm.matrix)) <= {0, 1}

    def test_column_lookup(self, spmv_schedules):
        fx = FeatureExtractor()
        fm = fx.fit_transform(spmv_schedules[:50])
        f = fm.features[0]
        assert np.array_equal(fm.column(f), fm.matrix[:, 0])


# ----------------------------------------------------------------------
# The numpy feature matrix against the per-row loop it replaced.


def reference_raw_matrix(schedules, features):
    """``FeatureExtractor._raw_matrix`` as a per-(schedule, feature) loop.

    A missing op raises ``TrainingError`` for an ordering feature and a
    bare ``KeyError`` for a stream feature (the extractor now raises
    ``TrainingError`` for both).
    """
    mat = np.zeros((len(schedules), len(features)), dtype=np.uint8)
    for i, s in enumerate(schedules):
        pos = {op.name: k for k, op in enumerate(s.ops)}
        streams = {op.name: op.stream for op in s.ops if op.kind is OpKind.GPU}
        for j, f in enumerate(features):
            if isinstance(f, OrderFeature):
                pu, pv = pos.get(f.u), pos.get(f.v)
                if pu is None or pv is None:
                    raise TrainingError(f"schedule missing op for feature {f}")
                mat[i, j] = 1 if pu < pv else 0
            else:
                mat[i, j] = 1 if streams[f.u] == streams[f.v] else 0
    return mat


def reference_fit(schedules):
    """The fitted feature list, as the per-row loop and a per-column
    constancy scan chose it."""
    common = set(schedules[0].op_names())
    for s in schedules[1:]:
        common &= set(s.op_names())
    template = schedules[0]
    ops = [n for n in template.op_names() if n in common]
    gpu_ops = [
        op.name
        for op in template.ops
        if op.kind is OpKind.GPU and op.name in common
    ]
    candidates = [OrderFeature(u, v) for u, v in combinations(ops, 2)]
    candidates += [StreamFeature(u, v) for u, v in combinations(gpu_ops, 2)]
    full = reference_raw_matrix(schedules, candidates)
    keep = [
        j for j in range(full.shape[1]) if not np.all(full[:, j] == full[0, j])
    ]
    return [candidates[j] for j in keep]


def _check_against_reference(fit_set, other):
    fx = FeatureExtractor().fit(fit_set)
    assert fx.features == reference_fit(fit_set)
    for schedules in (fit_set, other):
        try:
            want = reference_raw_matrix(schedules, fx.features)
        except (TrainingError, KeyError) as exc:
            with pytest.raises(TrainingError) as raised:
                fx.transform(schedules)
            if isinstance(exc, TrainingError):
                assert str(raised.value) == str(exc)
            continue
        got = fx.transform(schedules).matrix
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@st.composite
def schedule_sets(draw):
    """A fit set and a second set over one pool of CPU/GPU op names.

    Fit schedules hold most of the pool, so most draws keep features;
    the second set's schedules may drop any op, which exercises the
    missing-op error of both feature kinds.
    """
    n_ops = draw(st.integers(2, 6))
    kinds = draw(st.lists(st.booleans(), min_size=n_ops, max_size=n_ops))
    names = [f"op{i}" for i in range(n_ops)]

    def schedule(min_len):
        chosen = draw(st.permutations(names))
        chosen = chosen[: draw(st.integers(min_len, n_ops))]
        return Schedule(
            [
                BoundOp(gpu_op(n), stream=draw(st.integers(0, 2)))
                if kinds[names.index(n)]
                else BoundOp(cpu_op(n))
                for n in chosen
            ]
        )

    fit_set = [schedule(n_ops - 1) for _ in range(draw(st.integers(1, 6)))]
    other = [schedule(0) for _ in range(draw(st.integers(0, 4)))]
    return fit_set, other


@given(schedule_sets())
@settings(max_examples=300, deadline=None)
def test_raw_matrix_matches_reference_on_synthetic_sets(sets):
    _check_against_reference(*sets)


SMALL_PROGRAMS = (
    WorkloadSpec("layered_random", {"layers": 3, "width": 2, "edge_p": 0.5}),
    WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
    WorkloadSpec("wavefront", {"width": 2, "height": 2}),
    WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
)
_SPACES = {}


def _space(i):
    if i not in _SPACES:
        _SPACES[i] = DesignSpace(build_workload(SMALL_PROGRAMS[i]), n_streams=2)
    return _SPACES[i]


@given(
    st.integers(0, len(SMALL_PROGRAMS) - 1),
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(0, 12),
)
@settings(max_examples=40, deadline=None)
def test_raw_matrix_matches_reference_on_small_programs(
    program, seed, n_fit, n_other
):
    """Random schedules of one program: the fit set's common ops include
    sync ops another binding may not insert, so ``other`` can lack one."""
    space = _space(program)
    rng = np.random.default_rng(seed)
    fit_set = [space.random_schedule(rng) for _ in range(n_fit)]
    other = [space.random_schedule(rng) for _ in range(n_other)]
    _check_against_reference(fit_set, other)


def test_missing_op_of_a_stream_feature_is_a_training_error():
    """``a`` and ``c`` are GPU ops, ``b`` a CPU op; the fit set leaves
    ``stream(a,c)`` as the only varying feature."""

    def sched(*ops):
        return Schedule(
            [
                BoundOp(cpu_op(n)) if s is None else BoundOp(gpu_op(n), stream=s)
                for n, s in ops
            ]
        )

    fx = FeatureExtractor().fit(
        [
            sched(("a", 0), ("b", None), ("c", 0)),
            sched(("a", 0), ("b", None), ("c", 1)),
            sched(("a", 1), ("b", None), ("c", 0)),
        ]
    )
    assert fx.features == [StreamFeature("a", "c")]
    with pytest.raises(TrainingError, match="missing op"):
        fx.transform([sched(("a", 0), ("b", None))])
    fx.features = [OrderFeature("a", "c")]
    with pytest.raises(TrainingError, match="missing op"):
        fx.transform([sched(("a", 0), ("b", None))])
