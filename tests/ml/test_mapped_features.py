"""Vectorized union-tree features against the per-row loop they replace.

``reference_fit`` / ``reference_matrix`` are the original
:class:`~repro.ml.features.MappedFeatureExtractor` implementation: group
each schedule's launch positions and GPU streams by key, then evaluate
every feature with Python quantifiers.  The extractor must reproduce its
feature list and its matrices exactly.
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dag.vertex import OpKind, cpu_op, gpu_op
from repro.ml.features import MappedFeatureExtractor, OrderFeature, StreamFeature
from repro.schedule.schedule import BoundOp, Schedule
from repro.schedule.space import DesignSpace
from repro.schedule.sync import cer_name
from repro.workloads import WorkloadSpec, build_workload


def _schedule_groups(schedule, mapping):
    order, streams = {}, {}
    for i, op in enumerate(schedule.ops):
        key = mapping.get(op.name)
        if key is None:
            continue
        order.setdefault(key, []).append(i)
        if op.kind is OpKind.GPU:
            streams.setdefault(key, []).append(op.stream)
    return order, streams


def reference_matrix(schedules, mapping, features):
    mat = np.zeros((len(schedules), len(features)), dtype=np.uint8)
    for i, s in enumerate(schedules):
        order, streams = _schedule_groups(s, mapping)
        for j, f in enumerate(features):
            if isinstance(f, OrderFeature):
                us, vs = order.get(f.u), order.get(f.v)
                if us and vs:
                    mat[i, j] = 1 if max(us) < min(vs) else 0
            else:
                su, sv = streams.get(f.u), streams.get(f.v)
                if su and sv:
                    mat[i, j] = 1 if all(a == b for a in su for b in sv) else 0
    return mat


def reference_fit(tagged, min_sets=None):
    """(keys, gpu_keys, features) as the per-row loop fits them."""
    if min_sets is None:
        min_sets = min(2, len(tagged))
    seen_in, gpu_seen_in = {}, {}
    for schedules, mapping in tagged:
        present, gpu_present = set(), set()
        for s in schedules:
            order, streams = _schedule_groups(s, mapping)
            present |= set(order)
            gpu_present |= set(streams)
        for key in present:
            seen_in[key] = seen_in.get(key, 0) + 1
        for key in gpu_present:
            gpu_seen_in[key] = gpu_seen_in.get(key, 0) + 1
    keys = tuple(sorted(k for k, n in seen_in.items() if n >= min_sets))
    gpu_keys = tuple(sorted(k for k, n in gpu_seen_in.items() if n >= min_sets))
    candidates = [OrderFeature(u, v) for u, v in combinations(keys, 2)]
    candidates += [StreamFeature(u, v) for u, v in combinations(gpu_keys, 2)]
    full = np.concatenate(
        [
            reference_matrix(schedules, mapping, candidates)
            for schedules, mapping in tagged
            if schedules
        ],
        axis=0,
    )
    keep = [
        j for j in range(full.shape[1]) if not np.all(full[:, j] == full[0, j])
    ]
    return keys, gpu_keys, [candidates[j] for j in keep]


def _check(tagged, min_sets):
    ex = MappedFeatureExtractor().fit(tagged, min_sets=min_sets)
    keys, gpu_keys, features = reference_fit(tagged, min_sets)
    assert (ex.keys, ex.gpu_keys) == (keys, gpu_keys)
    assert ex.features == features
    for schedules, mapping in tagged:
        got = ex.transform(schedules, mapping).matrix
        want = reference_matrix(schedules, mapping, features)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


KEYS = ("A", "B", "C", "D", None)
#: Drawn in place of a key: the mapping lacks the op name altogether.
UNMAPPED = "-"


@st.composite
def synthetic_sets(draw):
    """Sets of arbitrary schedules over a shared pool of CPU/GPU op names.

    Each set draws its own many-to-one mapping, which may send a name to
    ``None`` or lack it; ops a schedule omits leave keys absent there.
    """
    n_ops = draw(st.integers(2, 7))
    kinds = draw(st.lists(st.booleans(), min_size=n_ops, max_size=n_ops))
    names = [f"op{i}" for i in range(n_ops)]
    tagged = []
    for _ in range(draw(st.integers(1, 4))):
        drawn = {n: draw(st.sampled_from(KEYS + (UNMAPPED,))) for n in names}
        mapping = {n: key for n, key in drawn.items() if key != UNMAPPED}
        schedules = []
        for _ in range(draw(st.integers(0, 6))):
            chosen = draw(st.permutations(names))
            chosen = chosen[: draw(st.integers(0, n_ops))]
            ops = [
                BoundOp(gpu_op(n), stream=draw(st.integers(0, 2)))
                if kinds[names.index(n)]
                else BoundOp(cpu_op(n))
                for n in chosen
            ]
            schedules.append(Schedule(ops))
        tagged.append((schedules, mapping))
    if not any(schedules for schedules, _ in tagged):
        tagged[0][0].append(Schedule([BoundOp(cpu_op(names[0]))]))
    return tagged


@given(synthetic_sets(), st.sampled_from([None, 1, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_matches_reference_on_synthetic_sets(tagged, min_sets):
    _check(tagged, min_sets)


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


def _common_op_names(space):
    """Ops every schedule of ``space`` holds: the program ops plus the
    always-inserted CER/CES sync ops (stream waits vary by binding)."""
    names = [v.name for v in space.program_ops]
    names += sorted(cer_name(u) for u in space.sync_plan.cer_sources)
    names += sorted(space.sync_plan.ces_name_of.values())
    return names


@given(
    st.lists(
        st.tuples(
            st.integers(0, len(SMALL_PROGRAMS) - 1),
            st.integers(0, 2**32 - 1),
            st.integers(1, 12),
        ),
        min_size=1,
        max_size=3,
    ),
    st.data(),
    st.sampled_from([None, 1, 2, 3]),
)
@settings(max_examples=40, deadline=None)
def test_matches_reference_on_random_schedules_of_small_programs(
    sets, data, min_sets
):
    tagged = []
    for program, seed, n in sets:
        space = _space(program)
        rng = np.random.default_rng(seed)
        schedules = [space.random_schedule(rng) for _ in range(n)]
        names = _common_op_names(space)
        mapping = {
            name: data.draw(st.sampled_from(KEYS), label=name) for name in names
        }
        tagged.append((schedules, mapping))
    _check(tagged, min_sets)


def test_key_shared_by_gpu_and_cpu_op():
    """A key mapped from both a GPU and a CPU op orders by every op but
    takes its streams from the GPU ops alone."""
    mapping = {"g": "K", "c": "K", "h": "H", "x": "X"}

    def sched(order, g_stream, h_stream):
        ops = {
            "g": BoundOp(gpu_op("g"), stream=g_stream),
            "c": BoundOp(cpu_op("c")),
            "h": BoundOp(gpu_op("h"), stream=h_stream),
            "x": BoundOp(cpu_op("x")),
        }
        return Schedule([ops[n] for n in order])

    schedules = [
        sched("gchx", 0, 0),
        sched("hgcx", 0, 1),
        sched("gxhc", 1, 1),
        sched("xhgc", 1, 0),
    ]
    tagged = [(schedules, mapping), (schedules[::-1], dict(mapping))]
    for min_sets in (1, 2, 3):
        _check(tagged, min_sets)
    ex = MappedFeatureExtractor().fit(tagged)
    assert StreamFeature("H", "K") in ex.features
    assert OrderFeature("H", "K") in ex.features


def test_transform_with_rebuilt_extractor():
    """Extractors rebuilt from stored keys/features (as the advisor's
    store does) transform like the fitted one."""
    mapping = {"a": "A", "b": "B", "c": "C"}
    schedules = [
        Schedule([BoundOp(gpu_op("a"), stream=s), BoundOp(cpu_op("b")),
                  BoundOp(gpu_op("c"), stream=t)])
        for s in (0, 1)
        for t in (0, 1)
    ]
    fitted = MappedFeatureExtractor().fit([(schedules, mapping)])
    rebuilt = MappedFeatureExtractor()
    rebuilt.keys, rebuilt.gpu_keys = fitted.keys, fitted.gpu_keys
    rebuilt.features = list(fitted.features)
    rebuilt._fitted = True
    assert np.array_equal(
        rebuilt.transform(schedules, mapping).matrix,
        reference_matrix(schedules, mapping, fitted.features),
    )
