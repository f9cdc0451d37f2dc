"""The schedule table against the four op-by-op scanners it replaced.

Every feature and rule now reads a schedule set through one
:class:`~repro.ml.features.ScheduleTable` and its per-key reduction,
:class:`~repro.ml.features.KeySpans`.  The references below are the code
they replaced, kept as it was (the matching mode is passed as key
functions, since ``by_role`` is gone):

* ``reference_group_schedules`` + ``reference_tally``: rule scoring's
  per-schedule op groups and its per-schedule quantifier loop;
* ``ReferenceKeySpans`` (its own scan, ``lo``/``hi`` stream bounds) with
  the mapped extractor's ``fit_spans`` / ``project`` over it;
* ``ReferenceExtractor``: ``FeatureExtractor`` with ``_set_vocabulary``
  and the ``_raw_matrix`` scan.

The table must give the same counts, features and matrices, and the
same ``TrainingError``, on Hypothesis sets with missing ops, several ops
per key, 1-6 streams and empty sets.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dag.vertex import OpKind, cpu_op, gpu_op
from repro.errors import TrainingError
from repro.ml.features import (
    FeatureExtractor,
    FeatureMatrix,
    MappedFeatureExtractor,
    OrderFeature,
    ScheduleTable,
    StreamFeature,
)
from repro.rules.ruleset import Rule
from repro.rules.score import (
    ROLE,
    op_role,
    rule_satisfied,
    score_rules,
    score_spans,
    spans_of,
)
from repro.schedule.schedule import BoundOp, Schedule
from repro.schedule.space import DesignSpace
from repro.transfer.scoring import score_classes, score_transfer
from repro.transfer.signature import identity_matcher, program_signatures
from repro.workloads import WorkloadSpec, build_workload

# ----------------------------------------------------------------------
# References: rule scoring's grouping and tally.


def reference_group_schedules(schedules, op_key):
    """Every schedule's op groups under ``op_key``."""
    names = {name for s in schedules for name, _, _ in s.key}
    key_of = {name: op_key(name) for name in names}
    out = []
    for schedule in schedules:
        order = {}
        streams = {}
        for i, op in enumerate(schedule.ops):
            key = key_of[op.name]
            if key is None:
                continue
            order.setdefault(key, []).append(i)
            if op.kind is OpKind.GPU:
                streams.setdefault(key, []).append(op.stream)
        out.append((order, streams))
    return tuple(out)


def reference_resolve(rule, rule_key):
    f = rule.feature
    if not isinstance(f, (OrderFeature, StreamFeature)):
        return None
    key_u = rule_key(f.u)
    key_v = rule_key(f.v)
    if key_u is None or key_v is None or key_u == key_v:
        return None
    return (isinstance(f, OrderFeature), key_u, key_v, rule.value)


def reference_tally(resolved, grouped):
    """``(n_transferred, n_satisfied)`` of a resolved rule over grouped
    schedules."""
    if resolved is None:
        return (0, 0)
    is_order, key_u, key_v, value = resolved
    side = 0 if is_order else 1
    n_t = 0
    n_s = 0
    for groups in grouped:
        us = groups[side].get(key_u)
        vs = groups[side].get(key_v)
        if not us or not vs:
            continue
        n_t += 1
        if is_order:  # positions ascend: [0] is the earliest, [-1] the latest
            ok = us[-1] < vs[0] if value else vs[-1] < us[0]
        elif value:
            ok = all(a == b for a in us for b in vs)
        else:
            ok = all(a != b for a in us for b in vs)
        if ok:
            n_s += 1
    return (n_t, n_s)


# ----------------------------------------------------------------------
# References: the span table of union training.

_CHUNK = 64


class ReferenceKeySpans:
    """Where each key sits in each schedule of one set, in one pass."""

    def __init__(self, schedules, mapping):
        self.keys = tuple(sorted({k for k in mapping.values() if k is not None}))
        self.n_schedules = len(schedules)
        self._index = {k: i for i, k in enumerate(self.keys)}
        slot = {
            name: self._index[key]
            for name, key in mapping.items()
            if key is not None
        }
        n_keys = len(self.keys)
        big = int(np.iinfo(np.int32).max)
        shape = (n_keys, self.n_schedules)
        self.first = np.full(shape, big, dtype=np.int32)
        self.last = np.full(shape, -1, dtype=np.int32)
        self.lo = np.full(shape, big, dtype=np.int32)
        self.hi = np.full(shape, -1, dtype=np.int32)
        for i, s in enumerate(schedules):
            first = [big] * n_keys
            last = [-1] * n_keys
            lo = [big] * n_keys
            hi = [-1] * n_keys
            for pos, op in enumerate(s.ops):
                k = slot.get(op.name)
                if k is None:
                    continue
                if last[k] < 0:
                    first[k] = pos
                last[k] = pos
                if op.kind is OpKind.GPU:
                    stream = op.stream
                    if stream < lo[k]:
                        lo[k] = stream
                    if stream > hi[k]:
                        hi[k] = stream
            self.first[:, i] = first
            self.last[:, i] = last
            self.lo[:, i] = lo
            self.hi[:, i] = hi

    def present_keys(self, *, gpu=False):
        seen = (self.hi if gpu else self.last) >= 0
        return [k for k, hit in zip(self.keys, seen.any(axis=1)) if hit]

    def columns(self, features):
        out = np.zeros((len(features), self.n_schedules), dtype=np.uint8)
        for j, f in enumerate(features):
            u = self._index.get(f.u)
            v = self._index.get(f.v)
            if u is None or v is None:
                continue  # the set maps no op to one of the keys
            if isinstance(f, OrderFeature):
                hit = (
                    (self.last[u] >= 0)
                    & (self.last[v] >= 0)
                    & (self.last[u] < self.first[v])
                )
            else:
                hit = (
                    (self.hi[u] >= 0)
                    & (self.lo[u] == self.hi[u])
                    & (self.lo[v] == self.hi[v])
                    & (self.lo[u] == self.lo[v])
                )
            out[j] = hit
        return out


def reference_fit_spans(spans, min_sets=None):
    """``(keys, gpu_keys, features)`` as ``fit_spans`` chose them."""
    if min_sets is None:
        min_sets = min(2, len(spans))
    seen_in = {}
    gpu_seen_in = {}
    for sp in spans:
        for key in sp.present_keys():
            seen_in[key] = seen_in.get(key, 0) + 1
        for key in sp.present_keys(gpu=True):
            gpu_seen_in[key] = gpu_seen_in.get(key, 0) + 1
    keys = tuple(sorted(k for k, n in seen_in.items() if n >= min_sets))
    gpu_keys = tuple(sorted(k for k, n in gpu_seen_in.items() if n >= min_sets))
    candidates = [OrderFeature(u, v) for u, v in combinations(keys, 2)]
    candidates += [StreamFeature(u, v) for u, v in combinations(gpu_keys, 2)]
    spans = [sp for sp in spans if sp.n_schedules]
    varying = np.zeros(len(candidates), dtype=bool)
    for lo in range(0, len(candidates), _CHUNK):
        chunk = candidates[lo : lo + _CHUNK]
        blocks = [sp.columns(chunk) for sp in spans]
        ref = blocks[0][:, :1]
        for block in blocks:
            varying[lo : lo + len(chunk)] |= (block != ref).any(axis=1)
    return keys, gpu_keys, [f for f, keep in zip(candidates, varying) if keep]


def reference_project(features, spans):
    matrix = np.zeros((spans.n_schedules, len(features)), dtype=np.uint8)
    for lo in range(0, len(features), _CHUNK):
        chunk = features[lo : lo + _CHUNK]
        matrix[:, lo : lo + len(chunk)] = spans.columns(chunk).T
    return matrix


# ----------------------------------------------------------------------
# Reference: the paper's feature extractor with its own scan.


class ReferenceExtractor:
    def __init__(self):
        self.ops = ()
        self.gpu_ops = ()
        self.features = []
        self._fitted = False

    def _set_vocabulary(self, template, common):
        self.ops = tuple(n for n in template.op_names() if n in common)
        self.gpu_ops = tuple(
            op.name
            for op in template.ops
            if op.kind is OpKind.GPU and op.name in common
        )
        candidates = [OrderFeature(u, v) for u, v in combinations(self.ops, 2)]
        candidates += [
            StreamFeature(u, v) for u, v in combinations(self.gpu_ops, 2)
        ]
        return candidates

    @staticmethod
    def _varying_columns(full):
        return np.flatnonzero((full != full[:1]).any(axis=0)).tolist()

    def fit(self, schedules):
        if not schedules:
            raise TrainingError("cannot fit features on zero schedules")
        common = set(schedules[0].op_names())
        for s in schedules[1:]:
            common &= set(s.op_names())
        candidates = self._set_vocabulary(schedules[0], frozenset(common))
        full = self._raw_matrix(schedules, candidates)
        keep = self._varying_columns(full)
        self.features = [candidates[j] for j in keep]
        self._fitted = True
        return self

    def transform(self, schedules):
        if not self._fitted:
            raise TrainingError("extractor is not fitted")
        return FeatureMatrix(
            matrix=self._raw_matrix(schedules, self.features),
            features=self.features,
        )

    def _raw_matrix(self, schedules, features):
        names = list(dict.fromkeys(n for f in features for n in (f.u, f.v)))
        column = {name: j for j, name in enumerate(names)}
        positions = []
        streams = []
        for s in schedules:
            pos = [-1] * len(names)
            stream = [-1] * len(names)
            for k, (name, on, _event) in enumerate(s.key):
                j = column.get(name)
                if j is not None:
                    pos[j] = k
                    if on is not None:
                        stream[j] = on
            positions.append(pos)
            streams.append(stream)
        shape = (len(schedules), len(names))
        order = [j for j, f in enumerate(features) if isinstance(f, OrderFeature)]
        same = [j for j, f in enumerate(features) if not isinstance(f, OrderFeature)]
        mat = np.zeros((len(schedules), len(features)), dtype=np.uint8)
        missing = np.zeros(mat.shape, dtype=bool)
        for cols, table, holds in (
            (order, positions, np.less),
            (same, streams, np.equal),
        ):
            if not cols:
                continue
            table = np.array(table, dtype=np.int32).reshape(shape)
            u = table[:, [column[features[j].u] for j in cols]]
            v = table[:, [column[features[j].v] for j in cols]]
            mat[:, cols] = holds(u, v)
            missing[:, cols] = (u < 0) | (v < 0)
        if missing.any():
            _, j = np.argwhere(missing)[0]
            raise TrainingError(f"schedule missing op for feature {features[j]}")
        return mat


# ----------------------------------------------------------------------
# Inputs.

#: Op pool: role-qualified names share roles (``Pack_0``/``Pack_1``,
#: ``Post_x``/``Post_y``), so role and dict matching put several ops
#: under one key.  ``True`` marks GPU ops.
POOL = {
    "Pack_0": True,
    "Pack_1": True,
    "Post_x": False,
    "Post_y": False,
    "Work": True,
    "Work_2": True,
    "Wait": False,
}

#: Rule operands: the pool plus a name no schedule holds.
OPERANDS = list(POOL) + ["Nope"]


class _DictMatcher:
    def __init__(self, source, target):
        self.source, self.target = source, target

    def rule_key(self, name):
        return self.source.get(name)

    def op_key(self, name):
        return self.target.get(name)


@st.composite
def schedule_sets(draw, min_len=0):
    """Schedules over a drawn part of the pool, on 1-6 streams; each
    schedule launches a drawn subset of it (at least ``min_len`` ops, or
    all of it) in a drawn order."""
    names = draw(st.lists(st.sampled_from(list(POOL)), min_size=1, unique=True))
    n_streams = draw(st.integers(1, 6))
    schedules = []
    for _ in range(draw(st.integers(0, 6))):
        chosen = draw(st.permutations(names))
        chosen = chosen[: draw(st.integers(min(min_len, len(names)), len(names)))]
        schedules.append(
            Schedule(
                [
                    BoundOp(gpu_op(n), stream=draw(st.integers(0, n_streams - 1)))
                    if POOL[n]
                    else BoundOp(cpu_op(n))
                    for n in chosen
                ]
            )
        )
    return schedules


@st.composite
def rule_lists(draw):
    pair = st.tuples(st.sampled_from(OPERANDS), st.sampled_from(OPERANDS))
    return [
        Rule(
            draw(st.sampled_from([OrderFeature, StreamFeature]))(u, v),
            draw(st.booleans()),
        )
        for u, v in draw(st.lists(pair, min_size=1, max_size=10))
    ]


@st.composite
def matchers(draw):
    """Exact names (``None``), :data:`ROLE`, or a drawn dict matcher."""
    kind = draw(st.sampled_from(["exact", "role", "dict"]))
    if kind == "exact":
        return None
    if kind == "role":
        return ROLE
    keys = st.sampled_from(["A", "B", "C", None])
    return _DictMatcher(
        {n: draw(keys) for n in OPERANDS}, {n: draw(keys) for n in POOL}
    )


def _key_fns(matcher):
    if matcher is None:
        return (lambda name: name), (lambda name: name)
    return matcher.rule_key, matcher.op_key


# ----------------------------------------------------------------------
# Rule scoring.


def _reference_counts(rules, schedules, matcher):
    rule_key, op_key = _key_fns(matcher)
    grouped = reference_group_schedules(schedules, op_key)
    return [
        (rule, reference_tally(reference_resolve(rule, rule_key), grouped))
        for rule in sorted(rules, key=lambda r: r.text)
    ]


@given(rule_lists(), schedule_sets(), matchers(), st.data())
@settings(max_examples=300, deadline=None)
def test_rule_counts_match_grouped_tally(rules, schedules, matcher, data):
    """``(n_transferred, n_satisfied)`` per rule on the fast rows, the slow
    rows and all rows, and each schedule's verdict."""
    fast = np.array(
        data.draw(
            st.lists(st.booleans(), min_size=len(schedules), max_size=len(schedules))
        ),
        dtype=bool,
    )
    fast_set = [s for s, f in zip(schedules, fast) if f]
    slow_set = [s for s, f in zip(schedules, fast) if not f]
    want_fast = _reference_counts(rules, fast_set, matcher)
    want_slow = _reference_counts(rules, slow_set, matcher)
    want_all = _reference_counts(rules, schedules, matcher)

    spans = spans_of(ScheduleTable(schedules), matcher)
    for got in (
        score_spans(rules, spans, matcher=matcher),
        score_rules(rules, schedules, matcher=matcher),
    ):
        assert [(s.rule, (s.n_transferred, s.n_satisfied)) for s in got] == want_all
    got_fast = score_spans(rules, spans, fast, matcher=matcher)
    assert [(s.rule, (s.n_transferred, s.n_satisfied)) for s in got_fast] == want_fast

    for got in (
        score_classes(rules, spans, fast, matcher=matcher),
        score_transfer(rules, fast_set, slow_set, matcher=matcher),
    ):
        assert [
            (s.rule, (s.n_fast_transferred, s.n_fast_satisfied))
            for s in got
        ] == want_fast
        assert [
            (s.rule, (s.n_slow_transferred, s.n_slow_satisfied))
            for s in got
        ] == want_slow
        assert all(s.n_total == len(schedules) for s in got)

    rule_key, op_key = _key_fns(matcher)
    for rule in rules[:3]:
        for s in schedules:
            n_t, n_s = reference_tally(
                reference_resolve(rule, rule_key),
                reference_group_schedules([s], op_key),
            )
            want = bool(n_s) if n_t else None
            assert rule_satisfied(rule, s, matcher=matcher) is want


SMALL_PROGRAMS = (
    WorkloadSpec("layered_random", {"layers": 3, "width": 2, "edge_p": 0.5}),
    WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
    WorkloadSpec("wavefront", {"width": 2, "height": 2}),
    WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
)
_SPACES = {}


def _space(i):
    if i not in _SPACES:
        program = build_workload(SMALL_PROGRAMS[i])
        _SPACES[i] = (program, DesignSpace(program, n_streams=3))
    return _SPACES[i]


@given(
    st.integers(0, len(SMALL_PROGRAMS) - 1),
    st.integers(0, 2**32 - 1),
    st.integers(0, 12),
)
@settings(max_examples=40, deadline=None)
def test_rule_counts_on_random_schedules_of_small_programs(index, seed, n):
    """Real schedules (sync ops, three streams) under role and signature
    matching, scoring every feature the paper's extractor finds as a rule
    with both values."""
    program, space = _space(index)
    rng = np.random.default_rng(seed)
    schedules = [space.random_schedule(rng) for _ in range(n)]
    signatures = program_signatures(program)
    if schedules:
        features = FeatureExtractor().fit(schedules).features
    else:
        features = [OrderFeature("a", "b")]
    rules = [Rule(f, value) for f in features for value in (True, False)]
    for matcher in (None, ROLE, identity_matcher(signatures)):
        got = score_rules(rules, schedules, matcher=matcher)
        assert [
            (s.rule, (s.n_transferred, s.n_satisfied)) for s in got
        ] == _reference_counts(rules, schedules, matcher)


# ----------------------------------------------------------------------
# Mapped features.

KEYS = ("A", "B", "C", "D", None)


@st.composite
def tagged_sets(draw):
    """Schedule sets, each with its own drawn many-to-one mapping (which
    may send a name to ``None`` or lack it)."""
    tagged = []
    for _ in range(draw(st.integers(1, 4))):
        schedules = draw(schedule_sets())
        drawn = {n: draw(st.sampled_from(KEYS + ("-",))) for n in POOL}
        mapping = {n: key for n, key in drawn.items() if key != "-"}
        tagged.append((schedules, mapping))
    return tagged


@given(tagged_sets(), st.sampled_from([None, 1, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_mapped_features_match_reference_spans(tagged, min_sets):
    """``fit_spans`` / ``project`` over keyed tables choose the features
    and build the matrices the old span tables did."""
    old = [ReferenceKeySpans(s, m) for s, m in tagged]
    new = [ScheduleTable(s).keyed(m.get) for s, m in tagged]
    if not any(sp.n_schedules for sp in old):
        with pytest.raises(TrainingError, match="zero schedules"):
            MappedFeatureExtractor().fit_spans(new, min_sets=min_sets)
        return
    ex = MappedFeatureExtractor().fit_spans(new, min_sets=min_sets)
    keys, gpu_keys, features = reference_fit_spans(old, min_sets)
    assert (ex.keys, ex.gpu_keys, ex.features) == (keys, gpu_keys, features)
    for old_sp, new_sp in zip(old, new):
        got = ex.project(new_sp).matrix
        want = reference_project(features, old_sp)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# The paper's features.


def _outcome(extractor, fit_set, others):
    """The fitted vocabulary and every transform (or its error text)."""
    out = []
    try:
        extractor.fit(fit_set)
    except TrainingError as exc:
        return [str(exc)]
    out.append((extractor.ops, extractor.gpu_ops, extractor.features))
    for schedules in (fit_set, *others):
        try:
            fm = extractor.transform(schedules)
        except TrainingError as exc:
            out.append(str(exc))
            continue
        out.append((fm.matrix.dtype, fm.matrix.shape, fm.matrix.tolist()))
    return out


@given(schedule_sets(min_len=5), schedule_sets())
@settings(max_examples=300, deadline=None)
def test_extractor_matches_reference_scan(fit_set, other):
    """Fit on a set (empty, or missing some ops), transform it and a set
    that may lack any op: the same vocabulary, features, matrices and
    ``TrainingError`` text."""
    want = _outcome(ReferenceExtractor(), fit_set, [other])
    assert _outcome(FeatureExtractor(), fit_set, [other]) == want
    if fit_set:
        fm = FeatureExtractor().fit_transform(fit_set)
        assert (fm.matrix.dtype, fm.matrix.shape, fm.matrix.tolist()) == want[1]
        assert fm.matrix.flags.c_contiguous


def test_fit_transform_builds_one_table(monkeypatch):
    """``fit_transform`` scans its schedules once for both steps."""
    _, space = _space(2)
    schedules = [space.random_schedule(np.random.default_rng(k)) for k in range(8)]
    builds = []
    init = ScheduleTable.__init__

    def counting(self, schedules):
        builds.append(len(schedules))
        init(self, schedules)

    monkeypatch.setattr(ScheduleTable, "__init__", counting)
    fm = FeatureExtractor().fit_transform(schedules)
    assert builds == [len(schedules)]
    monkeypatch.undo()
    ref = ReferenceExtractor().fit(schedules)
    assert fm.features == ref.features
    assert np.array_equal(fm.matrix, ref.transform(schedules).matrix)


def test_table_layout():
    """Slots follow first launch; -1 marks an absent op and, for streams,
    a CPU op."""
    a = Schedule([BoundOp(gpu_op("k"), stream=2), BoundOp(cpu_op("p"))])
    b = Schedule([BoundOp(cpu_op("q")), BoundOp(gpu_op("k"), stream=0)])
    table = ScheduleTable([a, b])
    assert table.names == ("k", "p", "q")
    assert table.position.tolist() == [[0, 1, -1], [1, -1, 0]]
    assert table.stream.tolist() == [[2, -1, -1], [0, -1, -1]]
    spans = table.keyed(op_role)
    assert spans.keys == ("k", "p", "q")
    empty = ScheduleTable([])
    assert (empty.n_schedules, empty.names) == (0, ())
    assert empty.keyed(op_role).relations([OrderFeature("k", "p")])[0].shape == (1, 0)
