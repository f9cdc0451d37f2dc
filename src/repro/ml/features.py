"""Sequence-to-vector feature transformation (paper §IV-B).

"An ordering feature is defined for each pairwise combination of traversal
operations u and v.  This feature is 1 if u appears in the traversal before
v, and 0 otherwise.  Similarly, a stream assignment feature is defined for
each pairwise combination of BoundGPU operations.  This feature is 1 if u
and v occur in the same stream, and 0 otherwise.  Many of these feature
entries will have the same value for all traversals ... Such features are
removed."

Feature naming matches the paper's rule text:

* ordering feature value 1 → "u before v";     value 0 → "v before u"
* stream feature value 1   → "u same stream as v"; value 0 →
  "u different stream than v"

A schedule set is scanned once, into a :class:`ScheduleTable` (each op
name's launch position and GPU stream per schedule).  Its readers — the
paper's features here, the union trees' :class:`MappedFeatureExtractor`
and rule scoring in :mod:`repro.rules.score` — reduce it to keys with
:meth:`ScheduleTable.keyed`, and :meth:`KeySpans.relations` is the one
evaluation of the order and stream relations they all share.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dag.vertex import OpKind
from repro.errors import TrainingError
from repro.schedule.schedule import Schedule


@dataclass(frozen=True)
class OrderFeature:
    """Binary feature: 1 iff ``u`` precedes ``v`` in the launch sequence."""

    u: str
    v: str

    def describe(self, value: bool) -> str:
        return f"{self.u} before {self.v}" if value else f"{self.v} before {self.u}"

    @property
    def name(self) -> str:
        return f"order({self.u},{self.v})"


@dataclass(frozen=True)
class StreamFeature:
    """Binary feature: 1 iff GPU ops ``u`` and ``v`` share a stream."""

    u: str
    v: str

    def describe(self, value: bool) -> str:
        if value:
            return f"{self.u} same stream as {self.v}"
        return f"{self.u} different stream than {self.v}"

    @property
    def name(self) -> str:
        return f"stream({self.u},{self.v})"


Feature = object  # OrderFeature | StreamFeature


@dataclass
class FeatureMatrix:
    """Extracted features for a set of schedules."""

    matrix: np.ndarray  # shape (n_schedules, n_features), dtype uint8
    features: List[Feature]

    @property
    def n_features(self) -> int:
        return len(self.features)

    def column(self, feature: Feature) -> np.ndarray:
        return self.matrix[:, self.features.index(feature)]


class FeatureExtractor:
    """Builds feature vectors over a fixed operation vocabulary.

    The vocabulary (which ops exist, which are GPU) is fixed at ``fit``
    time from the schedules' *common* operations, so an extractor fitted
    on a search subset can featurize the full space consistently (needed
    for the Table V generalization experiment).  Constant columns are
    dropped at fit time; ``transform`` reuses the fitted set.

    Each call scans its schedules once, into a :class:`ScheduleTable`
    keyed by op name (:meth:`spans`); :meth:`fit_transform` reads one
    table for both steps, and :meth:`transform_spans` reads the spans of
    a set featurized many times, scanned once.
    """

    def __init__(self) -> None:
        self.ops: Tuple[str, ...] = ()
        self.gpu_ops: Tuple[str, ...] = ()
        self.features: List[Feature] = []
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, schedules: Sequence[Schedule]) -> "FeatureExtractor":
        self._fit(ScheduleTable(schedules))
        return self

    def transform(self, schedules: Sequence[Schedule]) -> FeatureMatrix:
        return self.transform_spans(self.spans(schedules))

    def fit_transform(self, schedules: Sequence[Schedule]) -> FeatureMatrix:
        return self.transform_spans(self._fit(ScheduleTable(schedules)))

    def transform_spans(self, spans: "KeySpans") -> FeatureMatrix:
        """The fitted features on the set ``spans`` was built from by
        :meth:`spans`."""
        if not self._fitted:
            raise TrainingError("extractor is not fitted")
        return FeatureMatrix(
            matrix=self._matrix(spans, self.features), features=self.features
        )

    @staticmethod
    def spans(schedules: Sequence[Schedule]) -> "KeySpans":
        """``schedules`` scanned into a :class:`ScheduleTable` keyed by op
        name, the keys the features name."""
        return ScheduleTable(schedules).keyed(_exact)

    # ------------------------------------------------------------------
    def _fit(self, table: "ScheduleTable") -> "KeySpans":
        """Fix op order (the first schedule's launch sequence restricted to
        the ops every schedule has) and keep the varying pairwise
        features; returns the table keyed by op name."""
        if not table.n_schedules:
            raise TrainingError("cannot fit features on zero schedules")
        # The first schedule's ops hold the first slots, in launch order.
        common = (table.position >= 0).all(axis=0)
        self.ops = tuple(n for n, c in zip(table.names, common) if c)
        self.gpu_ops = tuple(
            n
            for n, c, stream in zip(table.names, common, table.stream[0])
            if c and stream >= 0
        )
        candidates: List[Feature] = [
            OrderFeature(u, v) for u, v in combinations(self.ops, 2)
        ]
        candidates += [
            StreamFeature(u, v) for u, v in combinations(self.gpu_ops, 2)
        ]
        spans = table.keyed(_exact)
        full = self._matrix(spans, candidates)
        # The paper drops the columns that are constant over the set.
        keep = (full != full[:1]).any(axis=0)
        self.features = [f for f, k in zip(candidates, keep) if k]
        self._fitted = True
        return spans

    @staticmethod
    def _matrix(spans: "KeySpans", features: Sequence[Feature]) -> np.ndarray:
        """``[schedule, feature]`` values; a feature naming an op some
        schedule lacks (as a GPU op, for a stream feature) raises
        :class:`TrainingError`."""
        defined, holds = spans.relations(features)
        if not defined.all():
            _, j = np.argwhere(~defined.T)[0]
            raise TrainingError(f"schedule missing op for feature {features[j]}")
        return np.ascontiguousarray(holds.T, dtype=np.uint8)


def _exact(name: str) -> str:
    return name


#: Schedule op name -> canonical key; ``None``/absent ops do not
#: participate in mapped features.
KeyMapping = Mapping[str, Optional[str]]


class MappedFeatureExtractor:
    """Feature extraction over canonical op *keys* instead of raw names.

    The base :class:`FeatureExtractor` identifies operations by name,
    which confines a feature space to a single program.  This extractor
    takes, alongside each schedule set, a name→key mapping (typically
    structural signature keys from
    :func:`repro.transfer.signature.program_signatures`) and builds the
    pairwise features over keys shared by at least ``min_sets`` tagged
    sets — one canonical feature space several programs project into.
    Requiring two sets (the default) grounds every feature in transfer:
    some *other* program can express it too; strict intersection across
    all sets would leave nothing when even one comm-free workload joins
    a union of communication patterns.

    Several ops of one schedule may share a key; features quantify
    universally, as rule evaluation in :mod:`repro.rules.score` does
    (both read :meth:`KeySpans.relations`): an ordering feature is 1 iff
    every ``u``-key op launches before every ``v``-key op, and a stream
    feature is 1 iff all cross pairs share a stream.  A feature whose
    keys a schedule lacks evaluates to 0 there — a constraint about
    structure a program does not have is unsatisfied, not an error —
    which also makes held-out-workload projection total.

    :meth:`fit_spans` and :meth:`project` take :class:`KeySpans`, so a
    caller that trains on the same sets several times (the transfer
    matrix's leave-one-out folds, through
    :class:`repro.transfer.union.UnionWorkload`) scans each set once;
    :meth:`fit` and :meth:`transform` scan each set they are given.
    """

    def __init__(self) -> None:
        self.keys: Tuple[str, ...] = ()
        self.gpu_keys: Tuple[str, ...] = ()
        self.features: List[Feature] = []
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(
        self,
        tagged: Sequence[Tuple[Sequence[Schedule], KeyMapping]],
        *,
        min_sets: Optional[int] = None,
    ) -> "MappedFeatureExtractor":
        """Fix the key vocabulary and feature set from several schedule
        sets, each with its own name→key mapping (see :meth:`fit_spans`)."""
        return self.fit_spans(
            [
                ScheduleTable(schedules).keyed(mapping.get)
                for schedules, mapping in tagged
            ],
            min_sets=min_sets,
        )

    def fit_spans(
        self, spans: Sequence["KeySpans"], *, min_sets: Optional[int] = None
    ) -> "MappedFeatureExtractor":
        """Fit from one :class:`KeySpans` per schedule set.

        A key enters the vocabulary when it appears (in some schedule)
        in at least ``min_sets`` sets — default ``min(2, len(spans))``.
        Constant columns over the concatenated sets are dropped.
        """
        if not spans or not any(sp.n_schedules for sp in spans):
            raise TrainingError("cannot fit mapped features on zero schedules")
        if min_sets is None:
            min_sets = min(2, len(spans))
        seen_in: Dict[str, int] = {}
        gpu_seen_in: Dict[str, int] = {}
        for sp in spans:
            for key in sp.present_keys():
                seen_in[key] = seen_in.get(key, 0) + 1
            for key in sp.present_keys(gpu=True):
                gpu_seen_in[key] = gpu_seen_in.get(key, 0) + 1
        self.keys = tuple(
            sorted(k for k, n in seen_in.items() if n >= min_sets)
        )
        self.gpu_keys = tuple(
            sorted(k for k, n in gpu_seen_in.items() if n >= min_sets)
        )
        candidates: List[Feature] = [
            OrderFeature(u, v) for u, v in combinations(self.keys, 2)
        ]
        candidates += [
            StreamFeature(u, v) for u, v in combinations(self.gpu_keys, 2)
        ]
        # A column is constant over the concatenated sets iff it equals
        # the first row's value everywhere.
        spans = [sp for sp in spans if sp.n_schedules]
        varying = np.zeros(len(candidates), dtype=bool)
        for lo in range(0, len(candidates), _CHUNK):
            chunk = candidates[lo : lo + _CHUNK]
            blocks = [sp.relations(chunk)[1] for sp in spans]
            ref = blocks[0][:, :1]
            for block in blocks:
                varying[lo : lo + len(chunk)] |= (block != ref).any(axis=1)
        self.features = [f for f, keep in zip(candidates, varying) if keep]
        self._fitted = True
        return self

    def transform(
        self, schedules: Sequence[Schedule], mapping: KeyMapping
    ) -> FeatureMatrix:
        """Project one schedule set (see :meth:`project`)."""
        return self.project(ScheduleTable(schedules).keyed(mapping.get))

    def project(self, spans: "KeySpans") -> FeatureMatrix:
        """The fitted features' values on the set ``spans`` was built from;
        a feature key the set does not map evaluates to 0."""
        if not self._fitted:
            raise TrainingError("extractor is not fitted")
        _, holds = spans.relations(self.features)
        return FeatureMatrix(
            matrix=np.ascontiguousarray(holds.T, dtype=np.uint8),
            features=self.features,
        )


#: Features evaluated per numpy pass; bounds the ``[chunk, schedule,
#: stream]`` temporaries of :meth:`KeySpans.relations`.
_CHUNK = 64


class ScheduleTable:
    """One schedule set, scanned once: where each op name launches, and on
    which GPU stream.

    Every op name the set launches gets a slot, numbered in order of first
    launch, so the first schedule's ops hold the first slots in its launch
    order.  ``position`` and ``stream`` are ``[schedule, slot]`` int32
    arrays: the op's launch index, and a GPU op's stream; -1 where the
    schedule lacks the op (and, in ``stream``, where the op is not a GPU
    op).  Features and rules read the table through :meth:`keyed`.
    """

    def __init__(self, schedules: Sequence[Schedule]) -> None:
        self.n_schedules = len(schedules)
        gpu = OpKind.GPU
        slot_of: Dict[str, int] = {}
        slots: List[int] = []
        streams: List[int] = []
        lengths: List[int] = []
        for s in schedules:
            lengths.append(len(s.ops))
            for op in s.ops:
                vertex = op.vertex
                slots.append(slot_of.setdefault(vertex.name, len(slot_of)))
                streams.append(op.stream if vertex.kind is gpu else -1)
        self.names: Tuple[str, ...] = tuple(slot_of)
        counts = np.asarray(lengths, dtype=np.intp)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        # Flat index of each op's [schedule, slot] cell.
        cells = np.repeat(np.arange(self.n_schedules), counts) * len(self.names)
        cells += np.asarray(slots, dtype=np.intp)
        shape = (self.n_schedules, len(self.names))
        self.position = np.full(shape, -1, dtype=np.int32)
        self.position.flat[cells] = np.arange(len(slots)) - starts
        self.stream = np.full(shape, -1, dtype=np.int32)
        self.stream.flat[cells] = streams

    def keyed(self, key_of: Callable[[str], Optional[str]]) -> "KeySpans":
        """The table per key: ``key_of`` maps each op name, once, to its key
        (several names may share one), or to ``None`` to leave it out."""
        return KeySpans(self, key_of)


class KeySpans:
    """A :class:`ScheduleTable` reduced to keys.

    ``[key, schedule]`` arrays ``first`` / ``last`` hold the launch
    position of the key's earliest and latest op (``last`` is -1 where
    the schedule has none), and the ``[key, schedule, stream]`` boolean
    array ``streams`` marks the streams its GPU ops run on.  The keys
    are those of the names the table holds; one more row, absent from
    every schedule, stands for any other key, so a feature or rule naming
    a key the set lacks evaluates as absent.
    """

    def __init__(
        self, table: ScheduleTable, key_of: Callable[[str], Optional[str]]
    ) -> None:
        slot_keys = [key_of(name) for name in table.names]
        self.keys = tuple(sorted({k for k in slot_keys if k is not None}))
        self.n_schedules = table.n_schedules
        self._index = {k: i for i, k in enumerate(self.keys)}
        # Slots sorted by key, so one ``reduceat`` per array folds them.
        grouped = sorted(
            (self._index[k], j) for j, k in enumerate(slot_keys) if k is not None
        )
        n_streams = int(table.stream.max(initial=-1)) + 1
        shape = (len(self.keys) + 1, self.n_schedules)
        big = np.iinfo(np.int32).max
        self.first = np.full(shape, big, dtype=np.int32)
        self.last = np.full(shape, -1, dtype=np.int32)
        self.streams = np.zeros(shape + (n_streams,), dtype=bool)
        if grouped:
            keys, cols = np.array(grouped).T
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            pos = table.position[:, cols]
            self.last[:-1] = np.maximum.reduceat(pos, starts, axis=1).T
            self.first[:-1] = np.minimum.reduceat(
                np.where(pos < 0, big, pos), starts, axis=1
            ).T
            on = table.stream[:, cols, None] == np.arange(n_streams)
            self.streams[:-1] = np.logical_or.reduceat(
                on, starts, axis=1
            ).transpose(1, 0, 2)
        #: ``[key, schedule]`` number of distinct streams the key's GPU
        #: ops run on (0: the schedule has none).
        self.stream_counts = self.streams.sum(axis=2)

    def present_keys(self, *, gpu: bool = False) -> List[str]:
        """Keys some schedule has (GPU ops of, with ``gpu``)."""
        seen = (self.stream_counts > 0) if gpu else (self.last >= 0)
        return [k for k, hit in zip(self.keys, seen.any(axis=1)) if hit]

    def relations(
        self,
        features: Sequence[Feature],
        values: Optional[Sequence[bool]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(defined, holds)``: ``[feature, schedule]`` booleans of each
        feature's relation with its value (``values``, default all
        ``True``), quantified over every cross pair of the two keys' ops.

        This is the one evaluation of the order and stream relations.  A
        feature is defined on a schedule that holds ops of both keys (GPU
        ops, for a stream feature); ``holds`` is set where it is defined
        and the relation holds:

        * order ``True``: every ``u`` op launches before every ``v`` op,
          ``last[u] < first[v]``; ``False``: every ``v`` op before every
          ``u`` op;
        * stream ``True``: every cross pair shares a stream, so both keys
          run on exactly one stream, the same one; ``False``: no cross
          pair does, so their stream sets are disjoint.
        """
        n = len(features)
        # A key the table lacks indexes the last row, absent everywhere.
        u = np.array([self._index.get(f.u, -1) for f in features], dtype=np.intp)
        v = np.array([self._index.get(f.v, -1) for f in features], dtype=np.intp)
        value = np.ones(n, dtype=bool) if values is None else np.array(values, bool)
        is_order = np.array([isinstance(f, OrderFeature) for f in features], bool)
        defined = np.zeros((n, self.n_schedules), dtype=bool)
        holds = np.zeros_like(defined)
        for order, kind in ((True, is_order), (False, ~is_order)):
            rows_of_kind = np.flatnonzero(kind)
            for lo in range(0, len(rows_of_kind), _CHUNK):
                rows = rows_of_kind[lo : lo + _CHUNK]
                a, b, val = u[rows], v[rows], value[rows]
                if order:
                    a, b = np.where(val, a, b), np.where(val, b, a)
                    both = (self.last[a] >= 0) & (self.last[b] >= 0)
                    hit = self.last[a] < self.first[b]
                else:
                    count_a, count_b = self.stream_counts[a], self.stream_counts[b]
                    both = (count_a > 0) & (count_b > 0)
                    shared = (self.streams[a] & self.streams[b]).any(axis=2)
                    single = (count_a == 1) & (count_b == 1)
                    hit = np.where(val[:, None], single & shared, ~shared)
                defined[rows] = both
                holds[rows] = both & hit
        return defined, holds
