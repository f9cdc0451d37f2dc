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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
    """

    def __init__(self) -> None:
        self.ops: Tuple[str, ...] = ()
        self.gpu_ops: Tuple[str, ...] = ()
        self.features: List[Feature] = []
        self._fitted = False

    # ------------------------------------------------------------------
    def _set_vocabulary(
        self, template: Schedule, common: frozenset
    ) -> List[Feature]:
        """Fix op order (the template schedule's launch sequence restricted
        to ``common``) and return the pairwise candidate features."""
        self.ops = tuple(n for n in template.op_names() if n in common)
        self.gpu_ops = tuple(
            op.name
            for op in template.ops
            if op.kind is OpKind.GPU and op.name in common
        )
        candidates: List[Feature] = [
            OrderFeature(u, v) for u, v in combinations(self.ops, 2)
        ]
        candidates += [
            StreamFeature(u, v) for u, v in combinations(self.gpu_ops, 2)
        ]
        return candidates

    @staticmethod
    def _varying_columns(full: np.ndarray) -> List[int]:
        """Indices of non-constant columns (the paper drops the rest)."""
        return [
            j
            for j in range(full.shape[1])
            if not np.all(full[:, j] == full[0, j])
        ]

    def fit(self, schedules: Sequence[Schedule]) -> "FeatureExtractor":
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

    def transform(self, schedules: Sequence[Schedule]) -> FeatureMatrix:
        if not self._fitted:
            raise TrainingError("extractor is not fitted")
        return FeatureMatrix(
            matrix=self._raw_matrix(schedules, self.features),
            features=self.features,
        )

    def fit_transform(self, schedules: Sequence[Schedule]) -> FeatureMatrix:
        return self.fit(schedules).transform(schedules)

    # ------------------------------------------------------------------
    def _raw_matrix(
        self, schedules: Sequence[Schedule], features: Sequence[Feature]
    ) -> np.ndarray:
        mat = np.zeros((len(schedules), len(features)), dtype=np.uint8)
        for i, s in enumerate(schedules):
            pos = {op.name: k for k, op in enumerate(s.ops)}
            streams = {
                op.name: op.stream
                for op in s.ops
                if op.kind is OpKind.GPU
            }
            for j, f in enumerate(features):
                if isinstance(f, OrderFeature):
                    pu, pv = pos.get(f.u), pos.get(f.v)
                    if pu is None or pv is None:
                        raise TrainingError(
                            f"schedule missing op for feature {f}"
                        )
                    mat[i, j] = 1 if pu < pv else 0
                else:
                    mat[i, j] = 1 if streams[f.u] == streams[f.v] else 0
        return mat


class StreamingFeatureFit:
    """Incremental :class:`FeatureExtractor` fit over schedule blocks.

    ``fit_transform`` needs every schedule at once — twice over (once to
    intersect the op vocabulary, once for the matrix) — which defeats
    streaming enumeration.  This accumulator takes the common-op
    vocabulary up front (for an exhaustive walk it is exactly
    :meth:`repro.schedule.space.DesignSpace.all_op_names`: program ops
    plus the always-inserted CER/CES sync ops), consumes blocks one at a
    time, and keeps only the *varying* candidate columns — never the
    schedules, and never the constant columns that dominate the candidate
    matrix (most pairwise candidates are dependency-forced).

    Column compaction is incremental: a candidate column is stored only
    from the first block where it deviates from the reference (first)
    row; earlier blocks' values for it are, by definition of "constant so
    far", exactly the reference value, so ``finish`` backfills them and
    the result stays bit-identical to
    ``FeatureExtractor().fit_transform(all_schedules)`` whenever
    ``common_ops`` matches the schedules' true common-op set.  Peak
    memory is one full-width *block* (not space) plus the varying
    columns of everything seen — the difference between labeling a
    10^7-schedule space and not.
    """

    def __init__(self, common_ops: Sequence[str]) -> None:
        self._common = frozenset(common_ops)
        if not self._common:
            raise TrainingError("cannot fit features on an empty vocabulary")
        self._extractor = FeatureExtractor()
        self._candidates: Optional[List[Feature]] = None
        self._first_row: Optional[np.ndarray] = None
        self._varying: List[int] = []  # ascending candidate indices
        self._varying_set: set = set()
        #: Per-block chunks: (candidate indices stored, their values).
        self._chunks: List[Tuple[Tuple[int, ...], np.ndarray]] = []
        self.n_schedules = 0

    @property
    def n_candidates(self) -> int:
        """Pairwise candidate features before constant-column pruning."""
        return len(self._candidates) if self._candidates is not None else 0

    @property
    def n_varying(self) -> int:
        """Candidate columns seen to vary so far (= final feature count
        once the stream is done)."""
        return len(self._varying)

    def add_block(self, schedules: Sequence[Schedule]) -> None:
        """Featurize one block of schedules against the candidate set.

        The first block's first schedule fixes the op order (its launch
        sequence, restricted to the common vocabulary) exactly as
        :meth:`FeatureExtractor.fit` does with the first schedule of a
        fully materialized set.
        """
        if not schedules:
            return
        if self._candidates is None:
            self._candidates = self._fix_vocabulary(schedules[0])
        block = self._extractor._raw_matrix(schedules, self._candidates)
        if self._first_row is None:
            self._first_row = block[0].copy()
        if len(self._varying) < len(self._candidates):
            deviates = np.nonzero(np.any(block != self._first_row, axis=0))[0]
            new = [int(j) for j in deviates if j not in self._varying_set]
            if new:
                self._varying_set.update(new)
                self._varying = sorted(self._varying_set)
        cols = tuple(self._varying)
        self._chunks.append((cols, block[:, list(cols)]))
        self.n_schedules += len(schedules)

    def finish(self) -> Tuple[FeatureExtractor, FeatureMatrix]:
        """Drop constant columns and seal the extractor."""
        if self._candidates is None or not self.n_schedules:
            raise TrainingError("cannot fit features on zero schedules")
        keep = self._varying
        self._extractor.features = [self._candidates[j] for j in keep]
        self._extractor._fitted = True
        full = np.empty((self.n_schedules, len(keep)), dtype=np.uint8)
        col_pos = {j: p for p, j in enumerate(keep)}
        row = 0
        for cols, mat in self._chunks:
            n = mat.shape[0]
            # Columns this chunk predates were still constant then: their
            # values are the reference row's, backfilled by broadcast.
            full[row : row + n] = self._first_row[keep]
            for local, j in enumerate(cols):
                full[row : row + n, col_pos[j]] = mat[:, local]
            row += n
        return self._extractor, FeatureMatrix(
            matrix=full, features=list(self._extractor.features)
        )

    # ------------------------------------------------------------------
    def _fix_vocabulary(self, template: Schedule) -> List[Feature]:
        missing = self._common - set(template.op_names())
        if missing:
            raise TrainingError(
                f"template schedule lacks common ops: {sorted(missing)}"
            )
        return self._extractor._set_vocabulary(template, self._common)


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
    universally, matching rule evaluation in :mod:`repro.rules.score`:
    an ordering feature is 1 iff every ``u``-key op launches before every
    ``v``-key op, and a stream feature is 1 iff all cross pairs share a
    stream.  A feature whose keys a schedule lacks evaluates to 0 there —
    a constraint about structure a program does not have is unsatisfied,
    not an error — which also makes held-out-workload projection total.
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
        sets, each with its own name→key mapping.

        A key enters the vocabulary when it appears (in some schedule)
        in at least ``min_sets`` sets — default ``min(2, len(tagged))``.
        Constant columns over the concatenated sets are dropped.
        """
        if not tagged or not any(schedules for schedules, _ in tagged):
            raise TrainingError("cannot fit mapped features on zero schedules")
        if min_sets is None:
            min_sets = min(2, len(tagged))
        spans = [
            _KeySpans(
                schedules,
                mapping,
                sorted({k for k in mapping.values() if k is not None}),
            )
            for schedules, mapping in tagged
        ]
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
            blocks = [sp.columns(chunk) for sp in spans]
            ref = blocks[0][:, :1]
            for block in blocks:
                varying[lo : lo + len(chunk)] |= (block != ref).any(axis=1)
        self.features = [f for f, keep in zip(candidates, varying) if keep]
        self._fitted = True
        return self

    def transform(
        self, schedules: Sequence[Schedule], mapping: KeyMapping
    ) -> FeatureMatrix:
        if not self._fitted:
            raise TrainingError("extractor is not fitted")
        keys = sorted({k for f in self.features for k in (f.u, f.v)})
        spans = _KeySpans(schedules, mapping, keys)
        matrix = np.zeros((len(schedules), len(self.features)), dtype=np.uint8)
        for lo in range(0, len(self.features), _CHUNK):
            chunk = self.features[lo : lo + _CHUNK]
            matrix[:, lo : lo + len(chunk)] = spans.columns(chunk).T
        return FeatureMatrix(matrix=matrix, features=self.features)


#: Features evaluated per numpy pass; bounds the ``[chunk, schedules]``
#: temporaries of :meth:`_KeySpans.columns`.
_CHUNK = 64


class _KeySpans:
    """Where each key sits in each schedule of one set, in one pass.

    ``[key, schedule]`` arrays: ``first`` / ``last`` launch position of
    the key's ops (``last`` is -1 where the schedule has none) and
    ``lo`` / ``hi`` GPU stream of its GPU ops (``hi`` is -1 where it has
    none).  Universally quantified features reduce to comparisons of
    these: "every ``u`` op before every ``v`` op" is ``last[u] <
    first[v]``, and "all cross pairs share a stream" is ``lo == hi`` on
    both keys with equal ``lo``.
    """

    def __init__(
        self,
        schedules: Sequence[Schedule],
        mapping: KeyMapping,
        keys: Sequence[str],
    ) -> None:
        self.keys = tuple(keys)
        self.n_schedules = len(schedules)
        self._index = {k: i for i, k in enumerate(self.keys)}
        slot = {
            name: self._index[key]
            for name, key in mapping.items()
            if key is not None and key in self._index
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

    def present_keys(self, *, gpu: bool = False) -> List[str]:
        """Keys some schedule has (GPU ops of, with ``gpu``)."""
        seen = (self.hi if gpu else self.last) >= 0
        return [k for k, hit in zip(self.keys, seen.any(axis=1)) if hit]

    def columns(self, features: Sequence[Feature]) -> np.ndarray:
        """``[feature, schedule]`` values; 0 where a key is absent."""
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
