"""Schedule recommendation for programs that were never searched.

Given a *new* :class:`~repro.dag.program.Program`, the recommender
computes its structural signatures, pulls signature-matched knowledge out
of an :class:`~repro.advisor.store.ArtifactStore` — discrimination-
weighted rules plus the union-trained CART tree — and ranks candidate
schedules **without running a single simulation**:

* primary: the union tree's leaf probability of the *fast* class, with
  the candidate projected into the signature-canonical feature space;
* secondary: the normalized weighted rule-satisfaction score
  (:meth:`~repro.advisor.guided.ScheduleGuide.scores`);
* tie-break: the schedule fingerprint, for cross-process determinism.

The candidates are scanned once, into a
:class:`~repro.ml.features.ScheduleTable` keyed by the target's
signature keys; the union projection and the rule scores both read it.

Do-not-transfer advisories are honored structurally: the trained
workload most similar to the target (signature-key Jaccard) is found,
and any source carrying an advisory edge *toward that neighbor* is
excluded from the rule pool — if its guidance anti-predicts the nearest
known structure, it has no business steering this one.

Degenerate inputs produce an explicit refusal, never an arbitrary
schedule: an empty store, a program without a single signature match,
and an all-vacuous rule pool each return a :class:`Recommendation` with
``schedule=None`` and a machine-readable ``status``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.advisor.guided import ScheduleGuide
from repro.advisor.store import (
    ArtifactStore,
    UnionArtifact,
    WorkloadArtifact,
    union_is_applicable,
)
from repro.dag.program import Program
from repro.ml.features import ScheduleTable
from repro.schedule.schedule import Schedule
from repro.schedule.space import DesignSpace
from repro.transfer.signature import program_signatures
from repro.transfer.union import FAST

#: Recommendation statuses.
STATUS_OK = "ok"
STATUS_EMPTY_STORE = "empty-store"
STATUS_NO_MATCH = "no-signature-match"
STATUS_VACUOUS = "vacuous-rules"

#: Candidate cap: spaces at most this big are ranked exhaustively;
#: larger ones are sampled (seeded, deduplicated).
MAX_CANDIDATES = 1024

#: Random draws allowed per candidate slot before sampling stops short.
DRAWS_PER_CANDIDATE = 20

#: 32-bit words the sampler reads from its generator per call.
BLOCK = 4096


@dataclass
class Recommendation:
    """The advisor's answer for one program."""

    status: str
    schedule: Optional[Schedule]
    #: [0, 1]; 0 whenever no recommendation is made.
    confidence: float
    #: Normalized rule-satisfaction score of the pick ([-1, 1]).
    rule_score: float = 0.0
    #: Union-tree leaf P(fast) of the pick (0 when no union tree).
    p_fast: float = 0.0
    n_rules: int = 0
    n_candidates: int = 0
    #: Labels of artifacts whose rules reached the target.
    sources: List[str] = field(default_factory=list)
    #: Sources dropped by do-not-transfer advisories.
    excluded_sources: List[str] = field(default_factory=list)
    note: str = ""

    @property
    def recommended(self) -> bool:
        return self.status == STATUS_OK and self.schedule is not None

    def to_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "recommended": self.recommended,
            "schedule": (
                [
                    {"name": op.name, "stream": op.stream, "event": op.event}
                    for op in self.schedule.ops
                ]
                if self.schedule is not None
                else None
            ),
            "confidence": self.confidence,
            "rule_score": self.rule_score,
            "p_fast": self.p_fast,
            "n_rules": self.n_rules,
            "n_candidates": self.n_candidates,
            "sources": list(self.sources),
            "excluded_sources": list(self.excluded_sources),
            "note": self.note,
        }


# ----------------------------------------------------------------------
def _advisory_exclusions(
    union: Optional[UnionArtifact],
    artifacts: Sequence[WorkloadArtifact],
    target_keys: set,
) -> List[str]:
    """Sources whose advisories point at the target's nearest neighbor."""
    if union is None or not union.advisories or not artifacts:
        return []
    best_label = None
    best_sim = -1.0
    for artifact in sorted(artifacts, key=lambda a: a.label):
        keys = {sig.key for sig in artifact.signatures.values()}
        denom = len(keys | target_keys)
        sim = len(keys & target_keys) / denom if denom else 0.0
        if sim > best_sim:
            best_sim, best_label = sim, artifact.label
    if best_label is None or best_sim <= 0.0:
        return []
    return sorted(
        {src for src, dst, _ in union.advisories if dst == best_label}
    )


class _DrawSource:
    """``np.random.default_rng(seed).integers(n)``, answered from 32-bit
    words the generator hands out ``BLOCK`` at a time.

    Below ``2**32`` numpy bounds an integer by Lemire's rule over the
    generator's 32-bit words, the words a ``uint32`` block reads in the
    same order: ``n == 1`` reads none; otherwise ``m = word * n`` is
    redrawn while its low 32 bits are below ``(2**32 - n) % n``, and the
    answer is ``m >> 32``.  So every answer equals the scalar call's,
    while the generator runs up to a block ahead of it."""

    __slots__ = ("_words",)

    def __init__(self, seed: int) -> None:
        self._words = self._read(np.random.default_rng(seed))

    @staticmethod
    def _read(rng: np.random.Generator) -> Iterator[int]:
        while True:
            yield from rng.integers(
                0, 1 << 32, size=BLOCK, dtype=np.uint32
            ).tolist()

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        if not 1 < n < 1 << 32:
            raise ValueError(f"n must be in [1, 2**32 - 1], got {n}")
        m = next(self._words) * n
        if m & 0xFFFFFFFF < n:  # n bounds the threshold: skip the modulo
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = next(self._words) * n
        return m >> 32


def _candidates(
    space: DesignSpace, max_candidates: int, seed: int
) -> Tuple[List[Schedule], int]:
    """Deterministic candidate set and the number of random draws made:
    the whole space (no draws) when it fits, a seeded deduplicated sample
    of at most ``DRAWS_PER_CANDIDATE * max_candidates`` draws otherwise.

    Draws are decision paths; each schedule has exactly one, so a
    schedule is built only for a path not drawn before.  The draws read
    a :class:`_DrawSource` rather than a ``Generator``: its generator
    runs ahead of the draws, which is exact only because the source owns
    it, nothing else reads it, and it is dropped on return."""
    if space.count() <= max_candidates:
        return list(space.enumerate_schedules()), 0
    rng = _DrawSource(seed)
    out: List[Schedule] = []
    seen: Set[Tuple[int, ...]] = set()
    draws = 0
    max_draws = DRAWS_PER_CANDIDATE * max_candidates
    while len(out) < max_candidates and draws < max_draws:
        draws += 1
        path = space.random_path(rng)
        if path in seen:
            continue
        seen.add(path)
        out.append(space.schedule_at(path))
    return out, draws


def _p_fast(union: UnionArtifact, x: np.ndarray) -> np.ndarray:
    """Leaf-proportion probability of the fast class per row of ``x``."""
    proba = union.tree.predict_proba(x)
    return proba[:, FAST] if proba.shape[1] > FAST else np.zeros(len(proba))


# ----------------------------------------------------------------------
def recommend(
    program: Program,
    store: "ArtifactStore | Sequence[WorkloadArtifact]",
    *,
    union: Optional[UnionArtifact] = None,
    machine: Optional[str] = None,
    n_streams: int = 2,
    max_candidates: int = MAX_CANDIDATES,
    seed: int = 0,
) -> Recommendation:
    """Recommend a schedule for ``program`` from persisted knowledge.

    ``store`` is an :class:`ArtifactStore` (its union artifact is used
    unless ``union`` is passed explicitly) or a plain artifact sequence.
    ``machine`` filters artifacts by platform preset name.  The result is
    deterministic in (store contents, program, seed).  ``max_candidates``
    (at least 1) caps the schedules ranked; ``seed`` (an integer >= 0)
    seeds the sample of a space larger than the cap.

    Every call lands in the ``advisor.recommend_s`` latency histogram
    (p50/p95/p99 via ``obs``).
    """
    if max_candidates < 1:
        raise ValueError("max_candidates must be >= 1")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    t0 = time.perf_counter()
    with obs.span("advisor.recommend", program=program.name):
        rec = _recommend(
            program,
            store,
            union=union,
            machine=machine,
            n_streams=n_streams,
            max_candidates=max_candidates,
            seed=seed,
        )
    obs.observe("advisor.recommend_s", time.perf_counter() - t0)
    obs.add("advisor.recommendations")
    obs.add(f"advisor.status.{rec.status}")
    return rec


def _recommend(
    program: Program,
    store: "ArtifactStore | Sequence[WorkloadArtifact]",
    *,
    union: Optional[UnionArtifact],
    machine: Optional[str],
    n_streams: int,
    max_candidates: int,
    seed: int,
) -> Recommendation:
    if isinstance(store, ArtifactStore):
        artifacts = store.load_workloads(machine=machine)
        if union is None:
            union = store.load_union(machine=machine)
    else:
        artifacts = [
            a
            for a in store
            if machine is None or a.machine == machine
        ]
    if not artifacts:
        return Recommendation(
            status=STATUS_EMPTY_STORE,
            schedule=None,
            confidence=0.0,
            note="the artifact store has no trained workloads",
        )

    signatures = program_signatures(program)
    target_keys = {sig.key for sig in signatures.values()}
    excluded = _advisory_exclusions(union, artifacts, target_keys)
    # min_source_weight=0 keeps even zero-discrimination rules resolved,
    # so "rules matched but all are vacuous" is distinguishable from "no
    # structural match at all" — and weights rank naturally either way.
    guide = ScheduleGuide.from_artifacts(
        artifacts,
        signatures,
        min_source_weight=0.0,
        exclude_sources=excluded,
    )
    union_usable = union_is_applicable(union, tuple(target_keys))

    if guide.n_rules == 0 and not union_usable:
        return Recommendation(
            status=STATUS_NO_MATCH,
            schedule=None,
            confidence=0.0,
            excluded_sources=excluded,
            note=(
                "no trained rule or union feature matches the program's "
                "structural signatures"
            ),
        )
    if guide.weight_total == 0.0 and not union_usable:
        return Recommendation(
            status=STATUS_VACUOUS,
            schedule=None,
            confidence=0.0,
            n_rules=guide.n_rules,
            excluded_sources=excluded,
            note=(
                "every signature-matched rule has zero discrimination; "
                "the store carries no usable guidance for this program"
            ),
        )

    space = DesignSpace(program, n_streams=n_streams)
    with obs.span("advisor.candidates", max_candidates=max_candidates) as span:
        candidates, draws = _candidates(space, max_candidates, seed)
        span.set(
            n_candidates=len(candidates),
            draws=draws,
            capped=draws > 0 and len(candidates) < max_candidates,
        )
    obs.add("advisor.candidate_draws", draws)
    spans = ScheduleTable(candidates).keyed(guide.op_keys.get)
    rule_scores = guide.scores(spans)
    if union_usable:
        p_fast = _p_fast(union, union.extractor().project(spans).matrix)
    else:
        p_fast = np.zeros(len(candidates))

    fingerprints = [s.fingerprint() for s in candidates]
    best = min(
        range(len(candidates)),
        key=lambda i: (-p_fast[i], -rule_scores[i], fingerprints[i]),
    )
    rule_score = float(rule_scores[best])
    rs_norm = (1.0 + rule_score) / 2.0
    if union_usable and guide.weight_total > 0.0:
        confidence = 0.5 * float(p_fast[best]) + 0.5 * rs_norm
    elif union_usable:
        confidence = float(p_fast[best])
    else:
        confidence = rs_norm
    sources = sorted({s for r in guide.rules for s in r.sources})
    return Recommendation(
        status=STATUS_OK,
        schedule=candidates[best],
        confidence=max(0.0, min(1.0, confidence)),
        rule_score=rule_score,
        p_fast=float(p_fast[best]),
        n_rules=guide.n_rules,
        n_candidates=len(candidates),
        sources=sources,
        excluded_sources=excluded,
        note=(
            "ranked by union-tree P(fast), then weighted rule satisfaction"
            if union_usable
            else "ranked by weighted rule satisfaction (no union tree)"
        ),
    )
