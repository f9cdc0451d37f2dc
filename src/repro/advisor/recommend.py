"""Schedule recommendation for programs that were never searched.

Given a *new* :class:`~repro.dag.program.Program`, the recommender
computes its structural signatures, pulls signature-matched knowledge out
of an :class:`~repro.advisor.store.ArtifactStore` — discrimination-
weighted rules plus the union-trained CART tree — and ranks candidate
schedules **without running a single simulation**:

* primary: the union tree's leaf probability of the *fast* class, with
  the candidate projected into the signature-canonical feature space;
* secondary: the normalized weighted rule-satisfaction score
  (:meth:`~repro.advisor.guided.ScheduleGuide.score_detail`);
* tie-break: the schedule fingerprint, for cross-process determinism.

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
from typing import Dict, List, Optional, Sequence

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


def _candidates(
    space: DesignSpace, max_candidates: int, seed: int
) -> List[Schedule]:
    """Deterministic candidate set: the whole space when it fits, a
    seeded deduplicated sample otherwise."""
    if space.count() <= max_candidates:
        return list(space.enumerate_schedules())
    rng = np.random.default_rng(seed)
    out: List[Schedule] = []
    seen: set = set()
    attempts = 0
    while len(out) < max_candidates and attempts < 20 * max_candidates:
        attempts += 1
        schedule = space.random_schedule(rng)
        fp = schedule.fingerprint()
        if fp in seen:
            continue
        seen.add(fp)
        out.append(schedule)
    return out


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
    validate: bool = True,
) -> Recommendation:
    """Recommend a schedule for ``program`` from persisted knowledge.

    ``store`` is an :class:`ArtifactStore` (its union artifact is used
    unless ``union`` is passed explicitly) or a plain artifact sequence.
    ``machine`` filters artifacts by platform preset name.  The result is
    deterministic in (store contents, program, seed).

    Every call lands in the ``advisor.recommend_s`` latency histogram
    (p50/p95/p99 via ``obs``) — the number the ROADMAP's
    advisor-as-a-service item must hold at service rates.
    """
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
            validate=validate,
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
    validate: bool,
) -> Recommendation:
    if isinstance(store, ArtifactStore):
        artifacts = store.load_workloads(machine=machine, validate=validate)
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
    candidates = _candidates(space, max_candidates, seed)
    details = [guide.score_detail(s) for s in candidates]
    rule_scores = np.array([d.score for d in details])
    if union_usable:
        mapping = {name: sig.key for name, sig in signatures.items()}
        x = union.extractor().transform(candidates, mapping).matrix
        p_fast = _p_fast(union, x)
    else:
        p_fast = np.zeros(len(candidates))

    fingerprints = [s.fingerprint() for s in candidates]
    best = min(
        range(len(candidates)),
        key=lambda i: (-p_fast[i], -rule_scores[i], fingerprints[i]),
    )
    pick = details[best]
    rs_norm = (1.0 + pick.score) / 2.0
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
        rule_score=float(pick.score),
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
