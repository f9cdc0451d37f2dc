"""Build and publish advisor artifacts from per-workload pipeline output.

The bridge between training (:mod:`repro.workloads.generalization` /
:mod:`repro.transfer`) and the persisted store: a finished
:class:`~repro.workloads.generalization.WorkloadRules` reduces to a
:class:`~repro.advisor.store.WorkloadArtifact` (scored rules + signature
table), and a set of them yields one
:class:`~repro.advisor.store.UnionArtifact` (the all-workload union tree
plus the matrix's do-not-transfer advisory edges).  Suite runs call
:func:`publish_artifacts` automatically when given a store path, so every
cross-workload run leaves reusable knowledge behind.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.advisor.store import (
    ArtifactStore,
    ScoredRule,
    UnionArtifact,
    WorkloadArtifact,
)
from repro.errors import TrainingError
from repro.exec.cache import program_fingerprint
from repro.transfer.scoring import score_classes
from repro.transfer.signature import identity_matcher
from repro.transfer.union import UnionWorkload, binary_labels, train_union
from repro.workloads.generalization import WorkloadRules

#: ``(source label, target label, mean discrimination)`` advisory edge.
AdvisoryEdge = Tuple[str, str, float]


def workload_artifact(
    wl: WorkloadRules, *, machine: str, n_streams: int = 2
) -> WorkloadArtifact:
    """Reduce one workload's pipeline output to its persistable artifact.

    Rules are the fastest-class rules, each scored for discrimination on
    the workload's *own* fast/slow classes through the identity signature
    matcher — the weight a future consumer should trust the rule with.
    """
    scores = score_classes(
        wl.rules,
        wl.signature_spans,
        wl.fast_rows,
        matcher=identity_matcher(wl.signatures),
    )
    return WorkloadArtifact(
        label=wl.spec.label,
        spec=wl.spec,
        machine=machine,
        n_streams=n_streams,
        program_fingerprint=program_fingerprint(wl.program),
        signatures=wl.signatures,
        rules=[
            ScoredRule(
                rule=s.rule,
                discrimination=s.discrimination,
                coverage=s.coverage,
            )
            for s in scores
        ],
        n_schedules=wl.table.n_schedules,
    )


def union_artifact(
    per_workload: Sequence[WorkloadRules],
    *,
    machine: str,
    n_streams: int = 2,
    advisories: Optional[Sequence[AdvisoryEdge]] = None,
) -> Optional[UnionArtifact]:
    """Train one tree on *all* workloads and package it for the store.

    Unlike the transfer matrix's leave-one-out evaluation rows, the
    published tree trains on everything available — held-out scoring is
    a measurement; the artifact is for production use on programs that
    were never searched.  Returns ``None`` when union training is not
    possible (fewer than two workloads, or no shared non-constant
    signature features).
    """
    if len(per_workload) < 2:
        return None
    unions = [
        UnionWorkload(
            wl.spec.label,
            wl.signature_spans,
            binary_labels(wl.result.labeling.labels),
        )
        for wl in per_workload
    ]
    try:
        result = train_union(unions)
    except TrainingError:
        return None
    return UnionArtifact(
        machine=machine,
        n_streams=n_streams,
        workloads=[wl.spec.label for wl in per_workload],
        fingerprints=[program_fingerprint(wl.program) for wl in per_workload],
        tree=result.tree,
        features=list(result.extractor.features),
        keys=tuple(result.extractor.keys),
        gpu_keys=tuple(result.extractor.gpu_keys),
        advisories=list(advisories or ()),
        train_accuracy=result.train_accuracy,
    )


def publish_artifacts(
    store: ArtifactStore,
    per_workload: Sequence[WorkloadRules],
    *,
    machine: str,
    n_streams: int = 2,
    advisories: Optional[Sequence[AdvisoryEdge]] = None,
) -> List[str]:
    """Publish one artifact per workload plus the union artifact, then
    remove every other artifact they supersede
    (:meth:`~repro.advisor.store.ArtifactStore.remove_superseded`).

    Returns the written file paths (workloads first, spec order, union
    last when trainable).  When ``advisories`` is ``None`` and at least
    two workloads are present, the do-not-transfer edges are the
    transfer matrix's over ``per_workload``, computed from its
    discrimination grid alone
    (:func:`repro.transfer.matrix.transfer_advisories`): the only union
    tree trained here is the published all-workload one.
    """
    if advisories is None and len(per_workload) >= 2:
        from repro.transfer.matrix import transfer_advisories

        advisories = [
            (c.source, c.target, c.mean_discrimination)
            for c in transfer_advisories(per_workload)
        ]
    artifacts = [
        workload_artifact(wl, machine=machine, n_streams=n_streams)
        for wl in per_workload
    ]
    paths = [store.publish(a) for a in artifacts]
    union = union_artifact(
        per_workload,
        machine=machine,
        n_streams=n_streams,
        advisories=advisories,
    )
    if union is not None:
        artifacts.append(union)
        paths.append(store.publish(union))
    store.remove_superseded(artifacts)
    return paths
