"""repro.advisor — persisted training artifacts and rule-guided scheduling.

The subsystems before this one extract (:mod:`repro.rules`), score
(:mod:`repro.transfer.scoring`), and cross-train
(:mod:`repro.transfer.union`) design rules — but nothing ever fed them
*back* into scheduling.  This package closes the loop:

* :mod:`repro.advisor.store` — a versioned JSON
  :class:`ArtifactStore` keyed by program fingerprint + platform preset,
  holding each workload's scored rules and signature table plus the
  cross-workload union tree; loads validate version, fingerprint, and
  signatures so stale knowledge is rejected, not silently applied.
* :mod:`repro.advisor.publish` — reduces finished pipeline runs to
  artifacts; suite runs publish automatically when given a store path.
* :mod:`repro.advisor.recommend` — ranks an unseen program's candidate
  schedules by union-tree fast-class probability and weighted rule
  satisfaction, emitting a schedule + confidence without simulation
  (and an explicit refusal on degenerate input).
* :mod:`repro.advisor.guided` — a :class:`ScheduleGuide` the search
  strategies accept: a streaming pruning filter for exhaustive/random
  search, an ordering prior for beam, a rollout bias for MCTS.
"""

from repro.advisor.guided import (
    MIN_SOURCE_WEIGHT,
    PRUNE_THRESHOLD,
    ResolvedRule,
    ScheduleGuide,
)
from repro.advisor.publish import (
    publish_artifacts,
    union_artifact,
    workload_artifact,
)
from repro.advisor.recommend import (
    MAX_CANDIDATES,
    STATUS_EMPTY_STORE,
    STATUS_NO_MATCH,
    STATUS_OK,
    STATUS_VACUOUS,
    Recommendation,
    recommend,
)
from repro.advisor.store import (
    ARTIFACT_VERSION,
    ArtifactStore,
    ScoredRule,
    UnionArtifact,
    WorkloadArtifact,
    artifact_from_dict,
    validate_workload_artifact,
)

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactStore",
    "MAX_CANDIDATES",
    "MIN_SOURCE_WEIGHT",
    "PRUNE_THRESHOLD",
    "Recommendation",
    "ResolvedRule",
    "STATUS_EMPTY_STORE",
    "STATUS_NO_MATCH",
    "STATUS_OK",
    "STATUS_VACUOUS",
    "ScheduleGuide",
    "ScoredRule",
    "UnionArtifact",
    "WorkloadArtifact",
    "artifact_from_dict",
    "publish_artifacts",
    "recommend",
    "union_artifact",
    "validate_workload_artifact",
    "workload_artifact",
]
