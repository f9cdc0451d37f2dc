"""Persisted rule/model artifacts keyed by program fingerprint + platform.

A suite run distills each workload into knowledge worth keeping: the
fastest-class :class:`~repro.rules.ruleset.Rule`s with their self-
discrimination scores, the structural
:class:`~repro.transfer.signature.OpSignature` table that makes those
rules transferable, and (across workloads) one union-trained CART tree in
the signature-canonical feature space.  The :class:`ArtifactStore`
persists all of it as versioned JSON so *future* sessions — recommending
a schedule for an unseen program (:mod:`repro.advisor.recommend`) or
pruning a new search (:mod:`repro.advisor.guided`) — can reuse the
training without re-running a single pipeline.

Integrity contract
------------------
Artifacts are addressed by a key derived from the **program
fingerprint** (:func:`repro.exec.cache.program_fingerprint`), the
machine preset name, and the stream count, so retraining the same
workload on the same platform overwrites its artifact in place.  A
retrained artifact whose key changed (its generator changed since the
last training) replaces the old file too:
:func:`~repro.advisor.publish.publish_artifacts` removes every other
artifact of the same :attr:`~WorkloadArtifact.identity`.  Loading
validates three things and raises
:class:`~repro.errors.ArtifactError` on any failure:

* **version** — the JSON carries :data:`ARTIFACT_VERSION`; a mismatch is
  an error, never a silent best-effort parse;
* **fingerprint** — the stored spec is rebuilt and its program
  fingerprint recomputed; a stale artifact (the generator changed since
  it was published) is rejected;
* **signatures** — the stored signature table must equal the rebuilt
  program's :func:`~repro.transfer.signature.program_signatures`.

Every read validates: a caller never sees an artifact whose bytes were
not checked.  Validation rebuilds the workload, which costs milliseconds
for registry specs, so a store object validates each artifact once: it
keeps the bytes it validated under each key, and a later read of the
same bytes skips the rebuild while changed bytes are validated again.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ArtifactError
from repro.ml.features import Feature
from repro.ml.tree import DecisionTree
from repro.rules.ruleset import Rule
from repro.rules.serialize import feature_from_dict, feature_to_dict, rule_from_dict, rule_to_dict
from repro.transfer.signature import (
    OpSignature,
    signature_from_dict,
    signature_to_dict,
)
from repro.workloads.spec import WorkloadSpec

#: Schema version of every artifact this build reads and writes.
ARTIFACT_VERSION = 1

#: Artifact kinds.
KIND_WORKLOAD = "workload"
KIND_UNION = "union"


def _short_digest(*parts: object) -> str:
    payload = json.dumps(list(map(str, parts)), separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def _spec_to_dict(spec: WorkloadSpec) -> Dict[str, object]:
    return {
        "family": spec.family,
        "params": dict(spec.params),
        "seed": spec.seed,
    }


def _spec_from_dict(data: Dict[str, object]) -> WorkloadSpec:
    return WorkloadSpec(
        str(data["family"]),
        data.get("params") or {},  # type: ignore[arg-type]
        int(data.get("seed", 0)),  # type: ignore[arg-type]
    )


@dataclass(frozen=True)
class ScoredRule:
    """One fastest-class rule with its self-discrimination score.

    ``discrimination`` and ``coverage`` come from scoring the rule on the
    *source* workload's own fast/slow schedule classes through the
    identity signature matcher (:mod:`repro.transfer.scoring`), so
    ``weight`` is exactly the transfer-matrix headline number: how much
    following this rule separates fast from slow where it was learned.
    """

    rule: Rule
    discrimination: float
    coverage: float

    @property
    def weight(self) -> float:
        return self.discrimination * self.coverage

    def to_dict(self) -> Dict[str, object]:
        out = rule_to_dict(self.rule)
        out["discrimination"] = self.discrimination
        out["coverage"] = self.coverage
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScoredRule":
        return cls(
            rule=rule_from_dict(data),
            discrimination=float(data["discrimination"]),  # type: ignore[arg-type]
            coverage=float(data["coverage"]),  # type: ignore[arg-type]
        )


@dataclass
class WorkloadArtifact:
    """One workload's trained output: scored rules + signature table."""

    label: str
    spec: WorkloadSpec
    machine: str
    n_streams: int
    program_fingerprint: str
    signatures: Dict[str, OpSignature]
    rules: List[ScoredRule]
    #: Distinct schedules the labeling saw (the training evidence size).
    n_schedules: int = 0

    @property
    def kind(self) -> str:
        return KIND_WORKLOAD

    @property
    def key(self) -> str:
        """Store filename stem; stable in (program, machine, streams)."""
        return "workload-" + _short_digest(
            self.program_fingerprint, self.machine, self.n_streams
        )

    @property
    def identity(self) -> Tuple[object, ...]:
        """What the artifact describes, whatever program version it was
        trained on: retraining supersedes an artifact of equal identity."""
        return (self.kind, self.machine, self.n_streams, self.label)

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": ARTIFACT_VERSION,
            "kind": self.kind,
            "label": self.label,
            "spec": _spec_to_dict(self.spec),
            "machine": self.machine,
            "n_streams": self.n_streams,
            "program_fingerprint": self.program_fingerprint,
            "signatures": {
                name: signature_to_dict(sig)
                for name, sig in sorted(self.signatures.items())
            },
            "rules": [r.to_dict() for r in self.rules],
            "n_schedules": self.n_schedules,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadArtifact":
        return cls(
            label=str(data["label"]),
            spec=_spec_from_dict(data["spec"]),  # type: ignore[arg-type]
            machine=str(data["machine"]),
            n_streams=int(data["n_streams"]),  # type: ignore[arg-type]
            program_fingerprint=str(data["program_fingerprint"]),
            signatures={
                name: signature_from_dict(sig)
                for name, sig in data["signatures"].items()  # type: ignore[union-attr]
            },
            rules=[ScoredRule.from_dict(r) for r in data["rules"]],  # type: ignore[union-attr]
            n_schedules=int(data.get("n_schedules", 0)),  # type: ignore[arg-type]
        )


@dataclass
class UnionArtifact:
    """The cross-workload union tree + the advisory edges of its matrix."""

    machine: str
    n_streams: int
    #: Labels of every workload the tree was trained on.
    workloads: List[str]
    #: Program fingerprints, aligned with ``workloads``.
    fingerprints: List[str]
    tree: DecisionTree
    #: Signature-canonical (order/stream over signature keys) features.
    features: List[Feature]
    keys: Tuple[str, ...] = ()
    gpu_keys: Tuple[str, ...] = ()
    #: ``(source label, target label, mean discrimination)`` do-not-transfer
    #: edges from the transfer matrix.
    advisories: List[Tuple[str, str, float]] = field(default_factory=list)
    train_accuracy: float = 0.0

    @property
    def kind(self) -> str:
        return KIND_UNION

    @property
    def key(self) -> str:
        return "union-" + _short_digest(
            tuple(sorted(self.fingerprints)), self.machine, self.n_streams
        )

    @property
    def identity(self) -> Tuple[object, ...]:
        """As :attr:`WorkloadArtifact.identity`, over the label set."""
        return (self.kind, self.machine, self.n_streams, tuple(sorted(self.workloads)))

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": ARTIFACT_VERSION,
            "kind": self.kind,
            "machine": self.machine,
            "n_streams": self.n_streams,
            "workloads": list(self.workloads),
            "fingerprints": list(self.fingerprints),
            "tree": self.tree.to_dict(),
            "features": [feature_to_dict(f) for f in self.features],
            "keys": list(self.keys),
            "gpu_keys": list(self.gpu_keys),
            "advisories": [list(a) for a in self.advisories],
            "train_accuracy": self.train_accuracy,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "UnionArtifact":
        return cls(
            machine=str(data["machine"]),
            n_streams=int(data["n_streams"]),  # type: ignore[arg-type]
            workloads=[str(w) for w in data["workloads"]],  # type: ignore[union-attr]
            fingerprints=[str(f) for f in data["fingerprints"]],  # type: ignore[union-attr]
            tree=DecisionTree.from_dict(data["tree"]),  # type: ignore[arg-type]
            features=[feature_from_dict(f) for f in data["features"]],  # type: ignore[union-attr]
            keys=tuple(data.get("keys", ())),  # type: ignore[arg-type]
            gpu_keys=tuple(data.get("gpu_keys", ())),  # type: ignore[arg-type]
            advisories=[
                (str(a[0]), str(a[1]), float(a[2]))
                for a in data.get("advisories", ())  # type: ignore[union-attr]
            ],
            train_accuracy=float(data.get("train_accuracy", 0.0)),  # type: ignore[arg-type]
        )

    def extractor(self):
        """Rebuild the fitted :class:`~repro.ml.features.MappedFeatureExtractor`."""
        from repro.ml.features import MappedFeatureExtractor

        ex = MappedFeatureExtractor()
        ex.keys = tuple(self.keys)
        ex.gpu_keys = tuple(self.gpu_keys)
        ex.features = list(self.features)
        ex._fitted = True
        return ex


_KINDS = {KIND_WORKLOAD: WorkloadArtifact, KIND_UNION: UnionArtifact}


def artifact_from_dict(data: Dict[str, object]):
    """Dispatch on ``kind`` after checking the schema version."""
    version = data.get("version")
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"artifact version {version!r} is not supported "
            f"(this build reads version {ARTIFACT_VERSION})"
        )
    kind = data.get("kind")
    cls = _KINDS.get(str(kind))
    if cls is None:
        raise ArtifactError(f"unknown artifact kind {kind!r}")
    return cls.from_dict(data)


# ----------------------------------------------------------------------
class ArtifactStore:
    """A directory of versioned JSON artifacts.

    Files are named ``<key>.json`` where the key hashes (fingerprint,
    machine, streams), so republishing the same training overwrites in
    place and two platforms never collide.  All writes are key-sorted
    JSON — byte-identical across processes for equal artifacts.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        #: Key -> the file bytes this object last validated under it.
        self._validated: Dict[str, bytes] = {}

    # ------------------------------------------------------------------
    def path_of(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def keys(self) -> List[str]:
        """Sorted artifact keys currently in the store."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
        )

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------------
    def publish(self, artifact) -> str:
        """Write ``artifact``; returns the file path.

        The text goes to a temporary file beside the target, which then
        replaces ``<key>.json`` in one rename: a concurrent reader, or a
        write that fails part-way, leaves the previous file whole.  The
        temporary name does not end in ``.json``, so :meth:`keys` never
        lists it."""
        os.makedirs(self.root, exist_ok=True)
        path = self.path_of(artifact.key)
        text = json.dumps(artifact.to_dict(), indent=2, sort_keys=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise
        return path

    def remove_superseded(self, artifacts: Sequence) -> None:
        """Delete every other artifact file with the identity of one of
        ``artifacts``.

        The files of ``artifacts`` are not read and unreadable files are
        left alone, so a store that holds only ``artifacts`` costs one
        directory listing."""
        written = {a.key for a in artifacts}
        identities = {a.identity for a in artifacts}
        for key in self.keys():
            if key in written:
                continue
            try:
                _, artifact = self._read(key)
            except ArtifactError:
                continue  # not an artifact this build can supersede
            if artifact.identity in identities:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(self.path_of(key))

    def load(self, key: str):
        """Load and validate one artifact by key.

        The file is read once, and its bytes are both parsed and, for a
        workload artifact, compared with the bytes this object last
        validated under ``key``: equal bytes are not validated again."""
        raw, artifact = self._read(key)
        self._validate(key, raw, artifact)
        return artifact

    def _read(self, key: str) -> Tuple[bytes, object]:
        """The artifact file's bytes and the artifact they parse to."""
        try:
            with open(self.path_of(key), "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            raise ArtifactError(f"no artifact {key!r} in {self.root}") from None
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactError(f"artifact {key!r} is not valid JSON") from exc
        return raw, artifact_from_dict(data)

    def _validate(self, key: str, raw: bytes, artifact) -> None:
        if not isinstance(artifact, WorkloadArtifact):
            return
        if self._validated.get(key) != raw:
            validate_workload_artifact(artifact)
            self._validated[key] = raw

    # ------------------------------------------------------------------
    def load_workloads(
        self, *, machine: Optional[str] = None
    ) -> List[WorkloadArtifact]:
        """Every workload artifact (optionally one machine's), key-sorted.

        The machine filter is applied *before* validation, so a store
        shared by several platform presets never pays the workload
        rebuild cost for artifacts it is about to discard.  Validation
        is :meth:`load`'s, once per artifact's bytes.
        """
        out: List[WorkloadArtifact] = []
        for key in self.keys():
            if not key.startswith(KIND_WORKLOAD + "-"):
                continue
            raw, artifact = self._read(key)
            if machine is not None and artifact.machine != machine:
                continue
            self._validate(key, raw, artifact)
            out.append(artifact)
        return out

    def load_union(
        self, *, machine: Optional[str] = None
    ) -> Optional[UnionArtifact]:
        """The broadest matching union artifact (most workloads wins;
        ties break on key for determinism); ``None`` when absent."""
        best: Optional[UnionArtifact] = None
        for key in self.keys():
            if not key.startswith(KIND_UNION + "-"):
                continue
            artifact = self.load(key)
            if machine is not None and artifact.machine != machine:
                continue
            if best is None or (
                (len(artifact.workloads), artifact.key)
                > (len(best.workloads), best.key)
            ):
                best = artifact
        return best


# ----------------------------------------------------------------------
def validate_workload_artifact(artifact: WorkloadArtifact) -> None:
    """Reject stale artifacts: rebuild the spec and require the program
    fingerprint and signature table to match what was stored."""
    from repro.exec.cache import program_fingerprint
    from repro.transfer.signature import program_signatures
    from repro.workloads.spec import build_workload

    program = build_workload(artifact.spec)
    fingerprint = program_fingerprint(program)
    if fingerprint != artifact.program_fingerprint:
        raise ArtifactError(
            f"stale artifact for {artifact.label!r}: stored program "
            f"fingerprint {artifact.program_fingerprint[:12]}… does not "
            f"match the rebuilt workload ({fingerprint[:12]}…); re-run "
            "the training suite to refresh the store"
        )
    signatures = program_signatures(program)
    if signatures != artifact.signatures:
        raise ArtifactError(
            f"stale artifact for {artifact.label!r}: stored signature "
            "table does not match the rebuilt workload's structural "
            "signatures"
        )


def union_is_applicable(
    union: Optional[UnionArtifact], target_keys: Sequence[str]
) -> bool:
    """Whether the union tree can say anything about a target program:
    at least one of its features must have both signature keys present
    in the target (features over absent structure evaluate to constant
    0 and carry no information)."""
    if union is None:
        return False
    keys = set(target_keys)
    return any(f.u in keys and f.v in keys for f in union.features)
