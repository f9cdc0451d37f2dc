"""The leave-one-workload-out transfer-matrix experiment.

For a set of workloads this runs the full design-rule pipeline on each
(via :mod:`repro.workloads.generalization`), then measures how knowledge
moves between every ordered pair:

* **discrimination grid** — every source workload's fastest-class rules
  scored on every target's fast/slow schedule classes through structural
  :class:`~repro.transfer.signature.SignatureMatcher` matching
  (:mod:`repro.transfer.scoring`);
* **vacuous controls** — per target, an always-true rule constructed
  from the target's own dependence structure is injected and scored; its
  discrimination is 0 by construction, demonstrating that the metric
  (unlike raw satisfaction) cannot be gamed by vacuity;
* **union row** — per target, one tree trained on the union of every
  *other* workload's schedules in the signature-canonical feature space
  (:mod:`repro.transfer.union`), evaluated on the held-out target.

Everything is deterministic given the specs, machine, and measurement
configuration; rows are sorted, so JSON and ASCII output are stable
across runs and processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.dag.vertex import OpKind
from repro.errors import TrainingError
from repro.ml.features import OrderFeature
from repro.platform.machine import MachineConfig
from repro.rules.ruleset import Rule
from repro.schedule.schedule import Schedule
from repro.textutil import format_table
from repro.transfer.scoring import (
    DiscriminationScore,
    GroupedClasses,
    discrimination_summary,
    group_classes,
    score_grouped,
)
from repro.transfer.signature import (
    OpSignature,
    SignatureMatcher,
    identity_matcher,
    program_signatures,
)
from repro.transfer.union import (
    UnionTrainingResult,
    UnionWorkload,
    binary_labels,
    train_union,
)
from repro.workloads.generalization import WorkloadRules, run_rules_plan
from repro.workloads.spec import WorkloadSpec

#: Minimum number of workloads for leave-one-out union training (the
#: training side itself needs at least two).
MIN_UNION_WORKLOADS = 3

#: Mean discrimination at or below which a (source → target) cell earns
#: a "do-not-transfer" advisory: the target's *fast* schedules
#: systematically violate the source's guidance, so transferring those
#: rules is actively misleading — worse than not transferring at all.
DO_NOT_TRANSFER_THRESHOLD = -0.10


@dataclass(frozen=True)
class TransferCell:
    """Discrimination summary of one (source → target) pair."""

    source: str
    target: str
    n_rules: int
    n_transferable: int
    mean_discrimination: float
    mean_coverage: float
    #: The best-separating transferred rule (empty when none transfer).
    best_rule: str
    best_discrimination: float

    @property
    def do_not_transfer(self) -> bool:
        """Advisory: rules transferred, and on average they *anti*-predict
        the target's fast class (mean discrimination at or below
        :data:`DO_NOT_TRANSFER_THRESHOLD`)."""
        return (
            self.n_transferable > 0
            and self.mean_discrimination <= DO_NOT_TRANSFER_THRESHOLD
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "target": self.target,
            "n_rules": self.n_rules,
            "n_transferable": self.n_transferable,
            "mean_discrimination": self.mean_discrimination,
            "mean_coverage": self.mean_coverage,
            "best_rule": self.best_rule,
            "best_discrimination": self.best_discrimination,
            "do_not_transfer": self.do_not_transfer,
        }


@dataclass(frozen=True)
class ControlRow:
    """Per-target injected always-true rule and its (zero) discrimination."""

    target: str
    rule: str
    fast_satisfaction: float
    slow_satisfaction: float
    discrimination: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "rule": self.rule,
            "fast_satisfaction": self.fast_satisfaction,
            "slow_satisfaction": self.slow_satisfaction,
            "discrimination": self.discrimination,
        }


@dataclass(frozen=True)
class UnionRow:
    """Held-out-workload evaluation of the union-trained tree."""

    target: str
    trained_on: Tuple[str, ...]
    n_features: int
    n_leaves: int
    train_accuracy: float
    holdout_accuracy: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "trained_on": list(self.trained_on),
            "n_features": self.n_features,
            "n_leaves": self.n_leaves,
            "train_accuracy": self.train_accuracy,
            "holdout_accuracy": self.holdout_accuracy,
        }


@dataclass
class TransferMatrixResult:
    """Everything the transfer-matrix experiment produced."""

    workloads: List[str]
    cells: Dict[Tuple[str, str], TransferCell]
    controls: List[ControlRow]
    union_rows: List[UnionRow]
    #: Populated when the union side was skipped (too few workloads).
    union_note: str = ""
    #: Per-target detailed scores, for drill-down (not serialized).
    scores: Dict[Tuple[str, str], List[DiscriminationScore]] = field(
        default_factory=dict, repr=False
    )
    #: Execution-plan timing (shard count, per-task wall/stages); empty
    #: when the matrix was built from precomputed pipeline outputs.
    timing: Dict[str, object] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, object]]:
        """JSON-ready discrimination rows, sorted (source, target)."""
        return [
            self.cells[key].to_dict() for key in sorted(self.cells)
        ]

    def advisories(self) -> List[TransferCell]:
        """Strongly negative cells: do *not* move rules along these edges."""
        return [
            self.cells[key]
            for key in sorted(self.cells)
            if self.cells[key].do_not_transfer
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "workloads": self.workloads,
            "matrix": self.rows(),
            "controls": [c.to_dict() for c in self.controls],
            "union": [u.to_dict() for u in self.union_rows],
            "union_note": self.union_note,
            "advisories": [
                {"source": c.source, "target": c.target,
                 "mean_discrimination": c.mean_discrimination}
                for c in self.advisories()
            ],
            "timing": self.timing,
        }

    # ------------------------------------------------------------------
    def report(self) -> str:
        """Fixed-width ASCII rendering (the CLI's stdout form)."""
        lines = [
            f"Cross-program transfer matrix over {len(self.workloads)} "
            f"workloads (signature-matched, discrimination-scored):"
        ]
        rows = [
            (
                c["source"],
                c["target"],
                f"{c['n_transferable']}/{c['n_rules']}",
                f"{float(c['mean_discrimination']):+.2f}",
                f"{100.0 * float(c['mean_coverage']):.0f}%",
                f"{float(c['best_discrimination']):+.2f}",
                "avoid" if c["do_not_transfer"] else "",
            )
            for c in self.rows()
        ]
        lines += format_table(
            ("rules from", "scored on", "transfer", "disc", "cover", "best",
             "advice"),
            rows,
        )
        lines.append("")
        advisories = self.advisories()
        if advisories:
            lines.append(
                "Do-not-transfer advisories (mean discrimination <= "
                f"{DO_NOT_TRANSFER_THRESHOLD:+.2f}: the target's fast "
                "schedules violate these sources' rules):"
            )
            for c in advisories:
                lines.append(
                    f"  {c.source} -> {c.target}: "
                    f"{c.mean_discrimination:+.2f} over "
                    f"{c.n_transferable} transferred rules"
                )
            lines.append("")
        lines.append(
            "Injected always-true controls (discrimination must be 0):"
        )
        lines += format_table(
            ("target", "control rule", "fast", "slow", "disc"),
            [
                (
                    c.target,
                    c.rule,
                    f"{100.0 * c.fast_satisfaction:.0f}%",
                    f"{100.0 * c.slow_satisfaction:.0f}%",
                    f"{c.discrimination:+.2f}",
                )
                for c in self.controls
            ],
        )
        lines.append("")
        if self.union_rows:
            lines.append(
                "Union-trained tree, leave-one-workload-out accuracy:"
            )
            lines += format_table(
                ("held-out target", "train sources", "feat", "leaves",
                 "train acc", "held-out acc"),
                [
                    (
                        u.target,
                        str(len(u.trained_on)),
                        str(u.n_features),
                        str(u.n_leaves),
                        f"{100.0 * u.train_accuracy:.0f}%",
                        f"{100.0 * u.holdout_accuracy:.0f}%",
                    )
                    for u in self.union_rows
                ],
            )
        if self.union_note:
            lines.append(self.union_note)
        return "\n".join(lines)


# ----------------------------------------------------------------------
def vacuous_control_rule(
    wl: WorkloadRules, signatures: Dict[str, OpSignature]
) -> Optional[Rule]:
    """An always-true ordering rule for ``wl``, built from its own DAG.

    Every schedule is a topological order of the program DAG, so for any
    dependence edge ``u -> v`` the launch sequence puts ``u`` before
    ``v``.  Signature evaluation quantifies universally over the
    endpoints' signature *groups*, so the edge qualifies when every
    member of ``u``'s group is a DAG ancestor of every member of ``v``'s
    group — then the rule is satisfied by *every* schedule, fast and
    slow alike, and must score zero discrimination.  Returns ``None``
    when the program has no such edge.
    """
    graph = wl.program.graph
    groups: Dict[str, List[str]] = {}
    for v in wl.program.schedulable_vertices():
        sig = signatures.get(v.name)
        if sig is not None:
            groups.setdefault(sig.key, []).append(v.name)
    closure = graph.transitive_closure()
    for u, v in graph.edges():
        if u.kind in (OpKind.START, OpKind.END):
            continue
        if v.kind in (OpKind.START, OpKind.END):
            continue
        su, sv = signatures.get(u.name), signatures.get(v.name)
        if su is None or sv is None or su.key == sv.key:
            continue
        if all(
            b in closure[a]
            for a in groups[su.key]
            for b in groups[sv.key]
        ):
            return Rule(OrderFeature(u.name, v.name), True)
    return None


def _control_row(
    wl: WorkloadRules,
    signatures: Dict[str, OpSignature],
    grouped: GroupedClasses,
) -> Optional[ControlRow]:
    rule = vacuous_control_rule(wl, signatures)
    if rule is None:
        return None
    matcher = identity_matcher(signatures)
    [score] = score_grouped([rule], grouped, matcher=matcher)
    return ControlRow(
        target=wl.spec.label,
        rule=rule.text,
        fast_satisfaction=score.fast_satisfaction,
        slow_satisfaction=score.slow_satisfaction,
        discrimination=score.discrimination,
    )


def _union_workload(
    wl: WorkloadRules, signatures: Dict[str, OpSignature]
) -> UnionWorkload:
    schedules: List[Schedule] = list(wl.result.search.schedules())
    return UnionWorkload(
        label=wl.spec.label,
        schedules=schedules,
        labels=binary_labels(wl.result.labeling.labels),
        signatures=signatures,
    )


# ----------------------------------------------------------------------
def transfer_matrix_from(
    per_workload: Sequence[WorkloadRules],
) -> TransferMatrixResult:
    """Build the full transfer matrix from precomputed pipeline outputs."""
    if len(per_workload) < 2:
        raise ValueError("need at least two workloads for a transfer matrix")
    signatures = {
        wl.spec.label: program_signatures(wl.program) for wl in per_workload
    }
    # Target-side grouping depends only on the target's signature map, so
    # compute it once per workload rather than once per (source, target).
    grouped = {
        wl.spec.label: group_classes(
            wl.fast_schedules,
            wl.slow_schedules,
            matcher=identity_matcher(signatures[wl.spec.label]),
        )
        for wl in per_workload
    }

    cells: Dict[Tuple[str, str], TransferCell] = {}
    scores: Dict[Tuple[str, str], List[DiscriminationScore]] = {}
    for src in per_workload:
        for dst in per_workload:
            if src.spec.label == dst.spec.label:
                continue
            matcher = SignatureMatcher(
                signatures[src.spec.label], signatures[dst.spec.label]
            )
            cell_scores = score_grouped(
                src.rules, grouped[dst.spec.label], matcher=matcher
            )
            n_rules, n_trans, mean_disc, mean_cov = discrimination_summary(
                cell_scores
            )
            transferable = [s for s in cell_scores if s.transfers]
            best = max(
                transferable,
                key=lambda s: (s.discrimination, s.rule.text),
                default=None,
            )
            key = (src.spec.label, dst.spec.label)
            scores[key] = cell_scores
            cells[key] = TransferCell(
                source=src.spec.label,
                target=dst.spec.label,
                n_rules=n_rules,
                n_transferable=n_trans,
                mean_discrimination=mean_disc,
                mean_coverage=mean_cov,
                best_rule=best.rule.text if best is not None else "",
                best_discrimination=(
                    best.discrimination if best is not None else 0.0
                ),
            )

    controls = [
        row
        for wl in per_workload
        if (
            row := _control_row(
                wl, signatures[wl.spec.label], grouped[wl.spec.label]
            )
        )
        is not None
    ]

    union_rows: List[UnionRow] = []
    skipped: List[str] = []
    union_note = ""
    if len(per_workload) >= MIN_UNION_WORKLOADS:
        union_workloads = [
            _union_workload(wl, signatures[wl.spec.label])
            for wl in per_workload
        ]
        for held in union_workloads:
            try:
                result: UnionTrainingResult = train_union(
                    union_workloads, holdout=held.label
                )
            except TrainingError:
                # The remaining training workloads share no non-constant
                # signature features — possible for tiny, structurally
                # disjoint sets; report rather than abort the matrix.
                skipped.append(held.label)
                continue
            union_rows.append(
                UnionRow(
                    target=held.label,
                    trained_on=result.trained_on,
                    n_features=result.n_features,
                    n_leaves=result.tree.n_leaves,
                    train_accuracy=result.train_accuracy,
                    holdout_accuracy=float(result.holdout_accuracy or 0.0),
                )
            )
        if skipped:
            union_note = (
                "union tree skipped for "
                + ", ".join(skipped)
                + ": training workloads share no non-constant signature "
                "features"
            )
    else:
        union_note = (
            "union tree skipped: leave-one-out training needs at least "
            f"{MIN_UNION_WORKLOADS} workloads"
        )

    return TransferMatrixResult(
        workloads=[wl.spec.label for wl in per_workload],
        cells=cells,
        controls=controls,
        union_rows=union_rows,
        union_note=union_note,
        scores=scores,
    )


def run_transfer_matrix(
    specs: Sequence[WorkloadSpec],
    *,
    machine: Optional[MachineConfig] = None,
    n_streams: int = 2,
    measurement=None,
    workers: int = 0,
    cache_path: Optional[str] = None,
    shard_workers: int = 0,
    block_size: Optional[int] = None,
) -> TransferMatrixResult:
    """End-to-end: exhaustive pipelines on every spec, then the matrix.

    The per-workload pipelines are an orchestrate plan: with
    ``shard_workers > 1`` whole workloads run concurrently, and the
    result carries the plan's per-task timing — everything else is
    bit-identical to the serial run.
    """
    if len(specs) < 2:
        raise ValueError("need at least two workloads for a transfer matrix")
    per_workload, plan_run = run_rules_plan(
        specs,
        machine=machine,
        n_streams=n_streams,
        measurement=measurement,
        workers=workers,
        cache_path=cache_path,
        shard_workers=shard_workers,
        block_size=block_size,
    )
    with obs.stage("transfer-matrix"):
        result = transfer_matrix_from(per_workload)
    result.timing = plan_run.timing()
    return result
