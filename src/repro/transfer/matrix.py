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

Every part reads each workload through what its
:class:`~repro.workloads.generalization.WorkloadRules` caches — its
signatures, its fast-row mask and its schedules scanned once into a
signature-keyed table — so a workload's schedules are scanned once
however many sources, controls and folds read them.

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
from repro.exec import ExecConfig
from repro.ml.features import OrderFeature
from repro.platform.machine import MachineConfig
from repro.rules.ruleset import Rule
from repro.textutil import format_table
from repro.transfer.scoring import (
    DiscriminationScore,
    discrimination_summary,
    score_classes,
)
from repro.transfer.signature import (
    OpSignature,
    SignatureMatcher,
    identity_matcher,
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
    #: Execution-plan timing (shard count, per-task wall); empty when the
    #: matrix was built from precomputed pipeline outputs.
    timing: Dict[str, object] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, object]]:
        """JSON-ready discrimination rows, sorted (source, target)."""
        return [
            self.cells[key].to_dict() for key in sorted(self.cells)
        ]

    def advisories(self) -> List[TransferCell]:
        """Strongly negative cells: do *not* move rules along these edges."""
        return _advisories(self.cells)

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
        lines += format_transfer_rows(self.rows())
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
            lines += format_union_rows([u.to_dict() for u in self.union_rows])
        if self.union_note:
            lines.append(self.union_note)
        return "\n".join(lines)


def format_transfer_rows(rows: Sequence[Dict[str, object]]) -> List[str]:
    """Fixed-width discrimination grid, one line per
    :meth:`TransferCell.to_dict` row (``repro transfer`` and suite
    reports print the same table)."""
    return format_table(
        ("rules from", "scored on", "transfer", "disc", "cover", "best", "advice"),
        [
            (
                str(r["source"]),
                str(r["target"]),
                f"{r['n_transferable']}/{r['n_rules']}",
                f"{float(r['mean_discrimination']):+.2f}",
                f"{100.0 * float(r['mean_coverage']):.0f}%",
                f"{float(r['best_discrimination']):+.2f}",
                "avoid" if r["do_not_transfer"] else "",
            )
            for r in rows
        ],
    )


def format_union_rows(rows: Sequence[Dict[str, object]]) -> List[str]:
    """Fixed-width leave-one-workload-out accuracy table, one line per
    :meth:`UnionRow.to_dict` row."""
    return format_table(
        (
            "held-out target",
            "train sources",
            "feat",
            "leaves",
            "train acc",
            "held-out acc",
        ),
        [
            (
                str(r["target"]),
                str(len(r["trained_on"])),
                str(r["n_features"]),
                str(r["n_leaves"]),
                f"{100.0 * float(r['train_accuracy']):.0f}%",
                f"{100.0 * float(r['holdout_accuracy']):.0f}%",
            )
            for r in rows
        ],
    )


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


def _control_row(wl: WorkloadRules) -> Optional[ControlRow]:
    rule = vacuous_control_rule(wl, wl.signatures)
    if rule is None:
        return None
    [score] = score_classes(
        [rule],
        wl.signature_spans,
        wl.fast_rows,
        matcher=identity_matcher(wl.signatures),
    )
    return ControlRow(
        target=wl.spec.label,
        rule=rule.text,
        fast_satisfaction=score.fast_satisfaction,
        slow_satisfaction=score.slow_satisfaction,
        discrimination=score.discrimination,
    )


# ----------------------------------------------------------------------
def _discrimination_grid(
    per_workload: Sequence[WorkloadRules],
) -> Tuple[
    Dict[Tuple[str, str], TransferCell],
    Dict[Tuple[str, str], List[DiscriminationScore]],
]:
    """Score every source's rules on every other target's classes:
    ``(cells, scores)`` keyed by ``(source, target)``."""
    if len(per_workload) < 2:
        raise ValueError("need at least two workloads for a transfer matrix")
    cells: Dict[Tuple[str, str], TransferCell] = {}
    scores: Dict[Tuple[str, str], List[DiscriminationScore]] = {}
    for src in per_workload:
        for dst in per_workload:
            if src.spec.label == dst.spec.label:
                continue
            cell_scores = score_classes(
                src.rules,
                dst.signature_spans,
                dst.fast_rows,
                matcher=SignatureMatcher(src.signatures, dst.signatures),
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
    return cells, scores


def _advisories(cells: Dict[Tuple[str, str], TransferCell]) -> List[TransferCell]:
    return [cells[key] for key in sorted(cells) if cells[key].do_not_transfer]


def transfer_advisories(
    per_workload: Sequence[WorkloadRules],
) -> List[TransferCell]:
    """The do-not-transfer cells of the matrix over ``per_workload``
    (:meth:`TransferMatrixResult.advisories`), from the discrimination
    grid alone: no controls, no union training."""
    return _advisories(_discrimination_grid(per_workload)[0])


def transfer_matrix_from(
    per_workload: Sequence[WorkloadRules],
) -> TransferMatrixResult:
    """Build the full transfer matrix from precomputed pipeline outputs."""
    cells, scores = _discrimination_grid(per_workload)
    controls = [
        row for wl in per_workload if (row := _control_row(wl)) is not None
    ]

    union_rows: List[UnionRow] = []
    skipped: List[str] = []
    union_note = ""
    if len(per_workload) >= MIN_UNION_WORKLOADS:
        # Every fold reads each workload's one signature-keyed table.
        union_workloads = [
            UnionWorkload(
                wl.spec.label,
                wl.signature_spans,
                binary_labels(wl.result.labeling.labels),
            )
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
    execution: ExecConfig = ExecConfig(),
) -> TransferMatrixResult:
    """End-to-end: exhaustive pipelines on every spec, then the matrix.

    The per-workload pipelines are an orchestrate plan: with
    ``execution.shard_workers > 1`` whole workloads run concurrently, and
    the result carries the plan's per-task timing — everything else is
    bit-identical to the serial run.
    """
    if len(specs) < 2:
        raise ValueError("need at least two workloads for a transfer matrix")
    per_workload, plan_run = run_rules_plan(
        specs,
        machine=machine,
        n_streams=n_streams,
        measurement=measurement,
        execution=execution,
    )
    with obs.span("transfer.matrix"):
        result = transfer_matrix_from(per_workload)
    result.timing = plan_run.timing()
    return result
