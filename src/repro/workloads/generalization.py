"""Cross-workload rule generalization (the ROADMAP's open question).

The paper extracts design rules from one workload and asks (§VI) whether
they hold beyond it.  This module answers mechanically: run the full
design-rule pipeline on every workload of a suite, take each workload's
*fastest-class* rules, and score them on every other workload's labeled
schedules via :mod:`repro.rules.score`.

Two numbers summarize each (source → target) pair:

* **transferable** — how many of the source's rules mention only
  operations that also exist in the target (e.g. ``PostSends before
  WaitRecv`` transfers between any two workloads that post and wait;
  ``yL same stream as yR`` is SpMV-specific);
* **satisfaction** — among the target's *fastest-class* schedules, the
  mean fraction that follow each transferable rule.  High satisfaction
  means the source's design guidance also describes what is fast on the
  target; ~50 % means the rule is uninformative there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import PipelineResult
from repro.dag.program import Program
from repro.exec import ExecConfig
from repro.ml.features import KeySpans, ScheduleTable
from repro.platform.machine import MachineConfig
from repro.platform.presets import perlmutter_like
from repro.rules.ruleset import Rule
from repro.rules.score import (
    ROLE,
    class_rules,
    score_spans,
    spans_of,
    transfer_summary,
)
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:
    from repro.transfer.signature import OpSignature

#: The fastest performance class (labeling orders classes fastest-first).
FASTEST_CLASS = 0


@dataclass
class WorkloadRules:
    """One workload's pipeline output, reduced to what transfer needs."""

    spec: WorkloadSpec
    result: PipelineResult
    #: Deduplicated fastest-class rules.
    rules: List[Rule]
    #: The concrete program the schedules were explored on.
    program: Program

    # Every reduce step reads the workload through these, so its
    # schedules are scanned once and its signatures derived once.
    @cached_property
    def table(self) -> ScheduleTable:
        """The explored schedules, in ``result.search`` order."""
        return ScheduleTable(self.result.search.schedules())

    @cached_property
    def fast_rows(self) -> np.ndarray:
        """Which :attr:`table` rows are labeled into the fastest class."""
        return np.asarray(self.result.labeling.labels) == FASTEST_CLASS

    @cached_property
    def signatures(self) -> Dict[str, OpSignature]:
        """The program's structural op signatures."""
        from repro.transfer.signature import program_signatures

        return program_signatures(self.program)

    @cached_property
    def signature_spans(self) -> KeySpans:
        """:attr:`table` keyed by structural signature."""
        keys = {name: sig.key for name, sig in self.signatures.items()}
        return self.table.keyed(keys.get)


@dataclass
class CrossWorkloadResult:
    """The full source × target transfer matrix."""

    workloads: List[WorkloadRules]
    #: (source label, target label) -> (n_rules, n_transferable, mean sat).
    matrix: Dict[Tuple[str, str], Tuple[int, int, float]]

    def rows(self) -> List[Dict[str, object]]:
        """JSON-ready rows, one per off-diagonal (source, target) pair."""
        out: List[Dict[str, object]] = []
        for (src, dst), (n_rules, n_trans, sat) in sorted(self.matrix.items()):
            out.append(
                {
                    "source": src,
                    "target": dst,
                    "n_rules": n_rules,
                    "n_transferable": n_trans,
                    "mean_satisfaction": sat,
                }
            )
        return out


def reduce_workload_rules(
    spec: WorkloadSpec,
    program: Program,
    result: PipelineResult,
) -> WorkloadRules:
    """Reduce a finished pipeline run to what transfer needs: the
    fastest-class rules; the labeled schedules stay in ``result``."""
    return WorkloadRules(
        spec=spec,
        result=result,
        rules=class_rules(result.rulesets, FASTEST_CLASS),
        program=program,
    )


def score_cross_workload(
    per_workload: Sequence[WorkloadRules],
) -> CrossWorkloadResult:
    """Pairwise role-matched satisfaction table over precomputed
    per-workload pipeline outputs.

    Each target's table is keyed by role once, and every other
    workload's rules are scored on its fast rows.
    """
    roles = {wl.spec.label: spans_of(wl.table, ROLE) for wl in per_workload}
    matrix: Dict[Tuple[str, str], Tuple[int, int, float]] = {}
    for src in per_workload:
        for dst in per_workload:
            if src.spec.label == dst.spec.label:
                continue
            scores = score_spans(
                src.rules, roles[dst.spec.label], dst.fast_rows, matcher=ROLE
            )
            matrix[(src.spec.label, dst.spec.label)] = transfer_summary(scores)
    return CrossWorkloadResult(workloads=list(per_workload), matrix=matrix)


def run_rules_plan(
    specs: Sequence[WorkloadSpec],
    *,
    machine: Optional[MachineConfig] = None,
    n_streams: int = 2,
    measurement=None,
    execution: ExecConfig = ExecConfig(),
):
    """Per-workload exhaustive pipelines as an orchestrate plan.

    Returns ``(per_workload, plan_run)`` — the :class:`WorkloadRules`
    list in spec order plus the :class:`~repro.orchestrate.PlanRun`
    carrying per-task wall time.  ``execution.shard_workers > 1``
    shards whole workloads across processes; results are bit-identical to
    the serial sweep for any ``execution``.
    """
    from repro.orchestrate import (
        execute_plan,
        plan_rules,
        restore_rules_payload,
    )

    machine = machine if machine is not None else perlmutter_like()
    plan = plan_rules(
        specs,
        machine=machine,
        n_streams=n_streams,
        measurement=measurement,
        execution=execution,
    )
    run = execute_plan(plan, shard_workers=execution.shard_workers)
    return [restore_rules_payload(r) for r in run.results], run


def rules_for_specs(
    specs: Sequence[WorkloadSpec],
    *,
    machine: Optional[MachineConfig] = None,
    n_streams: int = 2,
    measurement=None,
    execution: ExecConfig = ExecConfig(),
) -> List[WorkloadRules]:
    """Run the exhaustive pipeline on every spec (the shared front half of
    the satisfaction table and the transfer matrix)."""
    per_workload, _ = run_rules_plan(
        specs,
        machine=machine,
        n_streams=n_streams,
        measurement=measurement,
        execution=execution,
    )
    return per_workload
