"""Rule-guided search: turn persisted design rules into search pressure.

A :class:`ScheduleGuide` resolves the store's scored rules onto a *target*
program through structural signatures: a rule about "the kernel feeding a
send post" applies to whichever target ops carry that signature, however
they are named.  Resolved rules carry the sum of their sources' self-
discrimination weights, giving three levers the search strategies wire in
(:mod:`repro.search`):

* **pruning** (exhaustive / random) — :meth:`ScheduleGuide.admits`
  rejects schedules violating any rule whose combined weight reaches
  :data:`PRUNE_THRESHOLD`; the space streams through
  :meth:`repro.schedule.space.DesignSpace.iter_blocks` with the guide as
  the ``keep`` filter, so pruned schedules are never simulated;
* **ordering prior** (beam) — :meth:`ScheduleGuide.prefix_penalty`
  scores a *partial* schedule by the weight of rules it has already
  determinately violated, ordering expansion and breaking score ties
  toward rule-satisfying prefixes;
* **rollout bias** (MCTS) — rollouts choose uniformly among the actions
  introducing the least new violation weight instead of among all
  actions.

Violation on a prefix is judged from what is already decided: an
ordering rule is violated once some ``v``-group op precedes some
``u``-group op, *or* once a ``v``-group op is placed while mandatory
``u``-group ops (program operations, which appear in every complete
schedule) remain unplaced — any future ``u`` necessarily lands after
that ``v``.  Stream rules are decided by placed cross pairs.
Scheduling-inserted sync ops are conditional (a stream wait only exists
for cross-stream bindings), so they never participate in the
"mandatory" reasoning — the prefix judgment stays sound, and a complete
schedule decides everything its ops can express, making :meth:`admits`
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dag.program import Program
from repro.dag.vertex import OpKind
from repro.ml.features import KeySpans, OrderFeature, StreamFeature
from repro.schedule.schedule import BoundOp, Schedule
from repro.transfer.signature import OpSignature, program_signatures

#: Resolved-rule kinds.
ORDER = "order"
STREAM = "stream"

#: The feature whose relation decides a rule of each kind.
_FEATURE = {ORDER: OrderFeature, STREAM: StreamFeature}

#: Default floor on a source rule's |self-discrimination weight| for it
#: to participate in guidance at all.
MIN_SOURCE_WEIGHT = 0.05

#: Combined weight at which violating a rule prunes a schedule.
PRUNE_THRESHOLD = 0.10


@dataclass(frozen=True)
class ResolvedRule:
    """One store rule translated into the target's signature-key domain.

    ``u`` / ``v`` are target signature keys; ``weight`` sums the
    contributing sources' self-discrimination weights (evidence
    accumulates when several workloads learned the same constraint);
    ``sources`` are their labels.
    """

    kind: str
    u: str
    v: str
    value: bool
    weight: float
    sources: Tuple[str, ...] = ()

    @property
    def text(self) -> str:
        if self.kind == ORDER:
            return (
                f"{self.u} before {self.v}"
                if self.value
                else f"{self.v} before {self.u}"
            )
        rel = "same stream as" if self.value else "different stream than"
        return f"{self.u} {rel} {self.v}"


class ScheduleGuide:
    """Evaluates a target program's schedules against resolved rules."""

    def __init__(
        self,
        rules: Sequence[ResolvedRule],
        op_keys: Dict[str, str],
        *,
        mandatory_counts: Optional[Dict[str, int]] = None,
    ) -> None:
        #: Deterministic rule order: strongest first, then text.
        self.rules: List[ResolvedRule] = sorted(
            rules, key=lambda r: (-r.weight, r.text)
        )
        self.op_keys = dict(op_keys)
        #: Key → number of ops guaranteed to appear in every complete
        #: schedule (program ops; sync ops are conditional).  Lets a
        #: prefix judgment see ordering violations the moment they
        #: become inevitable, not only once both ops are placed.
        self.mandatory_counts = dict(mandatory_counts or {})

    # ------------------------------------------------------------------
    @classmethod
    def from_artifacts(
        cls,
        artifacts: Sequence,
        target: "Program | Dict[str, OpSignature]",
        *,
        min_source_weight: float = MIN_SOURCE_WEIGHT,
        exclude_sources: Sequence[str] = (),
    ) -> "ScheduleGuide":
        """Resolve every artifact's rules onto ``target``.

        ``target`` is a program (its signatures are computed) or a
        precomputed name→signature mapping.  A source rule participates
        when its |weight| reaches ``min_source_weight`` and both of its
        operands map to *distinct* signature keys the target also has;
        identical resolved rules from several sources sum their weights.
        ``exclude_sources`` drops whole artifacts by label (used for
        do-not-transfer advisories and leave-one-out experiments).
        """
        if isinstance(target, Program):
            from repro.schedule.sync import build_sync_plan, cer_name

            signatures = program_signatures(target)
            # Ops present in *every* complete schedule: the program ops
            # plus the always-inserted event records/syncs.  Stream
            # waits (and their extra records) are binding-conditional.
            mandatory_names = {
                v.name for v in target.schedulable_vertices()
            }
            plan = build_sync_plan(target.graph)
            mandatory_names |= {cer_name(u) for u in plan.cer_sources}
            mandatory_names |= set(plan.ces_name_of.values())
        else:
            signatures = target
            mandatory_names = {
                name
                for name, sig in signatures.items()
                if sig.device != "sync"
            }
        op_keys = {name: sig.key for name, sig in signatures.items()}
        target_keys = set(op_keys.values())
        mandatory: Dict[str, int] = {}
        for name in mandatory_names:
            key = op_keys[name]
            mandatory[key] = mandatory.get(key, 0) + 1
        excluded = set(exclude_sources)

        resolved: Dict[Tuple[str, str, str, bool], Tuple[float, set]] = {}
        for artifact in artifacts:
            if artifact.label in excluded:
                continue
            source_keys = {
                name: sig.key for name, sig in artifact.signatures.items()
            }
            for scored in artifact.rules:
                if abs(scored.weight) < min_source_weight:
                    continue
                feature = scored.rule.feature
                ku = source_keys.get(feature.u)
                kv = source_keys.get(feature.v)
                if ku is None or kv is None or ku == kv:
                    continue
                if ku not in target_keys or kv not in target_keys:
                    continue
                kind = ORDER if isinstance(feature, OrderFeature) else STREAM
                value = bool(scored.rule.value)
                # Canonicalize symmetric orientations so the same
                # key-level constraint merges its evidence regardless of
                # how each source happened to orient it: "(u,v) False"
                # is "(v,u) True" for ordering, and stream relations
                # are symmetric in their operands outright.
                if kind == ORDER and not value:
                    ku, kv, value = kv, ku, True
                elif kind == STREAM and kv < ku:
                    ku, kv = kv, ku
                entry = (kind, ku, kv, value)
                weight, sources = resolved.get(entry, (0.0, set()))
                resolved[entry] = (
                    weight + scored.weight,
                    sources | {artifact.label},
                )
        rules = [
            ResolvedRule(
                kind=kind,
                u=u,
                v=v,
                value=value,
                weight=weight,
                sources=tuple(sorted(sources)),
            )
            for (kind, u, v, value), (weight, sources) in resolved.items()
        ]
        return cls(rules, op_keys, mandatory_counts=mandatory)

    @classmethod
    def from_store(
        cls,
        store,
        target: Program,
        *,
        machine: Optional[str] = None,
        **kwargs,
    ) -> "ScheduleGuide":
        """Build a guide straight from an :class:`ArtifactStore`."""
        artifacts = store.load_workloads(machine=machine)
        return cls.from_artifacts(artifacts, target, **kwargs)

    # ------------------------------------------------------------------
    @property
    def n_rules(self) -> int:
        return len(self.rules)

    @property
    def weight_total(self) -> float:
        return sum(abs(r.weight) for r in self.rules)

    # ------------------------------------------------------------------
    def _groups(
        self, ops: Sequence[BoundOp]
    ) -> Tuple[Dict[str, List[int]], Dict[str, List[int]]]:
        """(key → launch positions, key → GPU stream bindings)."""
        order: Dict[str, List[int]] = {}
        streams: Dict[str, List[int]] = {}
        for i, op in enumerate(ops):
            key = self.op_keys.get(op.name)
            if key is None:
                continue
            order.setdefault(key, []).append(i)
            if op.kind is OpKind.GPU:
                streams.setdefault(key, []).append(op.stream)  # type: ignore[arg-type]
        return order, streams

    def _violated(
        self,
        rule: ResolvedRule,
        order: Dict[str, List[int]],
        streams: Dict[str, List[int]],
    ) -> Optional[bool]:
        """Determined verdict on the placed ops: ``True`` = violated for
        sure (by a placed pair, or — for ordering rules — by a placed
        successor-side op while mandatory predecessor-side ops remain
        unplaced), ``False`` = satisfied by every placed pair so far,
        ``None`` = nothing to judge yet."""
        if rule.kind == ORDER:
            # Normalize to "every first-key op before every second-key".
            first, second = (
                (rule.u, rule.v) if rule.value else (rule.v, rule.u)
            )
            firsts = order.get(first)
            seconds = order.get(second)
            if seconds:
                # A mandatory first-side op not yet placed must land
                # after this placed second-side op: inevitable violation.
                placed_first = len(firsts) if firsts else 0
                if placed_first < self.mandatory_counts.get(first, 0):
                    return True
            if not firsts or not seconds:
                return None
            return not (max(firsts) < min(seconds))
        us, vs = streams.get(rule.u), streams.get(rule.v)
        if not us or not vs:
            return None
        same = all(a == b for a in us for b in vs)
        diff = all(a != b for a in us for b in vs)
        return not (same if rule.value else diff)

    # ------------------------------------------------------------------
    def scores(self, spans: KeySpans) -> np.ndarray:
        """Weighted rule satisfaction of each schedule of ``spans`` (a
        schedule table keyed by :attr:`op_keys`), in [-1, 1].

        A rule decided on a schedule contributes ``+weight`` when followed
        and ``-weight`` when violated (negative weights invert naturally:
        violating an anti-rule helps); the sum is divided by the decided
        rules' total |weight|, and a schedule that decides none scores 0.
        :meth:`KeySpans.relations` decides the rules, and each schedule's
        sums add the rules' terms in rule order.  On a complete schedule
        every mandatory op is placed, so a rule is decided exactly where
        its relation is defined, as :meth:`_violated` judges it."""
        defined, holds = spans.relations(
            [_FEATURE[r.kind](r.u, r.v) for r in self.rules],
            [r.value for r in self.rules],
        )
        signed = np.zeros(spans.n_schedules)
        evaluated = np.zeros(spans.n_schedules)
        for rule, decided, followed in zip(self.rules, defined, holds):
            terms = np.where(followed, rule.weight, -rule.weight)
            np.add(signed, terms, out=signed, where=decided)
            np.add(evaluated, abs(rule.weight), out=evaluated, where=decided)
        return np.divide(
            signed, evaluated, out=np.zeros_like(signed), where=evaluated > 0.0
        )

    def admits(self, schedule: Schedule) -> bool:
        """False when the schedule violates any prune-strength rule:
        :meth:`admits_prefix` on the whole launch sequence, which is exact
        on a complete schedule (every verdict is decided)."""
        return self.admits_prefix(schedule.ops)

    def admits_prefix(self, ops: Sequence[BoundOp]) -> bool:
        """False when a (partial) launch sequence *determinately*
        violates a prune-strength rule.

        This is the branch-and-bound predicate for
        :meth:`repro.schedule.space.DesignSpace.iter_blocks`: because
        :meth:`_violated` only answers ``True`` when no extension can
        undo the verdict (a placed pair already violates, or a mandatory
        op can only land too late), a rejected prefix's entire subtree
        contains nothing :meth:`admits` would keep — cutting it is
        lossless.  The converse does not hold: a prefix can still be
        admitted while some completion violates, so complete schedules
        must still pass :meth:`admits`.
        """
        order, streams = self._groups(ops)
        for rule in self.rules:
            if rule.weight < PRUNE_THRESHOLD:
                continue
            if self._violated(rule, order, streams) is True:
                return False
        return True

    def prefix_penalty(self, ops: Sequence[BoundOp]) -> float:
        """Total positive weight already determinately violated by a
        (partial) launch sequence.  Monotone along a schedule prefix:
        placing more ops can only add violations, never remove them."""
        order, streams = self._groups(ops)
        penalty = 0.0
        for rule in self.rules:
            if rule.weight <= 0.0:
                continue
            if self._violated(rule, order, streams) is True:
                penalty += rule.weight
        return penalty

    # ------------------------------------------------------------------
    def describe(self, limit: int = 10) -> str:
        """Human-readable summary of the strongest resolved rules."""
        lines = [
            f"{self.n_rules} resolved rules "
            f"(prune threshold {PRUNE_THRESHOLD:+.2f}):"
        ]
        for rule in self.rules[:limit]:
            srcs = ", ".join(rule.sources)
            lines.append(f"  [{rule.weight:+.2f}] {rule.text}  <- {srcs}")
        if self.n_rules > limit:
            lines.append(f"  … and {self.n_rules - limit} more")
        return "\n".join(lines)
