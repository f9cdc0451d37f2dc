"""Score rules against foreign schedule sets (cross-workload transfer).

Rules are extracted per workload (paper §IV-D), but their constraints are
plain statements about operation order and stream assignment, so any rule
whose two operations also exist in *another* workload's schedules can be
evaluated there.  This module provides that evaluation: which rules
*transfer*, and how often the transferred constraint is satisfied by a
given set of schedules.

Exact and role matching
-----------------------
Workload generators qualify operation names per instance — SpMV has
``Pack``, the halo exchange ``Pack_x``, the allreduce ``Pack_0`` — so
exact-name matching would make most cross-workload rules vacuously
non-transferable.  Every evaluation entry point takes a ``matcher``: an
object with ``rule_key(name)`` mapping a rule operand (a source-program
op name) to a canonical key and ``op_key(name)`` doing the same for
target-schedule ops, either returning ``None`` for names that do not
participate.  ``matcher=None`` matches exact names.  :data:`ROLE`
strips the positional qualifier (a trailing ``_<digits>`` or
``_<axis>``) on both sides, including inside the scheduler's compound
sync-op names (``CER-after-Pack_x`` → ``CER-after-Pack``);
:class:`repro.transfer.signature.SignatureMatcher` matches operations by
*structural* signature (action kind, device, comm-group topology,
dependence-chain position), so families with disjoint naming can still
exchange rules.  Several ops may share a key, so a rule is evaluated
universally: it holds on a schedule iff **every** pair of ops matching
its two keys satisfies the constraint.

This is the measurement behind the cross-workload generalization table
(:mod:`repro.workloads.generalization`): a rule that separates fast from
slow schedules on the workload it was learned on, *and* on workloads it
never saw, is a genuine design rule rather than an artifact of one DAG.

Evaluation
----------
Each side is keyed once.  A target's schedules are scanned once into a
:class:`~repro.ml.features.ScheduleTable`, which :func:`spans_of` reduces
to the matcher's op keys (a :class:`~repro.ml.features.KeySpans`).
:func:`tally` maps each rule's two operands to keys once per rule, not
once per schedule, and evaluates every rule on every schedule with
:meth:`~repro.ml.features.KeySpans.relations`, the relation evaluation
the union-tree and paper features share.  It serves
:func:`rule_satisfied` (one schedule), :func:`score_rules`,
:func:`score_spans` and the discrimination scores of
:mod:`repro.transfer.scoring`.  Callers scoring many rule sets on one
target (the cross-workload tables) key the target once and pass the
spans to :func:`score_spans`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.features import (
    Feature,
    KeySpans,
    OrderFeature,
    ScheduleTable,
    StreamFeature,
)
from repro.rules.ruleset import Rule
from repro.schedule.schedule import Schedule

#: Positional qualifier a generator appends to a role name: a round index
#: (``Pack_0``), an axis (``Pack_x``), or a grid/branch coordinate.
_QUALIFIER = re.compile(r"_(?:[0-9]+|[xyz])$")


def op_role(name: str) -> str:
    """Strip the positional qualifier from ``name``, recursing into the
    scheduler's compound sync-op names.

    >>> op_role("Pack_x")
    'Pack'
    >>> op_role("CER-after-Pack_0")
    'CER-after-Pack'
    >>> op_role("Pack")
    'Pack'
    """
    if name.startswith("CER-after-"):
        return "CER-after-" + op_role(name[len("CER-after-") :])
    if name.startswith("CES-b4-"):
        rest = name[len("CES-b4-") :]
        if "-after-" in rest:  # disambiguated form: CES-b4-{v}-after-{u}
            v, u = rest.split("-after-", 1)
            return f"CES-b4-{op_role(v)}-after-{op_role(u)}"
        return "CES-b4-" + op_role(rest)
    if name.startswith("CSWE-") and "-waits-" in name:
        v, u = name[len("CSWE-") :].split("-waits-", 1)
        return f"CSWE-{op_role(v)}-waits-{op_role(u)}"
    return _QUALIFIER.sub("", name)


#: Maps an op name to its grouping key; ``None`` = does not participate.
KeyFn = Callable[[str], Optional[str]]


class _RoleMatcher:
    """Role matching: both sides key a name by :func:`op_role`."""

    rule_key = staticmethod(op_role)
    op_key = staticmethod(op_role)


#: The role matcher (``rule_key`` and ``op_key`` are both :func:`op_role`).
ROLE = _RoleMatcher()


def _key_fns(matcher) -> Tuple[KeyFn, KeyFn]:
    """``(rule_key, op_key)`` of ``matcher``; exact names when ``None``."""
    if matcher is not None:
        return (matcher.rule_key, matcher.op_key)
    identity: KeyFn = lambda name: name  # noqa: E731
    return (identity, identity)


def spans_of(table: ScheduleTable, matcher=None) -> KeySpans:
    """``table`` keyed by ``matcher``'s op key."""
    return table.keyed(_key_fns(matcher)[1])


def _resolve(rule: Rule, rule_key: KeyFn) -> Optional[Tuple[Feature, bool]]:
    """The rule's feature over its operands' keys, and its value; ``None``
    when it cannot transfer."""
    f = rule.feature
    if not isinstance(f, (OrderFeature, StreamFeature)):
        return None
    key_u = rule_key(f.u)
    key_v = rule_key(f.v)
    if key_u is None or key_v is None or key_u == key_v:
        return None
    return (type(f)(key_u, key_v), rule.value)


def tally(
    rules: Iterable[Rule], spans: KeySpans, *, matcher=None
) -> Tuple[List[Rule], np.ndarray, np.ndarray]:
    """``rules`` in text order, with ``[rule, schedule]`` booleans over
    the schedules of ``spans`` (keyed by :func:`spans_of` under the same
    ``matcher``): where each rule transfers, as the schedule holds ops of
    both its operands' keys, and where it is satisfied on every cross
    pair.  A rule whose operands do not resolve to two keys transfers
    nowhere."""
    rule_key, _ = _key_fns(matcher)
    rules = sorted(rules, key=lambda r: r.text)
    resolved = [_resolve(rule, rule_key) for rule in rules]
    live = [i for i, r in enumerate(resolved) if r is not None]
    transferred = np.zeros((len(rules), spans.n_schedules), dtype=bool)
    satisfied = np.zeros_like(transferred)
    if live:
        features, values = zip(*(resolved[i] for i in live))
        transferred[live], satisfied[live] = spans.relations(features, values)
    return rules, transferred, satisfied


def rule_satisfied(
    rule: Rule, schedule: Schedule, *, matcher=None
) -> Optional[bool]:
    """Whether ``schedule`` follows ``rule``; ``None`` if the rule does
    not transfer (an op/role/signature the rule mentions is absent, or
    both of its operations collapse onto the same key).

    Under a ``matcher`` several ops may match each side; the rule is
    satisfied iff every cross pair satisfies the constraint.
    """
    [score] = score_rules([rule], [schedule], matcher=matcher)
    return bool(score.n_satisfied) if score.n_transferred else None


@dataclass(frozen=True)
class RuleScore:
    """How one rule fares on a foreign schedule set."""

    rule: Rule
    #: Schedules on which the rule transfers (its ops/roles exist).
    n_transferred: int
    #: Of those, how many satisfy the rule.
    n_satisfied: int

    @property
    def satisfaction(self) -> float:
        """Satisfied fraction over transferred schedules (0 if none)."""
        if self.n_transferred == 0:
            return 0.0
        return self.n_satisfied / self.n_transferred


def score_rules(
    rules: Iterable[Rule], schedules: Sequence[Schedule], *, matcher=None
) -> List[RuleScore]:
    """Evaluate every rule against every schedule.

    Deterministic order: rules sorted by text, so reports and JSON output
    are stable across runs and processes.  An empty rule iterable or an
    empty schedule sequence is well-defined (empty list / all-zero
    scores), never an error.
    """
    spans = spans_of(ScheduleTable(schedules), matcher)
    return score_spans(rules, spans, matcher=matcher)


def score_spans(
    rules: Iterable[Rule],
    spans: KeySpans,
    rows: Optional[np.ndarray] = None,
    *,
    matcher=None,
) -> List[RuleScore]:
    """:func:`score_rules` over schedules already keyed by
    :func:`spans_of` under the same ``matcher``, counting only the
    schedules ``rows`` selects (a boolean mask; default all)."""
    rules, transferred, satisfied = tally(rules, spans, matcher=matcher)
    if rows is not None:
        transferred, satisfied = transferred[:, rows], satisfied[:, rows]
    return [
        RuleScore(rule, n_t, n_s)
        for rule, n_t, n_s in zip(
            rules,
            transferred.sum(axis=1).tolist(),
            satisfied.sum(axis=1).tolist(),
        )
    ]


def transfer_summary(
    scores: Sequence[RuleScore],
) -> Tuple[int, int, float]:
    """Aggregate ``(n_rules, n_transferable, mean_satisfaction)``.

    A rule is *transferable* when it transferred to at least one
    schedule; the mean satisfaction averages over transferable rules.
    """
    transferable = [s for s in scores if s.n_transferred > 0]
    if not transferable:
        return (len(scores), 0, 0.0)
    mean = sum(s.satisfaction for s in transferable) / len(transferable)
    return (len(scores), len(transferable), mean)


def class_rules(rulesets, cls: int) -> List[Rule]:
    """Deduplicated rules from every ruleset predicting class ``cls``."""
    seen: Dict[Rule, None] = {}
    for rs in rulesets:
        if rs.predicted_class != cls:
            continue
        for rule in rs.rules:
            seen.setdefault(rule, None)
    return list(seen)
