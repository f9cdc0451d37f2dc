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
non-transferable.  *Role* matching (``by_role=True``) strips the
positional qualifier (a trailing ``_<digits>`` or ``_<axis>``), including
inside the scheduler's compound sync-op names (``CER-after-Pack_x`` →
``CER-after-Pack``), and evaluates the rule universally: it holds on a
schedule iff **every** pair of ops matching the two roles satisfies the
constraint.

This is the measurement behind the cross-workload generalization table
(:mod:`repro.workloads.generalization`): a rule that separates fast from
slow schedules on the workload it was learned on, *and* on workloads it
never saw, is a genuine design rule rather than an artifact of one DAG.

Signature matching
------------------
Role matching still presumes shared naming.  Every evaluation entry point
also accepts a ``matcher`` — an object with ``rule_key(name)`` mapping a
rule operand (a source-program op name) to a canonical group key and
``op_key(name)`` doing the same for target-schedule ops, either returning
``None`` for names that do not participate.  ``matcher`` overrides
``by_role``; :class:`repro.transfer.signature.SignatureMatcher` uses it
to match operations by *structural* signature (action kind, device,
comm-group topology, dependence-chain position), so families with
disjoint naming can still exchange rules.

Evaluation
----------
Each side is keyed once.  :func:`group_schedules` scans every schedule
once into its op groups (key -> launch positions, GPU key -> streams),
keying each distinct op name once, and :func:`resolve_rules` maps each
rule's two operands to keys once per rule, not once per schedule.
:func:`tally` counts over grouped schedules where a resolved rule
transfers and where it holds; it is the one place the quantifiers are
evaluated, for :func:`rule_satisfied` (one schedule), :func:`score_rules`,
:func:`score_groups` and the discrimination scores of
:mod:`repro.transfer.scoring`.  Callers scoring many rule sets on one
target (the cross-workload tables) group the target once and pass the
groups to :func:`score_groups`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dag.vertex import OpKind
from repro.ml.features import OrderFeature, StreamFeature
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

#: One schedule's op groups: key -> launch positions, and GPU op key ->
#: stream bindings (ops keyed ``None`` are dropped).
Groups = Tuple[Dict[str, List[int]], Dict[str, List[int]]]

#: A rule with its operands resolved to group keys:
#: ``(is_order, key_u, key_v, value)``; ``None`` when it cannot transfer.
ResolvedRule = Optional[Tuple[bool, str, str, bool]]


def _key_fns(by_role: bool, matcher) -> Tuple[KeyFn, KeyFn]:
    """``(rule_key, op_key)`` for the requested matching mode."""
    if matcher is not None:
        return (matcher.rule_key, matcher.op_key)
    if by_role:
        return (op_role, op_role)
    identity: KeyFn = lambda name: name  # noqa: E731
    return (identity, identity)


def group_schedules(
    schedules: Sequence[Schedule], *, by_role: bool = False, matcher=None
) -> Tuple[Groups, ...]:
    """Every schedule's op groups under the matching mode's op key.

    Each op name is keyed once per call.  Positions are appended in
    launch order, so a group's first and last entries are its earliest
    and latest launch.
    """
    _, op_key = _key_fns(by_role, matcher)
    names = {name for s in schedules for name, _, _ in s.key}
    key_of = {name: op_key(name) for name in names}
    out: List[Groups] = []
    for schedule in schedules:
        order: Dict[str, List[int]] = {}
        streams: Dict[str, List[int]] = {}
        for i, op in enumerate(schedule.ops):
            key = key_of[op.name]
            if key is None:
                continue
            order.setdefault(key, []).append(i)
            if op.kind is OpKind.GPU:
                streams.setdefault(key, []).append(op.stream)
        out.append((order, streams))
    return tuple(out)


def _resolve(rule: Rule, rule_key: KeyFn) -> ResolvedRule:
    f = rule.feature
    if not isinstance(f, (OrderFeature, StreamFeature)):
        return None
    key_u = rule_key(f.u)
    key_v = rule_key(f.v)
    if key_u is None or key_v is None or key_u == key_v:
        return None
    return (isinstance(f, OrderFeature), key_u, key_v, rule.value)


def resolve_rules(
    rules: Iterable[Rule], *, by_role: bool = False, matcher=None
) -> List[Tuple[Rule, ResolvedRule]]:
    """Each rule with its operand keys, in rule-text order."""
    rule_key, _ = _key_fns(by_role, matcher)
    return [
        (rule, _resolve(rule, rule_key))
        for rule in sorted(rules, key=lambda r: r.text)
    ]


def tally(
    resolved: ResolvedRule, grouped: Iterable[Groups]
) -> Tuple[int, int]:
    """``(n_transferred, n_satisfied)`` of a resolved rule over grouped
    schedules: how many hold a group for each operand, and how many of
    those follow the rule on every cross pair of the two groups."""
    if resolved is None:
        return (0, 0)
    is_order, key_u, key_v, value = resolved
    side = 0 if is_order else 1
    n_t = 0
    n_s = 0
    for groups in grouped:
        us = groups[side].get(key_u)
        vs = groups[side].get(key_v)
        if not us or not vs:
            continue
        n_t += 1
        if is_order:  # positions ascend: [0] is the earliest, [-1] the latest
            ok = us[-1] < vs[0] if value else vs[-1] < us[0]
        elif value:
            ok = all(a == b for a in us for b in vs)
        else:
            ok = all(a != b for a in us for b in vs)
        if ok:
            n_s += 1
    return (n_t, n_s)


def rule_satisfied(
    rule: Rule,
    schedule: Schedule,
    *,
    by_role: bool = False,
    matcher=None,
) -> Optional[bool]:
    """Whether ``schedule`` follows ``rule``; ``None`` if the rule does
    not transfer (an op/role/signature the rule mentions is absent, or
    both of its operations collapse onto the same group).

    With ``by_role=True`` (or a ``matcher``) several ops may match each
    side; the rule is satisfied iff every cross pair satisfies the
    constraint.
    """
    rule_key, _ = _key_fns(by_role, matcher)
    n_t, n_s = tally(
        _resolve(rule, rule_key),
        group_schedules([schedule], by_role=by_role, matcher=matcher),
    )
    return bool(n_s) if n_t else None


def rule_transfers(
    rule: Rule, schedule: Schedule, *, by_role: bool = False, matcher=None
) -> bool:
    """True if the rule can be evaluated on ``schedule`` at all."""
    return (
        rule_satisfied(rule, schedule, by_role=by_role, matcher=matcher)
        is not None
    )


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
    rules: Iterable[Rule],
    schedules: Sequence[Schedule],
    *,
    by_role: bool = False,
    matcher=None,
) -> List[RuleScore]:
    """Evaluate every rule against every schedule.

    Deterministic order: rules sorted by text, so reports and JSON output
    are stable across runs and processes.  An empty rule iterable or an
    empty schedule sequence is well-defined (empty list / all-zero
    scores), never an error.
    """
    grouped = group_schedules(schedules, by_role=by_role, matcher=matcher)
    return score_groups(rules, grouped, by_role=by_role, matcher=matcher)


def score_groups(
    rules: Iterable[Rule],
    grouped: Sequence[Groups],
    *,
    by_role: bool = False,
    matcher=None,
) -> List[RuleScore]:
    """:func:`score_rules` over schedules already grouped by
    :func:`group_schedules` under the same matching mode."""
    return [
        RuleScore(rule, *tally(resolved, grouped))
        for rule, resolved in resolve_rules(
            rules, by_role=by_role, matcher=matcher
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
