"""Tests for cross-workload rule scoring (repro.rules.score)."""

from hypothesis import given, settings, strategies as st

from repro.dag.vertex import OpKind, cpu_op, gpu_op
from repro.ml.features import OrderFeature, StreamFeature
from repro.rules.ruleset import Rule, RuleSet
from repro.rules.score import (
    ROLE,
    class_rules,
    op_role,
    rule_satisfied,
    score_rules,
    transfer_summary,
)
from repro.schedule.schedule import BoundOp, Schedule


def _sched(*ops):
    return Schedule(ops)


def _gpu(name, stream):
    return BoundOp(vertex=gpu_op(name), stream=stream)


def _cpu(name):
    return BoundOp(vertex=cpu_op(name))


SCHED = _sched(
    _gpu("Pack_x", 0),
    _cpu("PostSends_x"),
    _gpu("Unpack_x", 1),
    _cpu("WaitRecv_x"),
)


class TestOpRole:
    def test_plain_names_unchanged(self):
        assert op_role("Pack") == "Pack"
        assert op_role("yL") == "yL"

    def test_axis_and_index_qualifiers_stripped(self):
        assert op_role("Pack_x") == "Pack"
        assert op_role("PostSends_0") == "PostSends"
        assert op_role("T1_2") == "T1"

    def test_sync_ops_normalized_recursively(self):
        assert op_role("CER-after-Pack_x") == "CER-after-Pack"
        assert op_role("CES-b4-PostSends_0") == "CES-b4-PostSends"
        assert (
            op_role("CES-b4-Join0-after-S0B0_0") == "CES-b4-Join0-after-S0B0"
        )
        assert op_role("CSWE-Boundary-waits-Unpack_x") == (
            "CSWE-Boundary-waits-Unpack"
        )


class TestRuleSatisfied:
    def test_exact_order_rule(self):
        rule = Rule(OrderFeature("Pack_x", "PostSends_x"), True)
        assert rule_satisfied(rule, SCHED) is True
        assert rule_satisfied(rule.negated(), SCHED) is False

    def test_exact_missing_op_is_none(self):
        rule = Rule(OrderFeature("Pack_y", "PostSends_x"), True)
        assert rule_satisfied(rule, SCHED) is None

    def test_role_order_rule_transfers(self):
        # learned on SpMV (bare names), scored on the halo-style schedule
        rule = Rule(OrderFeature("Pack", "PostSends"), True)
        assert rule_satisfied(rule, SCHED) is None  # exact: no bare 'Pack'
        assert rule_satisfied(rule, SCHED, matcher=ROLE) is True

    def test_role_stream_rule(self):
        rule = Rule(StreamFeature("Pack", "Unpack"), True)
        assert rule_satisfied(rule, SCHED, matcher=ROLE) is False
        assert rule_satisfied(rule.negated(), SCHED, matcher=ROLE) is True

    def test_role_universal_quantification(self):
        two_axis = _sched(
            _gpu("Pack_x", 0),
            _gpu("Pack_y", 0),
            _cpu("PostSends_x"),
            _cpu("PostSends_y"),
        )
        rule = Rule(OrderFeature("Pack", "PostSends"), True)
        assert rule_satisfied(rule, two_axis, matcher=ROLE) is True
        mixed = _sched(
            _gpu("Pack_x", 0),
            _cpu("PostSends_x"),
            _gpu("Pack_y", 0),
            _cpu("PostSends_y"),
        )
        # Pack_y launches after PostSends_x ⇒ not *every* pair ordered
        assert rule_satisfied(rule, mixed, matcher=ROLE) is False

    def test_identical_roles_do_not_self_match(self):
        rule = Rule(OrderFeature("Pack_x", "Pack_y"), True)
        assert rule_satisfied(rule, SCHED, matcher=ROLE) is None


class TestScoring:
    def test_score_rules_counts(self):
        rules = [
            Rule(OrderFeature("Pack", "PostSends"), True),
            Rule(OrderFeature("nope", "PostSends"), True),
        ]
        scores = score_rules(rules, [SCHED, SCHED], matcher=ROLE)
        by_text = {s.rule.text: s for s in scores}
        hit = by_text["Pack before PostSends"]
        assert (hit.n_transferred, hit.n_satisfied) == (2, 2)
        assert hit.satisfaction == 1.0
        miss = by_text["nope before PostSends"]
        assert (miss.n_transferred, miss.satisfaction) == (0, 0.0)

    def test_transfer_summary(self):
        rules = [
            Rule(OrderFeature("Pack", "PostSends"), True),
            Rule(OrderFeature("nope", "PostSends"), True),
        ]
        scores = score_rules(rules, [SCHED], matcher=ROLE)
        n_rules, n_transferable, sat = transfer_summary(scores)
        assert (n_rules, n_transferable, sat) == (2, 1, 1.0)

    def test_transfer_summary_empty(self):
        assert transfer_summary([]) == (0, 0, 0.0)

    def test_class_rules_dedup(self):
        r1 = Rule(OrderFeature("a", "b"), True)
        r2 = Rule(OrderFeature("b", "c"), True)
        rs0 = RuleSet(rules=frozenset({r1, r2}), predicted_class=0)
        rs0b = RuleSet(rules=frozenset({r1}), predicted_class=0, leaf_id=1)
        rs1 = RuleSet(rules=frozenset({r2}), predicted_class=1)
        rules = class_rules([rs0, rs0b, rs1], 0)
        assert set(rules) == {r1, r2}
        assert class_rules([rs0, rs1], 1) == [r2]


class TestDegenerateCases:
    """Empty rulesets, empty schedule sets, and zero-match roles must
    yield well-defined results — never a division by zero, never a rule
    silently counted as passing."""

    def test_empty_ruleset_scores_empty(self):
        assert score_rules([], [SCHED]) == []
        assert transfer_summary(score_rules([], [SCHED])) == (0, 0, 0.0)

    def test_empty_schedule_set_is_all_zero(self):
        rule = Rule(OrderFeature("Pack_x", "PostSends_x"), True)
        [score] = score_rules([rule], [])
        assert (score.n_transferred, score.n_satisfied) == (0, 0)
        assert score.satisfaction == 0.0  # no division by zero

    def test_zero_match_role_does_not_pass(self):
        rule = Rule(OrderFeature("nope", "PostSends"), True)
        assert rule_satisfied(rule, SCHED, matcher=ROLE) is None
        [score] = score_rules([rule], [SCHED], matcher=ROLE)
        assert score.n_transferred == 0
        assert score.n_satisfied == 0
        assert score.satisfaction == 0.0

    def test_roles_collapsing_to_same_key_do_not_pass(self):
        # Pack_x vs Pack_y both strip to 'Pack': universally quantified
        # over one group the constraint is meaningless, so it must be
        # "does not transfer", not "satisfied".
        rule = Rule(OrderFeature("Pack_x", "Pack_y"), True)
        [score] = score_rules([rule], [SCHED], matcher=ROLE)
        assert score.n_transferred == 0

    def test_summary_with_no_transferable_rules(self):
        rules = [Rule(OrderFeature("nope", "PostSends"), True)]
        scores = score_rules(rules, [SCHED], matcher=ROLE)
        assert transfer_summary(scores) == (1, 0, 0.0)


class TestMatcherMode:
    """A matcher (rule_key/op_key) replaces exact-name matching."""

    class _Upper:
        def rule_key(self, name):
            return name.upper()

        def op_key(self, name):
            return name.upper()

    def test_matcher_groups_by_key(self):
        rule = Rule(OrderFeature("pack_x", "postsends_x"), True)
        assert rule_satisfied(rule, SCHED) is None  # exact: no lowercase op
        assert rule_satisfied(rule, SCHED, matcher=self._Upper()) is True

    def test_matcher_none_key_drops_op(self):
        class OnlyPack:
            def rule_key(self, name):
                return name if name.startswith("Pack") else None

            def op_key(self, name):
                return name if name.startswith("Pack") else None

        rule = Rule(OrderFeature("Pack_x", "PostSends_x"), True)
        assert rule_satisfied(rule, SCHED, matcher=OnlyPack()) is None

    def test_score_rules_accepts_matcher(self):
        rule = Rule(OrderFeature("pack_x", "unpack_x"), True)
        [score] = score_rules([rule], [SCHED], matcher=self._Upper())
        assert (score.n_transferred, score.n_satisfied) == (1, 1)


# ----------------------------------------------------------------------
# Resolved-key scoring against per-(rule, schedule) evaluation.

#: Op pool: role-qualified names share roles, and some GPU groups span
#: several ops, so groups with several positions and streams occur.
POOL = {
    "Pack_0": True,
    "Pack_1": True,
    "Post_x": False,
    "Post_y": False,
    "Work": True,
    "Wait": False,
}


def reference_satisfied(rule, schedule, rule_key, op_key):
    """Group ``schedule`` and resolve both rule operands for this one
    (rule, schedule) pair, as every pair used to."""
    order, streams = {}, {}
    for i, op in enumerate(schedule.ops):
        key = op_key(op.name)
        if key is not None:
            order.setdefault(key, []).append(i)
    for op in schedule.ops:
        key = op_key(op.name)
        if op.kind is OpKind.GPU and key is not None:
            streams.setdefault(key, []).append(op.stream)
    f = rule.feature
    groups = order if isinstance(f, OrderFeature) else streams
    key_u, key_v = rule_key(f.u), rule_key(f.v)
    if key_u is None or key_v is None or key_u == key_v:
        return None
    us, vs = groups.get(key_u), groups.get(key_v)
    if not us or not vs:
        return None
    if isinstance(f, OrderFeature):
        return max(us) < min(vs) if rule.value else max(vs) < min(us)
    if rule.value:
        return all(a == b for a in us for b in vs)
    return all(a != b for a in us for b in vs)


class _DictMatcher:
    def __init__(self, source, target):
        self.source, self.target = source, target

    def rule_key(self, name):
        return self.source.get(name)

    def op_key(self, name):
        return self.target.get(name)


@st.composite
def scoring_cases(draw):
    names = list(POOL)
    schedules = []
    for _ in range(draw(st.integers(0, 6))):
        chosen = draw(st.permutations(names))
        chosen = chosen[: draw(st.integers(0, len(names)))]
        schedules.append(
            Schedule(
                [
                    _gpu(n, draw(st.integers(0, 2))) if POOL[n] else _cpu(n)
                    for n in chosen
                ]
            )
        )
    pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
    rules = [
        Rule(
            draw(st.sampled_from([OrderFeature, StreamFeature]))(u, v),
            draw(st.booleans()),
        )
        for u, v in draw(st.lists(pair, min_size=1, max_size=8))
    ]
    keys = st.sampled_from(["A", "B", "C", None])
    matcher = _DictMatcher(
        {n: draw(keys) for n in names}, {n: draw(keys) for n in names}
    )
    return rules, schedules, matcher


@given(scoring_cases(), st.sampled_from(["exact", "role", "matcher"]))
@settings(max_examples=300, deadline=None)
def test_scoring_matches_per_pair_evaluation(case, mode):
    rules, schedules, matcher = case
    kwargs = {
        "exact": {},
        "role": {"matcher": ROLE},
        "matcher": {"matcher": matcher},
    }[mode]
    if mode == "matcher":
        rule_key, op_key = matcher.rule_key, matcher.op_key
    elif mode == "role":
        rule_key = op_key = op_role
    else:
        rule_key = op_key = lambda name: name  # noqa: E731
    want = []
    for rule in sorted(rules, key=lambda r: r.text):
        verdicts = [
            reference_satisfied(rule, s, rule_key, op_key) for s in schedules
        ]
        for s, verdict in zip(schedules, verdicts):
            assert rule_satisfied(rule, s, **kwargs) is verdict
        held = [v for v in verdicts if v is not None]
        want.append((rule, len(held), sum(held)))
    got = score_rules(rules, schedules, **kwargs)
    assert [(s.rule, s.n_transferred, s.n_satisfied) for s in got] == want
