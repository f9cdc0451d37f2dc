"""Tests for discrimination-aware transfer scoring (repro.transfer.scoring)."""

from repro.dag.vertex import cpu_op, gpu_op
from repro.ml.features import OrderFeature, StreamFeature
from repro.rules.ruleset import Rule
from repro.rules.score import ROLE
from repro.schedule.schedule import BoundOp, Schedule
from repro.transfer.scoring import (
    DiscriminationScore,
    discrimination_summary,
    score_transfer,
)


def _gpu(name, stream):
    return BoundOp(vertex=gpu_op(name), stream=stream)


def _cpu(name):
    return BoundOp(vertex=cpu_op(name))


#: "A before B" holds on fast schedules, is violated on slow ones.
FAST = [
    Schedule([_gpu("A", 0), _gpu("B", 1), _cpu("C")]),
    Schedule([_gpu("A", 0), _cpu("C"), _gpu("B", 0)]),
]
SLOW = [
    Schedule([_gpu("B", 0), _gpu("A", 1), _cpu("C")]),
    Schedule([_gpu("B", 0), _cpu("C"), _gpu("A", 0)]),
]

GOOD_RULE = Rule(OrderFeature("A", "B"), True)


class TestAlwaysTrueRuleScoresZero:
    def test_injected_always_true_rule_has_zero_discrimination(self):
        # The injected rule holds on every schedule of both classes, so
        # under satisfaction scoring it would "transfer" perfectly; the
        # discrimination gap must be exactly 0.
        fast = [Schedule([_gpu("A", 0), _gpu("B", 0), _cpu("C")])]
        slow = [Schedule([_gpu("A", 0), _cpu("C"), _gpu("B", 1)])]
        control = Rule(OrderFeature("A", "B"), True)  # true on both sides
        [score] = score_transfer([control], fast, slow)
        assert score.fast_satisfaction == 1.0
        assert score.slow_satisfaction == 1.0
        assert score.discrimination == 0.0
        assert score.weight == 0.0

    def test_always_false_rule_also_scores_zero(self):
        fast = [Schedule([_gpu("A", 0), _gpu("B", 0)])]
        slow = [Schedule([_gpu("A", 0), _gpu("B", 1)])]
        never = Rule(OrderFeature("B", "A"), True)
        [score] = score_transfer([never], fast, slow)
        assert score.fast_satisfaction == 0.0
        assert score.slow_satisfaction == 0.0
        assert score.discrimination == 0.0


class TestDiscrimination:
    def test_separating_rule_scores_one(self):
        [score] = score_transfer([GOOD_RULE], FAST, SLOW)
        assert score.fast_satisfaction == 1.0
        assert score.slow_satisfaction == 0.0
        assert score.discrimination == 1.0
        assert score.coverage == 1.0
        assert score.weight == 1.0

    def test_anti_rule_scores_minus_one(self):
        [score] = score_transfer([GOOD_RULE.negated()], FAST, SLOW)
        assert score.discrimination == -1.0

    def test_one_sided_transfer_is_not_transferable(self):
        # The rule's ops exist only in the fast schedules: no gap exists.
        fast = [Schedule([_gpu("X", 0), _gpu("Y", 0)])]
        slow = [Schedule([_gpu("A", 0), _gpu("B", 0)])]
        rule = Rule(OrderFeature("X", "Y"), True)
        [score] = score_transfer([rule], fast, slow)
        assert not score.transfers
        assert score.discrimination == 0.0
        assert 0.0 < score.coverage < 1.0

    def test_stream_rule_discrimination(self):
        fast = [Schedule([_gpu("A", 0), _gpu("B", 0)])]
        slow = [Schedule([_gpu("A", 0), _gpu("B", 1)])]
        same = Rule(StreamFeature("A", "B"), True)
        [score] = score_transfer([same], fast, slow)
        assert score.discrimination == 1.0

    def test_coverage_counts_both_classes(self):
        fast = [Schedule([_gpu("A", 0), _gpu("B", 0)])]
        slow = [
            Schedule([_gpu("A", 0), _gpu("B", 1)]),
            Schedule([_gpu("A", 0), _gpu("C", 1)]),  # no B: not evaluable
        ]
        [score] = score_transfer([GOOD_RULE], fast, slow)
        assert score.n_total == 3
        assert score.coverage == 2 / 3


class TestDegenerateCases:
    def test_no_rules_is_empty(self):
        assert score_transfer([], FAST, SLOW) == []
        assert discrimination_summary([]) == (0, 0, 0.0, 0.0)

    def test_no_schedules_is_all_zero(self):
        [score] = score_transfer([GOOD_RULE], [], [])
        assert score.n_total == 0
        assert score.coverage == 0.0
        assert score.discrimination == 0.0
        assert not score.transfers

    def test_empty_fast_class_only(self):
        [score] = score_transfer([GOOD_RULE], [], SLOW)
        assert not score.transfers
        assert score.discrimination == 0.0

    def test_summary_skips_untransferable(self):
        miss = Rule(OrderFeature("X", "Y"), True)
        scores = score_transfer([GOOD_RULE, miss], FAST, SLOW)
        n_rules, n_trans, mean_disc, mean_cov = discrimination_summary(scores)
        assert (n_rules, n_trans) == (2, 1)
        assert mean_disc == 1.0
        assert mean_cov == 1.0

    def test_all_untransferable_summary_is_zero(self):
        miss = Rule(OrderFeature("X", "Y"), True)
        scores = score_transfer([miss], FAST, SLOW)
        assert discrimination_summary(scores) == (1, 0, 0.0, 0.0)


class TestMatchingModes:
    def test_by_role(self):
        fast = [Schedule([_gpu("Pack_x", 0), _cpu("PostSends_x")])]
        slow = [Schedule([_cpu("PostSends_x"), _gpu("Pack_x", 0)])]
        rule = Rule(OrderFeature("Pack", "PostSends"), True)
        [score] = score_transfer([rule], fast, slow, matcher=ROLE)
        assert score.discrimination == 1.0

    def test_matcher_mode(self):
        class Upper:
            def rule_key(self, name):
                return name.upper()

            def op_key(self, name):
                return name.upper()

        fast = [Schedule([_gpu("a", 0), _gpu("b", 0)])]
        slow = [Schedule([_gpu("b", 0), _gpu("a", 0)])]
        rule = Rule(OrderFeature("A", "B"), True)
        assert score_transfer([rule], fast, slow)[0].discrimination == 0.0
        [score] = score_transfer([rule], fast, slow, matcher=Upper())
        assert score.discrimination == 1.0


class TestScoreObject:
    def test_properties_are_consistent(self):
        s = DiscriminationScore(
            rule=GOOD_RULE,
            n_fast_transferred=4,
            n_fast_satisfied=3,
            n_slow_transferred=5,
            n_slow_satisfied=1,
            n_total=10,
        )
        assert s.fast_satisfaction == 0.75
        assert s.slow_satisfaction == 0.2
        assert abs(s.discrimination - 0.55) < 1e-12
        assert s.coverage == 0.9
        assert abs(s.weight - 0.55 * 0.9) < 1e-12
