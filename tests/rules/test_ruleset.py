"""Tests for Rule / RuleSet logic."""

from repro.ml.features import OrderFeature, StreamFeature
from repro.rules.ruleset import Rule, RuleSet


def order_rule(u, v, value=True):
    return Rule(feature=OrderFeature(u, v), value=value)


def stream_rule(u, v, value=True):
    return Rule(feature=StreamFeature(u, v), value=value)


class TestRule:
    def test_text_matches_paper_phrasing(self):
        assert order_rule("Pack", "yL").text == "Pack before yL"
        assert order_rule("Pack", "yL", False).text == "yL before Pack"
        assert stream_rule("Pack", "yL").text == "Pack same stream as yL"
        assert (
            stream_rule("Pack", "yL", False).text
            == "Pack different stream than yL"
        )

    def test_negation(self):
        r = order_rule("a", "b")
        assert r.negated().value is False
        assert r.negated().negated() == r

    def test_contradiction(self):
        assert order_rule("a", "b").contradicts(order_rule("a", "b", False))
        assert not order_rule("a", "b").contradicts(order_rule("a", "b"))
        assert not order_rule("a", "b").contradicts(order_rule("a", "c", False))


class TestRuleSet:
    def make(self, *rules, cls=0, n=10):
        return RuleSet(
            rules=frozenset(rules), predicted_class=cls, n_samples=n
        )

    def test_implies_superset(self):
        small = self.make(order_rule("a", "b"))
        big = self.make(order_rule("a", "b"), stream_rule("a", "b"))
        assert big.implies(small)
        assert not small.implies(big)

    def test_implies_self(self):
        rs = self.make(order_rule("a", "b"))
        assert rs.implies(rs)

    def test_extra_and_missing(self):
        a = self.make(order_rule("a", "b"), stream_rule("a", "b"))
        b = self.make(order_rule("a", "b"), order_rule("b", "c"))
        assert a.extra_rules(b) == frozenset([stream_rule("a", "b")])
        assert a.missing_rules(b) == frozenset([order_rule("b", "c")])

    def test_contradictions(self):
        a = self.make(order_rule("a", "b"))
        b = self.make(order_rule("a", "b", False))
        assert a.contradictions(b) == frozenset([order_rule("a", "b")])

    def test_sorted_rules_stable(self):
        rs = self.make(order_rule("z", "w"), order_rule("a", "b"))
        texts = [r.text for r in rs.sorted_rules()]
        assert texts == sorted(texts)

    def test_str_joins_rules(self):
        rs = self.make(order_rule("a", "b"), stream_rule("a", "b"))
        assert " AND " in str(rs)
