"""Rules and rulesets.

A :class:`Rule` is one binary constraint — an ordering ("Pack before yL")
or a stream assignment ("Pack same stream as yL").  A :class:`RuleSet` is
the conjunction along one root-to-leaf path; "as long as all rules in a
given ruleset are followed, other decisions do not matter" (paper §V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, Tuple


@dataclass(frozen=True)
class Rule:
    """One binary constraint: ``feature == value``."""

    feature: object  # OrderFeature | StreamFeature
    value: bool

    @property
    def text(self) -> str:
        return self.feature.describe(self.value)

    def negated(self) -> "Rule":
        return Rule(feature=self.feature, value=not self.value)

    def contradicts(self, other: "Rule") -> bool:
        return self.feature == other.feature and self.value != other.value

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class RuleSet:
    """A conjunction of rules leading to one performance class.

    ``n_samples`` is the number of training samples in the leaf (used to
    sort rulesets for presentation, as the paper sorts cells "by the
    number of training samples that followed those rules");
    ``class_proportions`` is the leaf's (weighted) class distribution.
    """

    rules: FrozenSet[Rule]
    predicted_class: int
    n_samples: int = 0
    class_proportions: Tuple[float, ...] = ()
    leaf_id: int = -1

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.sorted_rules())

    def __len__(self) -> int:
        return len(self.rules)

    def sorted_rules(self) -> Tuple[Rule, ...]:
        return tuple(sorted(self.rules, key=lambda r: r.text))

    # -- logical relations ------------------------------------------------
    def implies(self, other: "RuleSet") -> bool:
        """True if following self guarantees following ``other``
        (self's constraints are a superset)."""
        return other.rules <= self.rules

    def extra_rules(self, other: "RuleSet") -> FrozenSet[Rule]:
        """Rules in self that ``other`` does not require."""
        return self.rules - other.rules

    def missing_rules(self, other: "RuleSet") -> FrozenSet[Rule]:
        """Rules ``other`` requires that self lacks."""
        return other.rules - self.rules

    def contradictions(self, other: "RuleSet") -> FrozenSet[Rule]:
        """Rules of self directly contradicted by ``other``."""
        return frozenset(
            r for r in self.rules if any(r.contradicts(o) for o in other.rules)
        )

    def overlap(self, other: "RuleSet") -> int:
        return len(self.rules & other.rules)

    # ----------------------------------------------------------------------
    def text_lines(self) -> Tuple[str, ...]:
        return tuple(r.text for r in self.sorted_rules())

    def __str__(self) -> str:
        return " AND ".join(self.text_lines())
