"""Ruleset consistency analysis against canonical rules (paper §V).

"The rules generated for the full SpMV traversal ... are taken as the
canonical, accurate rules. ... two kinds of inconsistencies are observed.
First, a ruleset may be *overconstrained* — consistent with the canonical
rules but with additional harmless restrictions [blue].  Second, a ruleset
may be *underconstrained*; i.e., it does not restrict the order and
assignment of operations sufficiently [red, 'insufficient rules']."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.rules.ruleset import Rule, RuleSet


class Annotation(enum.Enum):
    """Consistency of a ruleset with the canonical rulesets of its class."""

    #: Identical to a canonical ruleset.
    EXACT = "exact"
    #: Implies a canonical ruleset, with extra harmless rules (blue).
    OVERCONSTRAINED = "overconstrained"
    #: Implies no canonical ruleset — misses constraints (red).
    UNDERCONSTRAINED = "underconstrained"
    #: Predicted class has no canonical ruleset at all.
    NO_CANONICAL = "no_canonical"


@dataclass
class CompareResult:
    """One ruleset's relation to the canonical rulesets of its class."""

    ruleset: RuleSet
    annotation: Annotation
    #: Closest canonical ruleset (max rule overlap; ties → most samples).
    closest: Optional[RuleSet] = None
    #: Extra rules relative to the matched/closest canonical ruleset.
    extra: Tuple[Rule, ...] = ()
    #: Missing rules relative to the closest canonical ruleset
    #: (non-empty iff underconstrained).
    missing: Tuple[Rule, ...] = ()
    #: Rules directly contradicting the closest canonical ruleset.
    contradicting: Tuple[Rule, ...] = ()

    @property
    def is_consistent(self) -> bool:
        return self.annotation in (Annotation.EXACT, Annotation.OVERCONSTRAINED)


def compare_rulesets(
    candidate: RuleSet, canonical: Sequence[RuleSet]
) -> CompareResult:
    """Classify ``candidate`` against the canonical rulesets of its class."""
    same_class = [
        c for c in canonical if c.predicted_class == candidate.predicted_class
    ]
    if not same_class:
        return CompareResult(
            ruleset=candidate, annotation=Annotation.NO_CANONICAL
        )
    # Consistent if the candidate implies any canonical ruleset; prefer the
    # implied ruleset with the fewest extra rules.
    implied = [c for c in same_class if candidate.implies(c)]
    if implied:
        best = min(implied, key=lambda c: len(candidate.extra_rules(c)))
        extra = tuple(sorted(candidate.extra_rules(best), key=lambda r: r.text))
        return CompareResult(
            ruleset=candidate,
            annotation=Annotation.EXACT if not extra else Annotation.OVERCONSTRAINED,
            closest=best,
            extra=extra,
        )
    closest = max(
        same_class, key=lambda c: (candidate.overlap(c), c.n_samples)
    )
    return CompareResult(
        ruleset=candidate,
        annotation=Annotation.UNDERCONSTRAINED,
        closest=closest,
        extra=tuple(
            sorted(candidate.extra_rules(closest), key=lambda r: r.text)
        ),
        missing=tuple(
            sorted(candidate.missing_rules(closest), key=lambda r: r.text)
        ),
        contradicting=tuple(
            sorted(candidate.contradictions(closest), key=lambda r: r.text)
        ),
    )


def compare_all(
    candidates: Sequence[RuleSet], canonical: Sequence[RuleSet]
) -> List[CompareResult]:
    return [compare_rulesets(c, canonical) for c in candidates]


def consistency_summary(
    results: Sequence[CompareResult],
) -> Dict[str, int]:
    """Counts per annotation kind."""
    out: Dict[str, int] = {a.value: 0 for a in Annotation}
    for r in results:
        out[r.annotation.value] += 1
    return out
