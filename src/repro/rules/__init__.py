"""Design-rule generation and comparison (paper §IV-D and §V).

Root-to-leaf paths of the trained decision tree become *rulesets*; each
ruleset is a conjunction of ordering / stream-assignment constraints that
places an implementation in a performance class.  Rulesets derived from
search subsets are compared against the canonical (full-space) rulesets
and annotated overconstrained / underconstrained exactly as in the
paper's Tables VI-VIII.
"""

from repro.rules.compare import Annotation, CompareResult, compare_rulesets
from repro.rules.extract import extract_rulesets
from repro.rules.render import render_ruleset_table
from repro.rules.ruleset import Rule, RuleSet
from repro.rules.score import (
    ROLE,
    RuleScore,
    class_rules,
    op_role,
    rule_satisfied,
    score_rules,
    transfer_summary,
)
from repro.rules.serialize import rule_from_dict, rule_to_dict

__all__ = [
    "Annotation",
    "CompareResult",
    "ROLE",
    "Rule",
    "RuleScore",
    "RuleSet",
    "class_rules",
    "compare_rulesets",
    "extract_rulesets",
    "op_role",
    "render_ruleset_table",
    "rule_from_dict",
    "rule_satisfied",
    "rule_to_dict",
    "score_rules",
    "transfer_summary",
]
