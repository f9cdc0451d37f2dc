"""Tests for rule rendering."""

from repro.ml.features import OrderFeature
from repro.rules.compare import Annotation, CompareResult
from repro.rules.render import render_compare_cell, render_ruleset_table
from repro.rules.ruleset import Rule, RuleSet


F1 = OrderFeature("a", "b")
F2 = OrderFeature("b", "c")


def rs(rules, cls=0, n=10):
    return RuleSet(rules=frozenset(rules), predicted_class=cls, n_samples=n)


def test_render_cell_marks_extras():
    result = CompareResult(
        ruleset=rs([Rule(F1, True), Rule(F2, True)]),
        annotation=Annotation.OVERCONSTRAINED,
        extra=(Rule(F2, True),),
    )
    lines = render_compare_cell(result)
    assert any("(+)" in line and "b before c" in line for line in lines)


def test_render_cell_marks_insufficient():
    result = CompareResult(
        ruleset=rs([Rule(F1, True)]),
        annotation=Annotation.UNDERCONSTRAINED,
        missing=(Rule(F2, True),),
    )
    lines = render_compare_cell(result)
    assert "insufficient rules" in lines
    assert any("missing" in line for line in lines)


def test_render_table_columns_aligned():
    col = [
        CompareResult(
            ruleset=rs([Rule(F1, True)]), annotation=Annotation.EXACT
        )
    ]
    out = render_ruleset_table({"50": col, "100": col}, title="demo")
    lines = out.splitlines()
    assert lines[0] == "demo"
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1  # rectangular table
    assert "| 50" in out and "| 100" in out


def test_render_table_empty_column():
    out = render_ruleset_table({"50": []})
    assert "(none)" in out
