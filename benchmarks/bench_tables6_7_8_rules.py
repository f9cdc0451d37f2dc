"""Tables VI-VIII: per-class rulesets per iteration budget, annotated
against the canonical (full-space) rules.

Paper: fastest-class rulesets from small budgets are consistent but
overconstrained (blue extras); slower-class rulesets are frequently
underconstrained ("insufficient rules", red).  The full-budget column is
canonical by construction.
"""

from benchmarks.conftest import emit
from repro.experiments import run_rule_tables
from repro.rules.compare import Annotation


def test_tables_6_7_8_rulesets(benchmark, fresh_wb, capfd):
    result = benchmark.pedantic(
        lambda: run_rule_tables(fresh_wb), rounds=1, iterations=1
    )
    emit(
        capfd,
        "Tables VI-VIII (rulesets per class per budget)",
        result.report(max_rulesets=3),
    )
    summary = result.summary()
    emit(
        capfd,
        "Tables VI-VIII consistency summary",
        "\n".join(
            f"class {cls} @ {col}: {counts}"
            for cls, cols in sorted(summary.items())
            for col, counts in cols.items()
        ),
    )
    # Full-budget column is exact for every class.
    full_col = str(fresh_wb.space.count())
    for cls, cols in result.cells.items():
        for res in cols[full_col]:
            assert res.annotation is Annotation.EXACT
    # Small budgets produce at least one non-exact ruleset somewhere
    # (the inconsistency phenomenon the paper's Tables VI-VIII document).
    small_col = str(min(int(c) for cols in result.cells.values() for c in cols))
    non_exact = [
        res
        for cols in result.cells.values()
        for res in cols[small_col]
        if res.annotation is not Annotation.EXACT
    ]
    assert non_exact
