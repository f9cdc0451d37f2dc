"""Text rendering of rulesets and comparison tables (Tables VI-VIII).

The paper's tables have one column per MCTS iteration count and one cell
per ruleset (top-3 by training-sample count), with blue = extraneous rules
and red = "insufficient rules".  Terminal rendering marks extraneous rules
with ``(+)`` and underconstrained cells with ``insufficient rules``.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.rules.compare import Annotation, CompareResult


def render_compare_cell(result: CompareResult) -> List[str]:
    """One table cell: the ruleset with its consistency annotations."""
    lines: List[str] = []
    extra = set(result.extra)
    for rule in result.ruleset:
        mark = " (+)" if rule in extra else ""
        lines.append(f"{rule.text}{mark}")
    if result.annotation is Annotation.UNDERCONSTRAINED:
        lines.append("insufficient rules")
        for rule in result.missing:
            lines.append(f"  missing: {rule.text}")
    elif result.annotation is Annotation.NO_CANONICAL:
        lines.append("(no canonical ruleset for class)")
    return lines


def render_ruleset_table(
    columns: Mapping[str, Sequence[CompareResult]],
    title: str = "",
    max_rulesets_per_cell: int = 3,
) -> str:
    """Render a Tables VI-VIII style comparison.

    ``columns`` maps column headers (e.g. iteration counts "50", "100", ...)
    to the compared rulesets of ONE performance class, best-sampled first.
    Columns are rendered side by side; ``(+)`` marks extraneous-but-harmless
    rules (the paper's blue) and "insufficient rules" marks
    underconstrained cells (the paper's red).
    """
    headers = list(columns)
    cell_texts: List[List[str]] = []
    for h in headers:
        cells = columns[h][:max_rulesets_per_cell]
        block: List[str] = []
        for i, res in enumerate(cells):
            if i:
                block.append("-" * 8)
            block.extend(render_compare_cell(res))
        cell_texts.append(block or ["(none)"])
    width = max(
        [len(h) for h in headers]
        + [len(line) for block in cell_texts for line in block]
        + [10]
    )
    height = max(len(b) for b in cell_texts)
    sep = "+" + "+".join(["-" * (width + 2)] * len(headers)) + "+"
    out: List[str] = []
    if title:
        out.append(title)
    out.append(sep)
    out.append(
        "|"
        + "|".join(f" {h.ljust(width)} " for h in headers)
        + "|"
    )
    out.append(sep)
    for row in range(height):
        cells = [
            block[row] if row < len(block) else "" for block in cell_texts
        ]
        out.append(
            "|" + "|".join(f" {c.ljust(width)} " for c in cells) + "|"
        )
    out.append(sep)
    return "\n".join(out)
