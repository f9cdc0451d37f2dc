"""Markdown reports of the cross-workload commands.

``render_transfer_report(result)`` renders a
:class:`repro.transfer.TransferMatrixResult` (the ``repro transfer
--report`` output), and ``render_suite_report(report)`` does the same for
a :class:`repro.workloads.SuiteReport` (``repro suite --report``).  Both
include the run's execution-plan timing — shard count plus per-task wall
and stage breakdown — which the JSON reports always carried but the
rendered output used to drop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transfer.matrix import TransferMatrixResult
    from repro.workloads.suite import SuiteReport


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n{body.rstrip()}\n"


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(lines)


# ----------------------------------------------------------------------
def _timing_section(timing: Dict[str, object]) -> Optional[str]:
    """Markdown rendering of an execution plan's timing summary.

    One row per workload task: total wall plus the per-stage breakdown
    (build → search/enumerate → label → extract) the runner measured.
    Returns ``None`` when the run carried no timing (e.g. a matrix built
    from precomputed pipeline outputs).
    """
    tasks = timing.get("tasks") if timing else None
    if not tasks:
        return None
    shards = int(timing.get("shard_workers", 0) or 0)
    header = (
        f"{len(tasks)} workload tasks "
        + (f"across {shards} shards" if shards > 1 else "in-process")
        + f", {float(timing.get('wall_s', 0.0)):.2f}s total wall "
        "(wall-clock only; all other report fields are identical for "
        "any shard count).\n\n"
    )
    rows = []
    for t in tasks:
        stages = t.get("stages") or {}
        breakdown = " · ".join(
            f"{name} {float(wall):.2f}s" for name, wall in stages.items()
        )
        rows.append(
            (
                f"`{t.get('label', '')}`",
                str(t.get("kind", "")),
                f"{float(t.get('wall_s', 0.0)):.2f}s",
                breakdown or "—",
            )
        )
    return _section(
        "Timing",
        header
        + _md_table(("workload", "task", "wall", "stages"), rows),
    )


def render_transfer_report(result: "TransferMatrixResult") -> str:
    """Markdown report of a cross-program transfer-matrix experiment.

    Sections: the discrimination grid (signature-matched fast/slow
    satisfaction gaps), the per-target always-true controls (which must
    score 0 — the metric's vacuity check), and the leave-one-workload-out
    union-tree accuracy row.
    """
    parts: List[str] = [
        "# Cross-program transfer report",
        "",
        f"Workloads: {len(result.workloads)}",
        "",
        "\n".join(f"- `{w}`" for w in result.workloads),
        "",
        _section(
            "Discrimination matrix",
            "Each source workload's fastest-class rules scored on every "
            "other workload via structural signature matching.  "
            "*disc* is the mean fast/slow satisfaction gap over "
            "transferable rules (+1 = perfectly separates the target's "
            "fast class, 0 = uninformative); *cover* is the mean "
            "fraction of target schedules the rules were evaluable "
            "on.\n\n"
            + _md_table(
                (
                    "rules from",
                    "scored on",
                    "transfer",
                    "disc",
                    "cover",
                    "best",
                    "advice",
                ),
                [
                    (
                        f"`{c['source']}`",
                        f"`{c['target']}`",
                        f"{c['n_transferable']}/{c['n_rules']}",
                        f"{float(c['mean_discrimination']):+.2f}",
                        f"{100.0 * float(c['mean_coverage']):.0f}%",
                        f"{float(c['best_discrimination']):+.2f}",
                        "**avoid**" if c["do_not_transfer"] else "",
                    )
                    for c in result.rows()
                ],
            ),
        ),
        _section(
            "Always-true controls",
            "A vacuous rule (implied by the target's own dependence "
            "edges, hence satisfied by every schedule) is injected per "
            "target; under satisfaction scoring it would transfer "
            "perfectly, under discrimination scoring it must score "
            "0.\n\n"
            + _md_table(
                ("target", "control rule", "fast", "slow", "disc"),
                [
                    (
                        f"`{c.target}`",
                        f"`{c.rule}`",
                        f"{100.0 * c.fast_satisfaction:.0f}%",
                        f"{100.0 * c.slow_satisfaction:.0f}%",
                        f"{c.discrimination:+.2f}",
                    )
                    for c in result.controls
                ],
            ),
        ),
    ]
    if result.union_rows:
        parts.append(
            _section(
                "Union-trained tree (leave-one-workload-out)",
                "One tree trained on the union of all other workloads' "
                "schedules in the signature-canonical feature space, "
                "then asked to classify the held-out workload's "
                "schedules fast/slow.\n\n"
                + _md_table(
                    (
                        "held-out target",
                        "train sources",
                        "features",
                        "leaves",
                        "train acc",
                        "held-out acc",
                    ),
                    [
                        (
                            f"`{u.target}`",
                            str(len(u.trained_on)),
                            str(u.n_features),
                            str(u.n_leaves),
                            f"{100.0 * u.train_accuracy:.0f}%",
                            f"{100.0 * u.holdout_accuracy:.0f}%",
                        )
                        for u in result.union_rows
                    ],
                ),
            )
        )
    advisories = result.advisories()
    if advisories:
        parts.append(
            _section(
                "Do-not-transfer advisories",
                "Cells whose transferred rules *anti*-predict the "
                "target's fast class (strongly negative mean "
                "discrimination): following these sources' guidance on "
                "these targets is worse than not transferring at "
                "all.\n\n"
                + "\n".join(
                    f"- `{c.source}` → `{c.target}`: "
                    f"{c.mean_discrimination:+.2f} over "
                    f"{c.n_transferable} transferred rules"
                    for c in advisories
                ),
            )
        )
    if result.union_note:
        parts.append(_section("Union training note", result.union_note))
    timing = _timing_section(result.timing)
    if timing is not None:
        parts.append(timing)
    return "\n".join(parts)


# ----------------------------------------------------------------------
def render_suite_report(report: "SuiteReport") -> str:
    """Markdown report of a workload-suite run (``repro suite --report``).

    Sections: the per-cell comparison table, the cross-workload tables a
    generalization suite adds, the per-stage timing breakdown, and the
    advisor artifacts the run published.
    """
    parts: List[str] = [
        f"# Suite report — `{report.suite}`",
        "",
        f"Machine: `{report.machine}`  ",
        f"Cells: {len(report.cells)}",
        "",
        _section(
            "Results",
            _md_table(
                (
                    "workload",
                    "strategy",
                    "ops",
                    "iters",
                    "unique",
                    "sims",
                    "best (µs)",
                    "mean (µs)",
                ),
                [
                    (
                        f"`{c.workload}`",
                        c.strategy,
                        str(c.n_ops),
                        str(c.n_iterations),
                        str(c.n_unique),
                        str(c.n_simulations),
                        f"{c.best_time * 1e6:.2f}",
                        f"{c.mean_time * 1e6:.2f}",
                    )
                    for c in report.cells
                ],
            ),
        ),
    ]
    if report.rules_table:
        parts.append(
            _section(
                "Cross-workload rule transfer",
                _md_table(
                    ("rules from", "scored on", "rules", "transfer", "satisfied"),
                    [
                        (
                            f"`{r['source']}`",
                            f"`{r['target']}`",
                            str(r["n_rules"]),
                            str(r["n_transferable"]),
                            f"{100.0 * float(r['mean_satisfaction']):.0f}%",
                        )
                        for r in report.rules_table
                    ],
                ),
            )
        )
    if report.transfer_table:
        parts.append(
            _section(
                "Signature-matched discrimination",
                _md_table(
                    ("rules from", "scored on", "transfer", "disc", "cover"),
                    [
                        (
                            f"`{r['source']}`",
                            f"`{r['target']}`",
                            f"{r['n_transferable']}/{r['n_rules']}",
                            f"{float(r['mean_discrimination']):+.2f}",
                            f"{100.0 * float(r['mean_coverage']):.0f}%",
                        )
                        for r in report.transfer_table
                    ],
                ),
            )
        )
    if report.union_table:
        parts.append(
            _section(
                "Union-trained tree (leave-one-workload-out)",
                _md_table(
                    ("held-out target", "features", "leaves", "train acc", "held-out acc"),
                    [
                        (
                            f"`{u['target']}`",
                            str(u["n_features"]),
                            str(u["n_leaves"]),
                            f"{100.0 * float(u['train_accuracy']):.0f}%",
                            f"{100.0 * float(u['holdout_accuracy']):.0f}%",
                        )
                        for u in report.union_table
                    ],
                ),
            )
        )
    if report.union_note:
        parts.append(_section("Union training note", report.union_note))
    timing = _timing_section(report.timing)
    if timing is not None:
        parts.append(timing)
    if report.published:
        parts.append(
            _section(
                "Published advisor artifacts",
                "\n".join(f"- `{p}`" for p in report.published),
            )
        )
    if report.store_note:
        parts.append(_section("Store note", report.store_note))
    return "\n".join(parts)
