"""Discrimination-aware transfer scoring.

The original cross-workload table scores a rule by its *satisfaction* on
the target's fastest class alone — under which a vacuous rule ("start is
launched first") transfers perfectly everywhere.  A design rule is only
worth transferring if following it is associated with being *fast*, so
each rule is scored on both sides of the target's labeling:

* ``fast_satisfaction`` — fraction of the target's fast-class schedules
  (among those the rule transfers to) that follow the rule;
* ``slow_satisfaction`` — the same over the slow classes;
* ``discrimination`` — the gap ``fast − slow``: +1 means the rule
  perfectly separates fast from slow on the target, 0 means it is
  uninformative there (always true, always false, or satisfied equally
  often by both classes), negative means the target's fast schedules
  systematically *violate* the source's guidance;
* ``coverage`` — the fraction of all target schedules the rule could be
  evaluated on at all; a rule that transfers to three schedules out of a
  thousand is weak evidence however well it separates them.

``weight = discrimination × coverage`` is the headline number reported in
the transfer matrix: an always-true rule has discrimination 0 and hence
weight 0, regardless of coverage.

A target is read as one keyed table over all its schedules plus a mask of
its fast rows: :func:`score_classes` tallies every rule once with
:func:`repro.rules.score.tally` and splits the counts by the mask, so
callers scoring many sources on one target (the transfer matrix, through
the cached :attr:`~repro.workloads.generalization.WorkloadRules.signature_spans`)
key it once.  :func:`score_transfer` builds that table from two schedule
lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.ml.features import KeySpans, ScheduleTable
from repro.rules.ruleset import Rule
from repro.rules.score import spans_of, tally
from repro.schedule.schedule import Schedule


@dataclass(frozen=True)
class DiscriminationScore:
    """How one rule separates a target's fast and slow schedule classes."""

    rule: Rule
    #: Fast-class schedules the rule transfers to / satisfies.
    n_fast_transferred: int
    n_fast_satisfied: int
    #: Slow-class schedules the rule transfers to / satisfies.
    n_slow_transferred: int
    n_slow_satisfied: int
    #: Total target schedules offered (fast + slow), for coverage.
    n_total: int

    @property
    def transfers(self) -> bool:
        """The rule was evaluable on at least one fast and one slow
        schedule — a discrimination gap needs both sides."""
        return self.n_fast_transferred > 0 and self.n_slow_transferred > 0

    @property
    def fast_satisfaction(self) -> float:
        if self.n_fast_transferred == 0:
            return 0.0
        return self.n_fast_satisfied / self.n_fast_transferred

    @property
    def slow_satisfaction(self) -> float:
        if self.n_slow_transferred == 0:
            return 0.0
        return self.n_slow_satisfied / self.n_slow_transferred

    @property
    def discrimination(self) -> float:
        """Fast/slow satisfaction gap in [-1, 1]; 0 when not transferable."""
        if not self.transfers:
            return 0.0
        return self.fast_satisfaction - self.slow_satisfaction

    @property
    def coverage(self) -> float:
        """Fraction of all offered schedules the rule was evaluable on."""
        if self.n_total == 0:
            return 0.0
        return (self.n_fast_transferred + self.n_slow_transferred) / self.n_total

    @property
    def weight(self) -> float:
        """Coverage-weighted discrimination — the headline transfer score."""
        return self.discrimination * self.coverage


def score_transfer(
    rules: Iterable[Rule],
    fast_schedules: Sequence[Schedule],
    slow_schedules: Sequence[Schedule],
    *,
    matcher=None,
) -> List[DiscriminationScore]:
    """Score every rule's fast/slow discrimination on a target workload.

    ``fast_schedules`` / ``slow_schedules`` are the target's labeled
    schedule classes (fastest class vs. everything else).  Matching
    follows :mod:`repro.rules.score`: exact names by default, or the
    keys of a ``matcher`` (:data:`~repro.rules.score.ROLE`, structural
    signatures).  Deterministic: rules are scored in text order.  Empty
    inputs are well-defined — no rules gives ``[]``, no schedules gives
    all-zero scores with discrimination 0.
    """
    table = ScheduleTable([*fast_schedules, *slow_schedules])
    fast = np.arange(table.n_schedules) < len(fast_schedules)
    return score_classes(rules, spans_of(table, matcher), fast, matcher=matcher)


def score_classes(
    rules: Iterable[Rule], spans: KeySpans, fast: np.ndarray, *, matcher=None
) -> List[DiscriminationScore]:
    """:func:`score_transfer` on a target already keyed by
    :func:`~repro.rules.score.spans_of` under the same ``matcher``;
    ``fast`` marks its fast-class schedules, and the rest are slow.

    Only the rule-side key function of ``matcher`` is consulted (once
    per rule); the op-side keys are already baked into ``spans``.
    """
    rules, transferred, satisfied = tally(rules, spans, matcher=matcher)
    f_t, f_s, s_t, s_s = (
        counts[:, rows].sum(axis=1).tolist()
        for rows in (fast, ~fast)
        for counts in (transferred, satisfied)
    )
    return [
        DiscriminationScore(
            rule=rule,
            n_fast_transferred=ft,
            n_fast_satisfied=fs,
            n_slow_transferred=st,
            n_slow_satisfied=ss,
            n_total=spans.n_schedules,
        )
        for rule, ft, fs, st, ss in zip(rules, f_t, f_s, s_t, s_s)
    ]


def discrimination_summary(
    scores: Sequence[DiscriminationScore],
) -> Tuple[int, int, float, float]:
    """Aggregate ``(n_rules, n_transferable, mean_discrimination,
    mean_coverage)``.

    A rule is *transferable* when it was evaluable on both classes; the
    means average over transferable rules only (0.0 when there are none,
    never a division by zero).
    """
    transferable = [s for s in scores if s.transfers]
    if not transferable:
        return (len(scores), 0, 0.0, 0.0)
    mean_disc = sum(s.discrimination for s in transferable) / len(transferable)
    mean_cov = sum(s.coverage for s in transferable) / len(transferable)
    return (len(scores), len(transferable), mean_disc, mean_cov)
