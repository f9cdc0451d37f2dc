"""Oracle test: rule scores as columns of the candidates' schedule table.

``ScheduleGuide.scores`` decides every resolved rule on every schedule of
a :class:`~repro.ml.features.KeySpans` through ``KeySpans.relations`` and
sums the rules' signed weights in rule order.  ``score_detail`` below is
the per-schedule loop it replaced: it groups one schedule's ops by key
and asks ``ScheduleGuide._violated`` for each rule's verdict.

Scores must equal the loop's bit for bit on Hypothesis rule lists over
random schedules of small programs, and on every candidate ``recommend``
ranks for the five held-out advise targets at seeds 0-2 against the
session's trained store.  ``reference_recommend`` ranks those targets as
``recommend`` did before the table (``score_detail`` per candidate, the
union tree's features from their own scan), and must give the same
recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.advisor import STATUS_OK, Recommendation, ScheduleGuide, recommend
from repro.advisor.guided import ORDER, STREAM, ResolvedRule
from repro.advisor.recommend import (
    MAX_CANDIDATES,
    _advisory_exclusions,
    _candidates,
    _p_fast,
)
from repro.advisor.store import union_is_applicable
from repro.ml.features import ScheduleTable
from repro.schedule.space import DesignSpace
from repro.transfer.signature import program_signatures
from repro.workloads import WorkloadSpec, build_workload
from tests.schedule.test_decision_state import programs

MACHINE_NAME = "perlmutter-like"

#: The held-out targets of perfbench's ``advise`` workload: two
#: whole-space programs, a third, and halo3d along x and y (sampled).
ADVISE_TARGETS = (
    WorkloadSpec("layered_random", {"layers": 3, "width": 2, "edge_p": 0.7}, seed=5),
    WorkloadSpec("spmv", {"scale": 0.05}),
    WorkloadSpec("wavefront", {"width": 3, "height": 2}),
    WorkloadSpec(
        "halo3d", {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "xy"}
    ),
    WorkloadSpec(
        "halo3d", {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1, "axes": "x"}
    ),
)
SEEDS = (0, 1, 2)


# -- reference: one schedule at a time ----------------------------------------
@dataclass
class GuideScore:
    """Weighted rule satisfaction of one schedule."""

    #: Normalized signed satisfaction in [-1, 1] (0 when nothing applies).
    score: float
    #: Sum of |weight| over rules evaluable on the schedule / over all.
    weight_evaluated: float
    weight_total: float


def score_detail(guide: ScheduleGuide, schedule) -> GuideScore:
    """Weighted satisfaction: each evaluable rule contributes ``+weight``
    when followed, ``-weight`` when violated (negative weights invert
    naturally: violating an anti-rule helps)."""
    order, streams = guide._groups(schedule.ops)
    signed = 0.0
    evaluated = 0.0
    total = 0.0
    for rule in guide.rules:
        total += abs(rule.weight)
        verdict = guide._violated(rule, order, streams)
        if verdict is None:
            continue
        evaluated += abs(rule.weight)
        signed += -rule.weight if verdict else rule.weight
    score = signed / evaluated if evaluated > 0.0 else 0.0
    return GuideScore(score=score, weight_evaluated=evaluated, weight_total=total)


def assert_scores_match(guide: ScheduleGuide, schedules) -> None:
    got = guide.scores(ScheduleTable(schedules).keyed(guide.op_keys.get))
    want = np.array([score_detail(guide, s).score for s in schedules])
    assert got.tolist() == want.tolist()
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def reference_recommend(program, store, *, machine, seed) -> Recommendation:
    """``recommend`` before the candidate table, on its ranking path: a
    rule score per candidate from :func:`score_detail` and the union
    tree's features from ``transform``'s own scan of the candidates."""
    artifacts = store.load_workloads(machine=machine)
    union = store.load_union(machine=machine)
    signatures = program_signatures(program)
    target_keys = {sig.key for sig in signatures.values()}
    excluded = _advisory_exclusions(union, artifacts, target_keys)
    guide = ScheduleGuide.from_artifacts(
        artifacts, signatures, min_source_weight=0.0, exclude_sources=excluded
    )
    union_usable = union_is_applicable(union, tuple(target_keys))
    assert guide.weight_total > 0.0 or union_usable
    candidates, _ = _candidates(
        DesignSpace(program, n_streams=2), MAX_CANDIDATES, seed
    )
    details = [score_detail(guide, s) for s in candidates]
    rule_scores = np.array([d.score for d in details])
    if union_usable:
        mapping = {name: sig.key for name, sig in signatures.items()}
        x = union.extractor().transform(candidates, mapping).matrix
        p_fast = _p_fast(union, x)
    else:
        p_fast = np.zeros(len(candidates))
    fingerprints = [s.fingerprint() for s in candidates]
    best = min(
        range(len(candidates)),
        key=lambda i: (-p_fast[i], -rule_scores[i], fingerprints[i]),
    )
    pick = details[best]
    rs_norm = (1.0 + pick.score) / 2.0
    if union_usable and guide.weight_total > 0.0:
        confidence = 0.5 * float(p_fast[best]) + 0.5 * rs_norm
    elif union_usable:
        confidence = float(p_fast[best])
    else:
        confidence = rs_norm
    return Recommendation(
        status=STATUS_OK,
        schedule=candidates[best],
        confidence=max(0.0, min(1.0, confidence)),
        rule_score=float(pick.score),
        p_fast=float(p_fast[best]),
        n_rules=guide.n_rules,
        n_candidates=len(candidates),
        sources=sorted({s for r in guide.rules for s in r.sources}),
        excluded_sources=excluded,
        note=(
            "ranked by union-tree P(fast), then weighted rule satisfaction"
            if union_usable
            else "ranked by weighted rule satisfaction (no union tree)"
        ),
    )


# -- Hypothesis rule lists -------------------------------------------------------
#: Keys no program has: rules naming them are never decided.
ABSENT_KEYS = ("absent:a", "absent:b")

WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -0.25]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


@st.composite
def rule_lists(draw, keys):
    rule = st.builds(
        ResolvedRule,
        kind=st.sampled_from([ORDER, STREAM]),
        u=st.sampled_from(keys),
        v=st.sampled_from(keys),
        value=st.booleans(),
        weight=WEIGHTS,
    )
    return draw(st.lists(rule, max_size=12))


@given(
    program=programs(),
    n_streams=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_scores_match_reference_on_hypothesis_rules(program, n_streams, seed, data):
    # The program's own op keys and mandatory counts, as resolution
    # builds them; the rules are drawn over its keys and absent ones.
    base = ScheduleGuide.from_artifacts([], program)
    keys = sorted(set(base.op_keys.values())) + list(ABSENT_KEYS)
    rules = data.draw(rule_lists(keys))
    guide = ScheduleGuide(
        rules, base.op_keys, mandatory_counts=base.mandatory_counts
    )
    space = DesignSpace(program, n_streams=n_streams)
    rng = np.random.default_rng(seed)
    n_schedules = data.draw(st.integers(min_value=1, max_value=12))
    schedules = [space.random_schedule(rng) for _ in range(n_schedules)]
    assert_scores_match(guide, schedules)


def test_empty_rule_list_scores_zero():
    program = build_workload(ADVISE_TARGETS[2])
    schedules = list(DesignSpace(program, n_streams=2).enumerate_schedules())
    guide = ScheduleGuide.from_artifacts([], program)
    assert guide.n_rules == 0
    assert_scores_match(guide, schedules)
    assert not guide.scores(ScheduleTable(schedules).keyed(guide.op_keys.get)).any()


# -- the advise targets ----------------------------------------------------------
@pytest.fixture(scope="module")
def targets():
    return [(spec, build_workload(spec)) for spec in ADVISE_TARGETS]


@pytest.mark.parametrize("seed", SEEDS)
def test_scores_match_reference_on_advise_candidates(trained_store, targets, seed):
    artifacts = trained_store.load_workloads(machine=MACHINE_NAME)
    union = trained_store.load_union(machine=MACHINE_NAME)
    n_candidates = 0
    for _, program in targets:
        signatures = program_signatures(program)
        target_keys = {sig.key for sig in signatures.values()}
        guide = ScheduleGuide.from_artifacts(
            artifacts,
            signatures,
            min_source_weight=0.0,
            exclude_sources=_advisory_exclusions(union, artifacts, target_keys),
        )
        assert guide.n_rules > 0
        candidates, _ = _candidates(
            DesignSpace(program, n_streams=2), MAX_CANDIDATES, seed
        )
        assert_scores_match(guide, candidates)
        n_candidates += len(candidates)
    assert n_candidates > 3000


@pytest.mark.parametrize("seed", SEEDS)
def test_recommend_matches_reference_ranking(trained_store, targets, seed):
    for _, program in targets:
        got = recommend(program, trained_store, machine=MACHINE_NAME, seed=seed)
        want = reference_recommend(
            program, trained_store, machine=MACHINE_NAME, seed=seed
        )
        assert got.status == STATUS_OK
        assert got.to_dict() == want.to_dict()
