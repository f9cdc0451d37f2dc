"""Recommendation for unseen programs: quality, determinism, refusals."""

import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.advisor import (
    STATUS_EMPTY_STORE,
    STATUS_NO_MATCH,
    STATUS_OK,
    STATUS_VACUOUS,
    ArtifactStore,
    ScoredRule,
    WorkloadArtifact,
    recommend,
)
from repro.advisor.recommend import (
    BLOCK,
    DRAWS_PER_CANDIDATE,
    MAX_CANDIDATES,
    _candidates,
    _DrawSource,
)
from repro.ml.features import OrderFeature
from repro.rules.ruleset import Rule
from repro.schedule.space import DesignSpace
from repro.sim.executor import ScheduleExecutor
from repro.sim.measure import Benchmarker, MeasurementConfig
from repro.transfer.signature import OpSignature, program_signatures
from repro.workloads import WorkloadSpec, build_workload
from repro.workloads.spec import list_families
from tests.schedule.test_decision_state import SMALL

#: The sampler module; the package attribute ``repro.advisor.recommend``
#: is the function.
recommend_module = importlib.import_module("repro.advisor.recommend")

MEASUREMENT = MeasurementConfig(max_samples=1)
MACHINE_NAME = "perlmutter-like"

#: Held out from training: same family as one training workload but a
#: different DAG (edge probability and generator seed differ), so the
#: concrete program was never searched.
HELD_OUT = WorkloadSpec(
    "layered_random", {"layers": 3, "width": 2, "edge_p": 0.7}, seed=5
)


@pytest.fixture(scope="module")
def held_program():
    return build_workload(HELD_OUT)


@pytest.fixture(scope="module")
def held_recommendation(held_program, trained_store):
    return recommend(held_program, trained_store, machine=MACHINE_NAME)


class TestHeldOutQuality:
    def test_recommends_with_confidence(self, held_recommendation):
        rec = held_recommendation
        assert rec.status == STATUS_OK
        assert rec.recommended
        assert rec.schedule is not None
        assert rec.confidence > 0.5
        assert rec.n_rules > 0
        assert rec.sources  # at least one artifact contributed

    def test_beats_space_median(
        self, held_recommendation, held_program, advisor_machine
    ):
        """The PR's acceptance bar: the advised schedule's simulated cost
        beats the median of the full (never-searched) design space."""
        space = DesignSpace(held_program, n_streams=2)
        machine = advisor_machine.with_ranks(held_program.n_ranks)
        bench = Benchmarker(
            ScheduleExecutor(held_program, machine), MEASUREMENT
        )
        times = np.array(
            [bench.measure(s).time for s in space.enumerate_schedules()]
        )
        advised = bench.measure(held_recommendation.schedule).time
        assert advised < float(np.median(times))

    def test_schedule_is_valid_member_of_space(
        self, held_recommendation, held_program
    ):
        space = DesignSpace(held_program, n_streams=2)
        space.validate_schedule(held_recommendation.schedule)

    def test_honors_do_not_transfer_advisories(self, held_recommendation):
        """The training matrix flags stencil_reduce/wavefront guidance as
        anti-predictive for layered_random's nearest structure; those
        sources must be excluded from the rule pool."""
        excluded = set(held_recommendation.excluded_sources)
        assert any("stencil" in label for label in excluded)
        assert all(
            label not in excluded for label in held_recommendation.sources
        )

    def test_deterministic(self, held_program, trained_store, held_recommendation):
        again = recommend(held_program, trained_store, machine=MACHINE_NAME)
        assert (
            again.schedule.fingerprint()
            == held_recommendation.schedule.fingerprint()
        )
        assert again.to_dict() == held_recommendation.to_dict()

    def test_to_dict_json_ready(self, held_recommendation):
        payload = json.dumps(held_recommendation.to_dict(), sort_keys=True)
        data = json.loads(payload)
        assert data["status"] == STATUS_OK
        assert len(data["schedule"]) == len(held_recommendation.schedule)

    def test_large_space_samples_candidates(
        self, held_program, trained_store
    ):
        rec = recommend(
            held_program,
            trained_store,
            machine=MACHINE_NAME,
            max_candidates=100,
        )
        assert rec.status == STATUS_OK
        assert rec.n_candidates == 100


def _traced_recommend(program, store, **kwargs):
    """Recommend under a trace; returns the result, the
    ``advisor.candidates`` span and the draws counter."""
    with obs.capture(trace=True) as cap:
        rec = recommend(program, store, machine=MACHINE_NAME, **kwargs)
    (root,) = cap.spans
    assert root.name == "advisor.recommend"
    (span,) = [c for c in root.children if c.name == "advisor.candidates"]
    return rec, span, cap.metrics.counter("advisor.candidate_draws")


class TestCandidateObservability:
    """Sampling is its own span under ``advisor.recommend`` (ranking is
    the rest), and every random draw is counted."""

    def test_whole_space_makes_no_draws(self, held_program, trained_store):
        rec, span, draws = _traced_recommend(held_program, trained_store)
        assert span.attrs["n_candidates"] == rec.n_candidates
        assert rec.n_candidates == DesignSpace(held_program, 2).count()
        assert span.attrs["draws"] == draws == 0
        assert span.attrs["capped"] is False

    def test_sampled_draws_counted(self, held_program, trained_store):
        rec, span, draws = _traced_recommend(
            held_program, trained_store, max_candidates=100
        )
        assert span.attrs["n_candidates"] == rec.n_candidates == 100
        assert span.attrs["draws"] == draws >= 100
        assert span.attrs["capped"] is False

    def test_attempt_cap_shows(self, held_program, trained_store, monkeypatch):
        """A sampler that only ever draws one schedule stops at the cap,
        and the span says so."""
        path = DesignSpace(held_program, 2).seek(1).path
        monkeypatch.setattr(
            DesignSpace, "random_path", lambda self, rng: path
        )
        rec, span, draws = _traced_recommend(
            held_program, trained_store, max_candidates=5
        )
        assert rec.n_candidates == 1
        assert span.attrs["draws"] == draws == DRAWS_PER_CANDIDATE * 5
        assert span.attrs["capped"] is True


def reference_candidates(space, max_candidates, seed):
    """The sampler before decision paths: every draw builds its schedule,
    and the schedules dedup."""
    if space.count() <= max_candidates:
        return list(space.enumerate_schedules()), 0
    rng = np.random.default_rng(seed)
    out, seen, draws = [], set(), 0
    while (
        len(out) < max_candidates
        and draws < DRAWS_PER_CANDIDATE * max_candidates
    ):
        draws += 1
        schedule = space.random_schedule(rng)
        if schedule in seen:
            continue
        seen.add(schedule)
        out.append(schedule)
    return out, draws


def _halo3d(axes):
    params = {"nx": 32, "ny": 32, "nz": 32, "px": 2, "py": 2, "pz": 1}
    return build_workload(WorkloadSpec("halo3d", {**params, "axes": axes}))


class TestCandidateSampler:
    """Deduplicating on decision paths, and drawing them from bulk words,
    keeps the sample, its order and its draw count: each schedule has
    exactly one path, and each draw sees the generator's stream."""

    @pytest.mark.parametrize(
        "axes, n_candidates, n_draws",
        [("x", 974, DRAWS_PER_CANDIDATE * MAX_CANDIDATES), ("xy", 1024, 1024)],
    )
    def test_halo3d_matches_reference(self, axes, n_candidates, n_draws):
        """At seeds 0-4; the size and draws are seed 0's."""
        program = _halo3d(axes)
        for seed in range(5):
            out, draws = _candidates(
                DesignSpace(program, 2), MAX_CANDIDATES, seed
            )
            ref, ref_draws = reference_candidates(
                DesignSpace(program, 2), MAX_CANDIDATES, seed
            )
            assert [s.key for s in out] == [s.key for s in ref], seed
            assert (len(out), draws) == (len(ref), ref_draws), seed
            if seed == 0:
                assert (len(out), draws) == (n_candidates, n_draws)

    def test_halo3d_reads_generator_in_blocks(self, monkeypatch):
        """Halo3d x's 20,480 draws make 204,800 decisions, each a scalar
        ``integers`` call on a generator; the draw source reads at most
        one word per decision (but for rare rejections), ``BLOCK`` words
        per call."""
        calls = []
        default_rng = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def integers(self, *args, **kwargs):
                calls.append(kwargs.get("size"))
                return self._rng.integers(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        out, draws = _candidates(DesignSpace(_halo3d("x"), 2), MAX_CANDIDATES, 0)
        assert (len(out), draws) == (974, DRAWS_PER_CANDIDATE * MAX_CANDIDATES)
        assert set(calls) == {BLOCK}
        assert len(calls) <= math.ceil(204_800 / BLOCK) + 1

    def test_held_out_matches_reference(self, held_program):
        out, draws = _candidates(DesignSpace(held_program, 2), 100, 0)
        ref, ref_draws = reference_candidates(
            DesignSpace(held_program, 2), 100, 0
        )
        assert [s.key for s in out] == [s.key for s in ref]
        assert draws == ref_draws and len(out) == 100

    @pytest.mark.parametrize("max_candidates", [0, -3])
    def test_cap_below_one_rejected(
        self, held_program, trained_store, max_candidates
    ):
        with pytest.raises(ValueError, match="max_candidates"):
            recommend(
                held_program,
                trained_store,
                machine=MACHINE_NAME,
                max_candidates=max_candidates,
            )

    @pytest.mark.parametrize("max_candidates", [MAX_CANDIDATES, 100])
    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected(
        self, held_program, trained_store, seed, max_candidates, monkeypatch
    ):
        """Whether or not the space is sampled (it is under the cap of
        100, not under the default), and before the store is read."""

        def unread(*args, **kwargs):
            raise AssertionError("the store was read")

        monkeypatch.setattr(ArtifactStore, "load_workloads", unread)
        with pytest.raises(ValueError, match="seed"):
            recommend(
                held_program,
                trained_store,
                machine=MACHINE_NAME,
                max_candidates=max_candidates,
                seed=seed,
            )

    def test_numpy_integer_seed_accepted(self, held_program, trained_store):
        recs = [
            recommend(
                held_program,
                trained_store,
                machine=MACHINE_NAME,
                max_candidates=100,
                seed=seed,
            ).to_dict()
            for seed in (3, np.int64(3), np.uint8(3))
        ]
        assert recs[0]["status"] == STATUS_OK
        assert recs[1] == recs[0] == recs[2]


#: Bounds at which numpy's bounded draw rejects about half and about a
#: quarter of the words, and the largest bound below ``2**32``.
REJECTION_HEAVY = [2**31 + 1, 3 * 2**30 + 7, 2**32 - 1]
BOUNDS = st.one_of(
    st.integers(1, 9),
    st.sampled_from(REJECTION_HEAVY),
    st.integers(1, 2**32 - 1),
)


class TestDrawSource:
    """The sampler's draw source answers ``integers(n)`` exactly as the
    generator it owns would, call for call, across block boundaries."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        block=st.integers(1, 9),
        bounds=st.lists(BOUNDS, min_size=1, max_size=60),
    )
    def test_matches_generator(self, seed, block, bounds):
        """A small block puts many boundaries in a short draw sequence,
        some inside a rejection loop; the halo3d tests above cross
        ``BLOCK``-word boundaries tens of times per seed."""
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(recommend_module, "BLOCK", block)
            source = _DrawSource(seed)
            assert [source.integers(n) for n in bounds] == [
                int(rng.integers(n)) for n in bounds
            ]

    @pytest.mark.parametrize("n", [0, -1, 2**32, 2**40])
    def test_bound_outside_range_rejected(self, n):
        with pytest.raises(ValueError, match="n must be"):
            _DrawSource(0).integers(n)

    @pytest.mark.parametrize("family", [f.name for f in list_families()])
    def test_random_path_matches_generator(self, family):
        space = DesignSpace(
            build_workload(WorkloadSpec(family, SMALL.get(family, {}))),
            n_streams=2,
        )
        rng, source = np.random.default_rng(11), _DrawSource(11)
        for _ in range(60):
            assert space.random_path(source) == space.random_path(rng)


# ----------------------------------------------------------------------
def _artifact_for(program, spec, rules, signatures=None):
    """Hand-built artifact (bypasses training) for degenerate tests."""
    from repro.exec.cache import program_fingerprint

    return WorkloadArtifact(
        label=spec.label,
        spec=spec,
        machine=MACHINE_NAME,
        n_streams=2,
        program_fingerprint=program_fingerprint(program),
        signatures=(
            signatures
            if signatures is not None
            else program_signatures(program)
        ),
        rules=rules,
        n_schedules=4,
    )


class TestDegenerateInputs:
    """Each degenerate input yields an explicit refusal with
    ``schedule=None`` and zero confidence — never a silent arbitrary
    schedule."""

    def test_empty_store(self, tmp_path, held_program):
        rec = recommend(held_program, ArtifactStore(str(tmp_path / "empty")))
        assert rec.status == STATUS_EMPTY_STORE
        assert rec.schedule is None
        assert rec.confidence == 0.0
        assert not rec.recommended

    def test_no_signature_match(self, held_program):
        """An artifact whose signatures exist nowhere in the target (and
        whose rules mention an op with no signature at all) resolves
        zero rules."""
        spec = WorkloadSpec("wavefront", {"width": 2, "height": 2})
        program = build_workload(spec)
        alien = {
            "X": OpSignature(
                device="gpu", action="kernel", topology="irregular", arity=9
            )
        }
        artifact = _artifact_for(
            program,
            spec,
            rules=[
                ScoredRule(
                    rule=Rule(OrderFeature("X", "Y"), True),
                    discrimination=1.0,
                    coverage=1.0,
                )
            ],
            signatures=alien,
        )
        rec = recommend(held_program, [artifact])
        assert rec.status == STATUS_NO_MATCH
        assert rec.schedule is None
        assert rec.confidence == 0.0

    def test_all_rules_vacuous(self, held_program):
        """Rules that structurally match but carry zero discrimination
        must be refused, not used as arbitrary tie-break noise."""
        signatures = program_signatures(held_program)
        first = sorted(signatures)[0]
        other = next(
            name
            for name in sorted(signatures)
            if signatures[name].key != signatures[first].key
        )
        artifact = _artifact_for(
            held_program,
            HELD_OUT,
            rules=[
                ScoredRule(
                    rule=Rule(OrderFeature(first, other), True),
                    discrimination=0.0,
                    coverage=1.0,
                )
            ],
        )
        rec = recommend(held_program, [artifact])
        assert rec.status == STATUS_VACUOUS
        assert rec.schedule is None
        assert rec.confidence == 0.0
        assert rec.n_rules > 0  # matched, but uninformative

    def test_machine_filter_excludes_foreign_platform(
        self, held_program, trained_store
    ):
        rec = recommend(held_program, trained_store, machine="other-machine")
        assert rec.status == STATUS_EMPTY_STORE
        assert rec.schedule is None
