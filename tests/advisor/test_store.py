"""Artifact store round-trips, validation, and version error paths."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.advisor import (
    ARTIFACT_VERSION,
    ArtifactStore,
    ScheduleGuide,
    ScoredRule,
    artifact_from_dict,
    publish,
    publish_artifacts,
    recommend,
)
from repro.advisor import store as store_module
from repro.errors import ArtifactError
from repro.ml.features import OrderFeature
from repro.rules.ruleset import Rule
from repro.sim.measure import MeasurementConfig
from repro.transfer import matrix, union
from repro.workloads import Suite, SuiteRunner, WorkloadSpec, build_workload

MACHINE_NAME = "perlmutter-like"
MEASUREMENT = MeasurementConfig(max_samples=1)


@pytest.fixture(scope="module")
def store(trained_store):
    return trained_store


def _workload_keys(store):
    return [k for k in store.keys() if k.startswith("workload-")]


def _labels_on_disk(store):
    """Sorted workload artifact labels, read from the files without
    validating them."""
    labels = []
    for key in _workload_keys(store):
        with open(store.path_of(key), encoding="utf-8") as fh:
            labels.append(json.load(fh)["label"])
    return sorted(labels)


def _union_keys(store):
    return [k for k in store.keys() if k.startswith("union-")]


class TestRoundTrip:
    def test_store_holds_every_artifact(self, store, trained_workloads):
        assert len(_workload_keys(store)) == len(trained_workloads)
        assert len(_union_keys(store)) == 1

    def test_workload_round_trip_is_exact(self, store):
        for key in _workload_keys(store):
            artifact = store.load(key)
            again = artifact_from_dict(
                json.loads(
                    json.dumps(artifact.to_dict(), sort_keys=True)
                )
            )
            assert again.to_dict() == artifact.to_dict()
            assert again.signatures == artifact.signatures
            assert again.rules == artifact.rules
            assert again.spec == artifact.spec

    def test_union_round_trip_preserves_predictions(self, store):
        union = store.load_union()
        assert union is not None
        again = artifact_from_dict(union.to_dict())
        assert again.features == union.features
        assert again.workloads == union.workloads
        assert again.advisories == union.advisories
        # The rebuilt tree classifies identically on every binary input
        # pattern of a few probe rows.
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=(64, len(union.features)))
        assert (again.tree.predict(x) == union.tree.predict(x)).all()

    def test_republish_overwrites_in_place(self, store, trained_workloads):
        from repro.advisor import workload_artifact

        n = len(store)
        artifact = workload_artifact(
            trained_workloads[0], machine=MACHINE_NAME
        )
        store.publish(artifact)
        assert len(store) == n

    def test_file_is_key_sorted_json(self, store):
        key = _workload_keys(store)[0]
        with open(store.path_of(key), "r", encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text)
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"

    def test_load_round_trip_bit_stable_across_processes(self, store):
        """A fresh process loads an artifact and re-serializes it to the
        exact bytes on disk — nothing drifts through the round trip."""
        key = _workload_keys(store)[0]
        path = store.path_of(key)
        script = (
            "import json, sys\n"
            "from repro.advisor import artifact_from_dict\n"
            "data = json.load(open(sys.argv[1]))\n"
            "artifact = artifact_from_dict(data)\n"
            "sys.stdout.write(json.dumps(artifact.to_dict(), indent=2, "
            "sort_keys=True) + '\\n')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, path],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        with open(path, "r", encoding="utf-8") as fh:
            assert out == fh.read()


class TestValidation:
    def _tampered(self, store, key, mutate, tmp_path, name):
        with open(store.path_of(key), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        mutate(data)
        bad = ArtifactStore(str(tmp_path / name))
        bad_key = "workload-tampered"
        import os

        os.makedirs(bad.root, exist_ok=True)
        with open(bad.path_of(bad_key), "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return bad, bad_key

    def test_stale_fingerprint_rejected(self, store, tmp_path):
        key = _workload_keys(store)[0]
        bad, bad_key = self._tampered(
            store,
            key,
            lambda d: d.update(program_fingerprint="0" * 64),
            tmp_path,
            "stale",
        )
        with pytest.raises(ArtifactError, match="stale artifact"):
            bad.load(bad_key)

    def test_changed_spec_rejected_as_stale(self, store, tmp_path):
        """The generator moved on (different params): the rebuilt program
        no longer matches the stored fingerprint."""
        key = next(
            k for k in _workload_keys(store) if "wavefront" in store.load(k).label
        )
        bad, bad_key = self._tampered(
            store,
            key,
            lambda d: d["spec"]["params"].update(width=3),
            tmp_path,
            "spec",
        )
        with pytest.raises(ArtifactError, match="stale"):
            bad.load(bad_key)

    def test_tampered_signature_table_rejected(self, store, tmp_path):
        key = _workload_keys(store)[0]

        def corrupt(d):
            name = sorted(d["signatures"])[0]
            d["signatures"][name]["device"] = "tpu"

        bad, bad_key = self._tampered(store, key, corrupt, tmp_path, "sig")
        with pytest.raises(ArtifactError, match="signature"):
            bad.load(bad_key)

    def test_version_mismatch_rejected(self, store, tmp_path):
        key = _workload_keys(store)[0]
        bad, bad_key = self._tampered(
            store,
            key,
            lambda d: d.update(version=ARTIFACT_VERSION + 1),
            tmp_path,
            "version",
        )
        with pytest.raises(ArtifactError, match="version"):
            bad.load(bad_key)

    def test_missing_artifact_rejected(self, store):
        with pytest.raises(ArtifactError, match="no artifact"):
            store.load("workload-doesnotexist")

    def test_malformed_json_rejected(self, tmp_path):
        import os

        root = tmp_path / "broken"
        os.makedirs(root)
        (root / "workload-x.json").write_text("{not json")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            ArtifactStore(str(root)).load("workload-x")

    def test_non_utf8_rejected(self, tmp_path):
        root = tmp_path / "binary"
        os.makedirs(root)
        (root / "workload-x.json").write_bytes(b"\xff{}")
        broken = ArtifactStore(str(root))
        with pytest.raises(ArtifactError, match="not valid JSON"):
            broken.load("workload-x")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            broken.load_workloads()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ArtifactError, match="unknown artifact kind"):
            artifact_from_dict({"version": ARTIFACT_VERSION, "kind": "blob"})


class TestValidationOncePerStore:
    """A store object validates an artifact's bytes once: the six reads
    of an ``advise`` pass rebuild each program once, and changed bytes
    are validated again."""

    @pytest.fixture()
    def validations(self, monkeypatch):
        """Labels of the artifacts validated, one entry per rebuild."""
        calls = []
        real = store_module.validate_workload_artifact

        def counting(artifact):
            calls.append(artifact.label)
            real(artifact)

        monkeypatch.setattr(store_module, "validate_workload_artifact", counting)
        return calls

    def test_six_reads_validate_each_artifact_once(self, store, validations):
        program = build_workload(
            WorkloadSpec(
                "layered_random", {"layers": 3, "width": 2, "edge_p": 0.7}, seed=5
            )
        )
        labels = _labels_on_disk(store)
        assert len(labels) == len(_workload_keys(store)) == 7
        first = ArtifactStore(store.root)
        for seed in range(5):
            assert recommend(
                program, first, machine=MACHINE_NAME, seed=seed
            ).recommended
        ScheduleGuide.from_store(first, program, machine=MACHINE_NAME)
        assert sorted(validations) == labels
        for key in _workload_keys(store):
            first.load(key)
        assert sorted(validations) == labels
        # A second store object keeps its own record.
        second = ArtifactStore(store.root)
        second.load_workloads(machine=MACHINE_NAME)
        second.load_workloads()
        assert sorted(validations) == sorted(labels * 2)

    def test_rewritten_file_is_validated_again(self, store, tmp_path, validations):
        root = tmp_path / "copy"
        shutil.copytree(store.root, root)
        copy = ArtifactStore(str(root))
        key = _workload_keys(copy)[0]
        label = copy.load(key).label
        copy.load(key)
        assert validations.count(label) == 1
        with open(copy.path_of(key), "r", encoding="utf-8") as fh:
            data = json.load(fh)

        # Other valid bytes (the same artifact, indented differently) are
        # validated once more, then trusted again.
        with open(copy.path_of(key), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
        assert copy.load(key).to_dict() == data
        copy.load_workloads()
        assert validations.count(label) == 2

        # A tampered fingerprint is rejected by the next read.
        data["program_fingerprint"] = "0" * 64
        with open(copy.path_of(key), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        with pytest.raises(ArtifactError, match="stale artifact"):
            copy.load(key)
        with pytest.raises(ArtifactError, match="stale artifact"):
            copy.load_workloads()
        assert validations.count(label) == 4


class TestAtomicPublish:
    """``publish`` replaces ``<key>.json`` in one rename: a reader never
    sees a truncated or part-written artifact, and no temporary file is
    left in the store."""

    def _copy(self, store, tmp_path):
        root = tmp_path / "copy"
        shutil.copytree(store.root, root)
        copy = ArtifactStore(str(root))
        return copy, _workload_keys(copy)[0]

    def _on_write(self, monkeypatch, hook):
        """Call ``hook()`` before each write to a file the store opens
        for writing."""
        real_open = open

        class Writer:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._fh.__exit__(*exc)

            def write(self, text):
                hook()
                return self._fh.write(text)

        def spy_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return Writer(fh) if "w" in mode else fh

        monkeypatch.setattr(store_module, "open", spy_open, raising=False)

    def _read(self, path):
        with open(path, "rb") as fh:
            return fh.read()

    def test_reader_during_publish_sees_previous_bytes(
        self, store, tmp_path, monkeypatch
    ):
        copy, key = self._copy(store, tmp_path)
        path = copy.path_of(key)
        before = self._read(path)
        artifact = copy.load(key)
        seen = []
        self._on_write(monkeypatch, lambda: seen.append(self._read(path)))
        changed = dataclasses.replace(
            artifact, n_schedules=artifact.n_schedules + 1
        )
        assert copy.publish(changed) == path
        assert seen == [before]
        assert copy.load(key).n_schedules == artifact.n_schedules + 1
        assert sorted(os.listdir(copy.root)) == [f"{k}.json" for k in copy.keys()]

    def test_failed_write_keeps_previous_file(self, store, tmp_path, monkeypatch):
        copy, key = self._copy(store, tmp_path)
        path = copy.path_of(key)
        before = self._read(path)
        listing = sorted(os.listdir(copy.root))
        artifact = copy.load(key)

        def fail():
            raise OSError("disk full")

        self._on_write(monkeypatch, fail)
        with pytest.raises(OSError, match="disk full"):
            copy.publish(artifact)
        assert self._read(path) == before
        assert sorted(os.listdir(copy.root)) == listing
        assert copy.load(key).to_dict() == artifact.to_dict()


class TestRetrainReplacesSuperseded:
    """Retraining replaces an artifact published before its generator
    changed, whose key (from the old fingerprint) differs from the new
    artifact's."""

    def _copy_of(self, store, key, **changes):
        with open(store.path_of(key), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data.update(changes)
        return store.publish(artifact_from_dict(data))

    def test_retraining_replaces_stale_artifacts(
        self, tmp_path, trained_workloads
    ):
        per = [
            wl
            for wl in trained_workloads
            if wl.spec.family in ("wavefront", "stencil_reduce")
        ]
        store = ArtifactStore(str(tmp_path / "store"))
        publish_artifacts(store, per, machine=MACHINE_NAME)
        (stencil,) = [
            k
            for k in _workload_keys(store)
            if store.load(k).label.startswith("stencil_reduce")
        ]
        (union_key,) = _union_keys(store)
        stale = [
            self._copy_of(store, stencil, program_fingerprint="0" * 64),
            self._copy_of(store, union_key, fingerprints=["0" * 64] * 2),
        ]
        foreign = self._copy_of(store, stencil, machine="other-machine")
        with pytest.raises(ArtifactError, match="stale artifact"):
            store.load_workloads(machine=MACHINE_NAME)

        paths = publish_artifacts(store, per, machine=MACHINE_NAME)
        assert not any(os.path.exists(p) for p in stale)
        assert os.path.exists(foreign)  # another machine's training stays
        assert sorted(store.keys()) == sorted(
            os.path.basename(p)[: -len(".json")] for p in paths + [foreign]
        )
        labels = [a.label for a in store.load_workloads(machine=MACHINE_NAME)]
        assert sorted(labels) == sorted(wl.spec.label for wl in per)
        assert store.load_union(machine=MACHINE_NAME).key == union_key


class TestScoredRule:
    def test_weight_is_discrimination_times_coverage(self):
        rule = Rule(OrderFeature("a", "b"), True)
        scored = ScoredRule(rule=rule, discrimination=0.5, coverage=0.4)
        assert scored.weight == pytest.approx(0.2)
        assert ScoredRule.from_dict(scored.to_dict()) == scored


class TestSuiteAutoPublish:
    SPECS = (
        WorkloadSpec("wavefront", {"width": 2, "height": 2}),
        WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
    )

    def test_cross_workload_suite_publishes(self, tmp_path):
        suite = Suite(
            name="tiny-rules",
            description="",
            specs=self.SPECS,
            strategies=("random",),
            n_iterations=4,
            measurement=MEASUREMENT,
            cross_workload_rules=True,
        )
        store_dir = tmp_path / "suite-store"
        report = SuiteRunner(suite, store_path=str(store_dir)).run()
        assert len(report.published) >= len(self.SPECS)
        store = ArtifactStore(str(store_dir))
        loaded = store.load_workloads()
        assert {a.label for a in loaded} == {s.label for s in self.SPECS}
        assert "published" in report.to_json().lower() or report.published
        assert "advisor artifacts" in report.ascii_table()

    def test_sampling_suite_notes_skip(self, tmp_path):
        suite = Suite(
            name="tiny",
            description="",
            specs=self.SPECS,
            strategies=("random",),
            n_iterations=4,
            measurement=MEASUREMENT,
        )
        report = SuiteRunner(
            suite, store_path=str(tmp_path / "nope")
        ).run()
        assert report.published == []
        assert "not updated" in report.store_note
        assert report.store_note in report.ascii_table()


class TestUnionArtifactShape:
    def test_extractor_rebuild_matches_features(self, store):
        union = store.load_union()
        ex = union.extractor()
        assert list(ex.features) == list(union.features)
        assert ex.keys == tuple(union.keys)

    def test_advisories_present_for_training_set(self, store):
        """The training set contains the known stencil→wavefront
        negative-transfer edge; it must survive the store round trip."""
        union = store.load_union()
        pairs = {(src, dst) for src, dst, _ in union.advisories}
        assert any(
            "stencil" in src and dst.startswith("wavefront")
            for src, dst in pairs
        )


class TestPublishAdvisories:
    def test_derived_advisories_train_only_the_published_tree(
        self, tmp_path, trained_workloads, monkeypatch
    ):
        """Without ``advisories``, publishing derives them from the
        discrimination grid: the all-workload tree is the only union tree
        it trains, and every file equals publishing the full matrix's
        advisories."""
        calls = []

        def counting(workloads, **kwargs):
            calls.append(kwargs.get("holdout"))
            return union.train_union(workloads, **kwargs)

        monkeypatch.setattr(publish, "train_union", counting)
        monkeypatch.setattr(matrix, "train_union", counting)
        derived = publish_artifacts(
            ArtifactStore(str(tmp_path / "derived")),
            trained_workloads,
            machine=MACHINE_NAME,
        )
        assert calls == [None]
        monkeypatch.undo()

        full = matrix.transfer_matrix_from(trained_workloads)
        assert full.advisories()
        given = publish_artifacts(
            ArtifactStore(str(tmp_path / "given")),
            trained_workloads,
            machine=MACHINE_NAME,
            advisories=[
                (c.source, c.target, c.mean_discrimination)
                for c in full.advisories()
            ],
        )
        assert [os.path.basename(p) for p in derived] == [
            os.path.basename(p) for p in given
        ]
        for a, b in zip(derived, given):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read()
