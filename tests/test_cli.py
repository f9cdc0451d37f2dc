"""CLI smoke tests (small scale to stay fast)."""

import pytest

from repro.cli import main


def test_platform_command(capsys):
    assert main(["platform"]) == 0
    out = capsys.readouterr().out
    assert "Ranks" in out


def test_fig1_small_scale(capsys):
    assert main(["fig1", "--scale", "0.025"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "sorted fastest to slowest" in out


def test_fig4_small_scale(capsys):
    assert main(["fig4", "--scale", "0.025"]) == 0
    assert "classes" in capsys.readouterr().out


def test_fig5_small_scale(capsys):
    assert main(["fig5", "--scale", "0.025"]) == 0
    assert "Algorithm 1" in capsys.readouterr().out


def test_fig6_small_scale(capsys):
    assert main(["fig6", "--scale", "0.025"]) == 0
    assert "6-leaf tree" in capsys.readouterr().out


def test_table5_small_scale(capsys):
    assert main(["table5", "--scale", "0.025"]) == 0
    out = capsys.readouterr().out
    assert "accuracy=1.000" in out  # full budget classifies perfectly


def test_multi_input_small_scale(capsys):
    assert main(["multi-input", "--scale", "0.0125"]) == 0
    out = capsys.readouterr().out
    assert "Cross-input design rules" in out
    assert "bw=n/4" in out and "bw=n/8" in out


def test_fig4_with_workers_matches_serial(capsys):
    """--workers shards evaluation but must not change any output."""
    assert main(["fig4", "--scale", "0.025"]) == 0
    serial_out = capsys.readouterr().out
    assert main(["fig4", "--scale", "0.025", "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial_out


def test_fig4_with_cache(tmp_path, capsys):
    from repro.experiments import default_workbench

    cache = str(tmp_path / "measurements.sqlite")
    assert main(["fig4", "--scale", "0.025", "--cache", cache]) == 0
    first = capsys.readouterr().out
    # Drop the memoized workbench so the second run must read the
    # measurements back from the SQLite cache (cold in-process state).
    default_workbench.cache_clear()
    assert main(["fig4", "--scale", "0.025", "--cache", cache]) == 0
    assert capsys.readouterr().out == first


def test_bad_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["not-an-experiment"])


def test_list_enumerates_experiments_workloads_suites(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for experiment in ("fig1", "table5", "multi-input", "all"):
        assert experiment in out
    for family in (
        "spmv",
        "halo3d",
        "layered_random",
        "fork_join",
        "tree_allreduce",
        "wavefront",
        "stencil_reduce",
    ):
        assert family in out
    for suite in ("smoke", "paper", "generalization"):
        assert suite in out


def test_suite_smoke_writes_json_report(tmp_path, capsys):
    import json

    path = tmp_path / "smoke.json"
    md_path = tmp_path / "smoke.md"
    assert (
        main(
            ["suite", "smoke", "--json", str(path), "--report", str(md_path)]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Suite 'smoke'" in out
    assert str(path) in out
    data = json.loads(path.read_text())
    workloads = {c["workload"] for c in data["cells"]}
    strategies = {c["strategy"] for c in data["cells"]}
    # >= 6 workloads (2 adapted apps + 4 synthetic families), one JSON
    # row per (workload, strategy) cell
    assert len(workloads) >= 6
    assert len(data["cells"]) == len(workloads) * len(strategies)
    # markdown report surfaces the per-stage wall times the JSON always
    # carried (previously dropped by rendering)
    md = md_path.read_text()
    assert "# Suite report" in md
    assert "## Timing" in md
    assert "search:random" in md


def test_suite_json_to_stdout(capsys):
    assert main(["suite", "smoke", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert '"suite": "smoke"' in out


def test_suite_unknown_name_raises():
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError, match="unknown suite"):
        main(["suite", "not-a-suite"])


@pytest.mark.slow
def test_transfer_smoke_writes_reports(tmp_path, capsys):
    """The acceptance path: `repro transfer` over the >= 5-workload
    generalization suite with per-target zero-discrimination controls
    and union-tree held-out accuracy."""
    import json

    json_path = tmp_path / "transfer.json"
    md_path = tmp_path / "transfer.md"
    assert (
        main(
            [
                "transfer",
                "--smoke",
                "--json",
                str(json_path),
                "--report",
                str(md_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "transfer matrix" in out
    assert "Injected always-true controls" in out

    data = json.loads(json_path.read_text())
    assert len(data["workloads"]) >= 5
    assert len(data["matrix"]) == len(data["workloads"]) * (
        len(data["workloads"]) - 1
    )
    # every target's injected always-true rule scores 0 discrimination
    assert {c["target"] for c in data["controls"]} == set(data["workloads"])
    for control in data["controls"]:
        assert control["discrimination"] == 0.0
    # union tree reports held-out-workload accuracy per target
    assert {u["target"] for u in data["union"]} == set(data["workloads"])
    for row in data["union"]:
        assert 0.0 <= row["holdout_accuracy"] <= 1.0

    md = md_path.read_text()
    assert "# Cross-program transfer report" in md
    assert "Union-trained tree" in md
    # per-stage wall times surface in the rendered report too
    assert "## Timing" in md
    assert "label+train" in md


def test_transfer_unknown_suite_raises():
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError, match="unknown suite"):
        main(["transfer", "--suite", "not-a-suite"])


def test_public_api_importable():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    """A small trained artifact store for advise/search CLI tests."""
    from repro.advisor import ArtifactStore, publish_artifacts
    from repro.sim.measure import MeasurementConfig
    from repro.workloads import WorkloadSpec, rules_for_specs

    specs = [
        WorkloadSpec("wavefront", {"width": 2, "height": 2}),
        WorkloadSpec("fork_join", {"stages": 1, "branches": 2, "depth": 1}),
        WorkloadSpec("tree_allreduce", {"rounds": 1, "elems": 16384}),
    ]
    per = rules_for_specs(
        specs, measurement=MeasurementConfig(max_samples=1)
    )
    root = tmp_path_factory.mktemp("cli-store")
    store = ArtifactStore(str(root))
    publish_artifacts(store, per, machine="perlmutter-like")
    return str(root)


def test_advise_empty_store_refuses(tmp_path, capsys):
    assert (
        main(
            [
                "advise",
                "--family",
                "wavefront",
                "--param",
                "width=3",
                "--param",
                "height=2",
                "--store",
                str(tmp_path / "nothing"),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "status:     empty-store" in out
    assert "confidence: 0.000" in out


def test_advise_from_store_writes_json(tiny_store, tmp_path, capsys):
    import json

    json_path = tmp_path / "advise.json"
    assert (
        main(
            [
                "advise",
                "--family",
                "wavefront",
                "--param",
                "width=3",
                "--param",
                "height=2",
                "--store",
                tiny_store,
                "--json",
                str(json_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "advise wavefront[height=2,width=3,seed=0]" in out
    data = json.loads(json_path.read_text())
    assert data["status"] in ("ok", "no-signature-match", "vacuous-rules")
    if data["status"] == "ok":
        assert data["schedule"]
        assert data["confidence"] > 0


@pytest.mark.slow
@pytest.mark.parametrize(
    "command,reduce_span",
    [("transfer", "stage:transfer-matrix"), ("advise", "stage:publish")],
)
def test_smoke_reduce_step_traced_as_root_span(
    command, reduce_span, tmp_path, capsys
):
    """`--smoke --trace` spans the reduce step after the plan as a root
    span, and tracing leaves the JSON output (bar wall-clock timing)
    unchanged."""
    import json

    from repro import obs

    def run(name, *extra):
        argv = [command, "--smoke", "--json", str(tmp_path / f"{name}.json")]
        if command == "advise":
            argv += ["--store", str(tmp_path / f"{name}-store")]
        assert main(argv + list(extra)) == 0
        data = json.loads((tmp_path / f"{name}.json").read_text())
        data.pop("timing", None)
        return data

    plain = run("plain")
    trace_path = tmp_path / "run.jsonl"
    traced = run("traced", "--trace", str(trace_path))
    capsys.readouterr()
    roots = [s.name for s in obs.read_trace(str(trace_path)).spans]
    assert roots[:2] == ["plan.execute", reduce_span]
    assert traced == plain


def test_advise_requires_family_without_smoke():
    with pytest.raises(SystemExit, match="--family"):
        main(["advise", "--store", "unused"])


def test_search_guided_exhaustive(tiny_store, capsys):
    assert (
        main(
            [
                "search",
                "--family",
                "wavefront",
                "--param",
                "width=2",
                "--param",
                "height=2",
                "--guided",
                "--store",
                tiny_store,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "resolved rules" in out
    assert "exhaustive (guided)" in out
    assert "best time" in out


def test_search_unguided_sampling(capsys):
    assert (
        main(
            [
                "search",
                "--family",
                "wavefront",
                "--param",
                "width=2",
                "--param",
                "height=2",
                "--strategy",
                "random",
                "--iterations",
                "8",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "random on wavefront" in out
    assert "evaluated 8 schedules" in out


def test_search_requires_family():
    with pytest.raises(SystemExit, match="--family"):
        main(["search"])


def test_bad_param_rejected():
    with pytest.raises(SystemExit, match="k=v"):
        main(
            [
                "search",
                "--family",
                "wavefront",
                "--param",
                "width",
            ]
        )
