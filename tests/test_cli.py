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
    assert main(["suite", "smoke", "--json", str(path)]) == 0
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


def test_suite_json_to_stdout(capsys):
    assert main(["suite", "smoke", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert '"suite": "smoke"' in out


def test_suite_unknown_name_raises(capsys):
    """An unknown suite name is a usage error, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["suite", "not-a-suite"])
    assert exc.value.code == 2
    assert "argument name: invalid choice: 'not-a-suite'" in capsys.readouterr().err


@pytest.mark.slow
def test_transfer_smoke_writes_reports(tmp_path, capsys):
    """The acceptance path: `repro transfer` over the >= 5-workload
    generalization suite with per-target zero-discrimination controls
    and union-tree held-out accuracy."""
    import json

    json_path = tmp_path / "transfer.json"
    assert main(["transfer", "--smoke", "--json", str(json_path)]) == 0
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
    # timing keeps each task's wall; per-layer time is in the trace
    assert data["timing"]["tasks"]
    for row in data["timing"]["tasks"]:
        assert set(row) == {"label", "kind", "wall_s"}


def test_transfer_unknown_suite_raises(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transfer", "--suite", "not-a-suite"])
    assert exc.value.code == 2
    assert "argument --suite: invalid choice: 'not-a-suite'" in capsys.readouterr().err


def test_advise_unknown_train_suite_raises(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["advise", "--store", str(tmp_path), "--train", "not-a-suite"])
    assert exc.value.code == 2
    assert "argument --train: invalid choice: 'not-a-suite'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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
    [("transfer", "transfer.matrix"), ("advise", "advisor.publish")],
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


_SEARCH_WAVEFRONT = [
    "search",
    "--family",
    "wavefront",
    "--param",
    "width=2",
    "--param",
    "height=2",
]


def test_search_block_size_batches_direct_sweep(tmp_path, capsys):
    """--block-size reaches the unsharded exhaustive sweep."""
    from repro.obs import read_trace

    path = str(tmp_path / "search.jsonl")
    assert main(_SEARCH_WAVEFRONT + ["--block-size", "7", "--trace", path]) == 0
    (sweep,) = [
        s for s in read_trace(path).walk() if s.name == "search.exhaustive"
    ]
    assert sweep.attrs["batch_size"] == 7


@pytest.mark.parametrize("size", ["0", "-2"])
def test_block_size_must_be_positive(size, capsys):
    """A non-positive --block-size is a usage error, not a default block
    of 64 (0) or a traceback from inside the sweep (negative)."""
    with pytest.raises(SystemExit) as exc:
        main(_SEARCH_WAVEFRONT + ["--block-size", size])
    assert exc.value.code == 2
    assert f"--block-size: must be >= 1, got {size}" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["mcts", "random"])
@pytest.mark.parametrize("n", ["0", "-5"])
def test_iterations_must_be_positive(strategy, n, capsys):
    """A budget below 1 is a usage error, not 64 iterations (0) or a
    traceback from an empty result (negative)."""
    with pytest.raises(SystemExit) as exc:
        main(_SEARCH_WAVEFRONT + ["--strategy", strategy, "--iterations", n])
    assert exc.value.code == 2
    assert f"--iterations: must be >= 1, got {n}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["search", "advise"])
def test_streams_must_be_positive(command, tmp_path, capsys):
    """A design space needs a stream: --streams 0 is a usage error, not an
    uncaught ScheduleError."""
    argv = [command, "--family", "wavefront", "--streams", "0"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--store", str(tmp_path / "store")])
    assert exc.value.code == 2
    assert "--streams: must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--range-shards", "--shard-workers"])
def test_shard_counts_must_not_be_negative(flag, capsys):
    """A negative shard count is a usage error, not one quiet serial
    sweep; 0 and 1 still mean in-process."""
    with pytest.raises(SystemExit) as exc:
        main(_SEARCH_WAVEFRONT + [flag, "-3"])
    assert exc.value.code == 2
    assert f"{flag}: must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["suite", "smoke", "--seed", "-1"], "--seed"),
        (_SEARCH_WAVEFRONT + ["--workload-seed", "-1"], "--workload-seed"),
        (_SEARCH_WAVEFRONT + ["--strategy", "random", "--seed", "-1"], "--seed"),
    ],
    ids=["suite-seed", "workload-seed", "search-seed"],
)
def test_seeds_must_not_be_negative(argv, flag, capsys):
    """A negative seed is a usage error, not numpy's ValueError from deep
    inside the run."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{flag}: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--top", "-1"), ("--top", "0"), ("--width", "-5"), ("--width", "0")],
)
def test_trace_rows_and_bar_width_must_be_positive(flag, value, tmp_path, capsys):
    """`repro trace --analyze --top -1` used to print "(top -1)" tables
    missing their last row, and `--width -5` one-column bars, both
    exiting 0."""
    path = str(tmp_path / "t.jsonl")
    assert main(_SEARCH_WAVEFRONT + ["--trace", path]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["trace", path, "--analyze", flag, value])
    assert exc.value.code == 2
    assert f"{flag}: must be >= 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("last", ["0", "-3"])
def test_history_show_last_must_be_positive(last, tmp_path, capsys):
    """`repro obs history show --last 0` (or a negative count) used to
    print one value per series and exit 0."""
    from repro.obs import HistoryStore

    store = str(tmp_path / "hist")
    history = HistoryStore(store)
    for i in range(5):
        history.ingest_analysis(
            {"paths": [{"path": "plan.execute", "total_s": float(i + 1)}]},
            ts=float(i),
            run_id=f"run-{i}",
        )
    assert main(["obs", "history", "show", store, "--last", "2"]) == 0
    assert "(5 points): 4 5\n" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["obs", "history", "show", store, "--last", last])
    assert exc.value.code == 2
    assert f"--last: must be >= 1, got {last}" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["-0.5", "inf", "nan"])
def test_noise_must_be_finite_and_non_negative(sigma, capsys):
    """A negative sigma used to end in a ValueError, and an infinite one
    in a search reporting a best time of nan."""
    with pytest.raises(SystemExit) as exc:
        main(_SEARCH_WAVEFRONT + ["--noise", sigma])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--noise: must be a finite number >= 0, got {sigma}" in err


@pytest.mark.parametrize("scale", ["-1", "0", "1.5", "inf", "nan"])
def test_scale_must_be_in_unit_interval(scale, capsys):
    """Scales at or below 0 used to run a minimum-size matrix and scales
    above 1 the full-size one, without a word.  ``platform`` runs no
    matrix, so a value the parser lets through passes quickly."""
    with pytest.raises(SystemExit) as exc:
        main(["platform", "--scale", scale])
    assert exc.value.code == 2
    assert f"--scale: must be in (0, 1], got {scale}" in capsys.readouterr().err


def test_search_iterations_not_with_range_shards():
    """A range-sharded sweep evaluates the whole space, so a budget would
    be silently ignored: the command refuses it."""
    with pytest.raises(SystemExit, match="--iterations"):
        main(_SEARCH_WAVEFRONT + ["--range-shards", "2", "--iterations", "3"])


def test_search_shard_workers_need_range_shards():
    """A direct search runs in one process, so --shard-workers alone
    would be silently serial: the command refuses it."""
    with pytest.raises(SystemExit, match="--range-shards"):
        main(_SEARCH_WAVEFRONT + ["--shard-workers", "2"])


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
