"""Command-line interface: paper experiments, workload suites, listings.

Run ``repro list`` for the authoritative command / workload / suite
inventory (this docstring deliberately stops naming every command — the
registry is the single source of truth).

Examples::

    repro list                      # what can I run?
    repro fig1 --scale 0.025        # sorted implementation sweep
    repro rules                     # Tables VI-VIII
    repro all                       # every paper experiment
    repro suite smoke               # every workload family at tiny sizes
    repro suite paper --shard-workers 4   # whole workloads in parallel
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.platform.presets import describe


def _execution(args):
    """The run's :class:`~repro.exec.ExecConfig`, from ``--cache`` plus,
    on commands that have them, ``--shard-workers`` and ``--block-size``."""
    from repro.exec import ExecConfig

    return ExecConfig(
        cache_path=args.cache,
        shard_workers=getattr(args, "shard_workers", 0),
        block_size=getattr(args, "block_size", None),
    )


def _wb(args):
    from repro.experiments import default_workbench

    return default_workbench(
        scale=args.scale, noise_sigma=args.noise, execution=_execution(args)
    )


def _cmd_fig1(args) -> str:
    from repro.experiments import run_fig1

    r = run_fig1(_wb(args))
    return r.report() + "\n" + r.ascii_plot()


def _cmd_fig4(args) -> str:
    from repro.experiments import run_fig4

    return run_fig4(_wb(args)).report()


def _cmd_fig5(args) -> str:
    from repro.experiments import run_fig5

    return run_fig5(_wb(args)).report()


def _cmd_fig6(args) -> str:
    from repro.experiments import run_fig6

    return run_fig6(_wb(args)).report()


def _cmd_table5(args) -> str:
    from repro.experiments import run_table5

    return run_table5(_wb(args)).report()


def _cmd_rules(args) -> str:
    from repro.experiments import run_rule_tables

    return run_rule_tables(_wb(args)).report()


def _cmd_ablation_random(args) -> str:
    from repro.experiments import run_mcts_vs_random

    return run_mcts_vs_random(_wb(args)).report()


def _cmd_ablation_exploit(args) -> str:
    from repro.experiments import run_exploitation_ablation

    return run_exploitation_ablation(_wb(args)).report()


def _cmd_ablation_noise(args) -> str:
    from repro.experiments import run_noise_sensitivity

    return run_noise_sensitivity(_wb(args)).report()


def _cmd_platform(args) -> str:
    from repro.platform.presets import perlmutter_like

    return describe(perlmutter_like(noise_sigma=args.noise))


def _cmd_multi_input(args) -> str:
    from repro.apps.spmv import SpmvCase
    from repro.experiments import run_multi_input
    from repro.platform.presets import perlmutter_like

    base = SpmvCase() if args.scale >= 1 else SpmvCase().scaled(args.scale)
    cases = [
        ("bw=n/4", base),
        (
            "bw=n/8",
            SpmvCase(
                n_rows=base.n_rows,
                nnz=base.nnz,
                bandwidth=base.n_rows / 8,
                n_ranks=base.n_ranks,
                seed=base.seed,
            ),
        ),
    ]
    return run_multi_input(
        cases, perlmutter_like(noise_sigma=args.noise)
    ).report()


#: Paper-experiment registry: name -> (handler, one-line help).
_COMMANDS: Dict[str, Tuple[Callable, str]] = {
    "fig1": (_cmd_fig1, "sorted implementation sweep (Figure 1)"),
    "fig4": (_cmd_fig4, "labeling pipeline (Figure 4)"),
    "fig5": (_cmd_fig5, "Algorithm 1 hyperparameter trace (Figure 5)"),
    "fig6": (_cmd_fig6, "six-leaf tree + rules (Figure 6)"),
    "table5": (_cmd_table5, "MCTS iterations vs accuracy (Table V)"),
    "rules": (_cmd_rules, "ruleset consistency tables (Tables VI-VIII)"),
    "ablation-random": (_cmd_ablation_random, "MCTS vs random sampling"),
    "ablation-exploit": (_cmd_ablation_exploit, "exploitation-term ablation"),
    "ablation-noise": (_cmd_ablation_noise, "labeling noise sensitivity"),
    "platform": (_cmd_platform, "simulated platform description (Table I)"),
    "multi-input": (_cmd_multi_input, "cross-input rule generalization"),
}


# ----------------------------------------------------------------------
def _cmd_list(args) -> str:
    """Enumerate experiments, workload families, and suites."""
    from repro.workloads import builtin_suites, list_families

    lines = ["Experiments (repro <name>):"]
    width = max(len(n) for n in _COMMANDS) + 2
    for name in sorted(_COMMANDS):
        lines.append(f"  {name.ljust(width)}{_COMMANDS[name][1]}")
    lines.append(f"  {'all'.ljust(width)}every experiment above, in order")

    lines.append("")
    lines.append("Workload families (repro suite, or repro.workloads API):")
    families = list_families()
    width = max(len(f.name) for f in families) + 2
    for fam in families:
        lines.append(f"  {fam.name.ljust(width)}{fam.description}")
        if fam.defaults:
            defaults = ", ".join(f"{k}={v}" for k, v in fam.defaults)
            lines.append(f"  {''.ljust(width)}defaults: {defaults}")

    lines.append("")
    lines.append("Suites (repro suite <name>):")
    suites = builtin_suites()
    width = max(len(n) for n in suites) + 2
    for name in sorted(suites):
        s = suites[name]
        lines.append(f"  {name.ljust(width)}{s.description}")
        lines.append(
            f"  {''.ljust(width)}{len(s.specs)} workloads x "
            f"{len(s.strategies)} strategies "
            f"({', '.join(s.strategies)}), {s.n_iterations} iterations"
        )
    return "\n".join(lines)


def _cmd_suite(args) -> str:
    """Run a named suite through the batched evaluation substrate."""
    from repro.platform.presets import perlmutter_like
    from repro.workloads import run_suite

    report = run_suite(
        args.name,
        machine=perlmutter_like(noise_sigma=args.noise),
        seed=args.seed,
        execution=_execution(args),
        store_path=args.store,
    )
    json_path = args.json or f"repro-suite-{args.name}.json"
    out = report.ascii_table()
    if json_path == "-":
        out += "\n" + report.to_json()
    else:
        report.save_json(json_path)
        out += f"\nJSON report written to {json_path}"
    return out


def _cmd_transfer(args) -> str:
    """Run the cross-program transfer-matrix experiment."""
    import json

    from repro.platform.presets import perlmutter_like
    from repro.sim.measure import MeasurementConfig
    from repro.transfer import run_transfer_matrix
    from repro.workloads import get_suite

    suite = get_suite(args.suite)
    measurement = (
        MeasurementConfig(max_samples=1) if args.smoke else suite.measurement
    )
    result = run_transfer_matrix(
        suite.specs,
        machine=perlmutter_like(noise_sigma=args.noise),
        n_streams=suite.n_streams,
        measurement=measurement,
        execution=_execution(args),
    )
    out = result.report()
    json_path = args.json or "repro-transfer.json"
    if json_path == "-":
        out += "\n" + json.dumps(result.to_dict(), indent=2, sort_keys=True)
    else:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        out += f"\nJSON report written to {json_path}"
    return out


# ----------------------------------------------------------------------
def _parse_params(items) -> dict:
    """``k=v`` pairs with int → float → string value coercion."""
    out = {}
    for item in items or ():
        if "=" not in item:
            raise SystemExit(f"--param expects k=v, got {item!r}")
        key, text = item.split("=", 1)
        value: object
        try:
            value = int(text)
        except ValueError:
            try:
                value = float(text)
            except ValueError:
                value = text
        out[key] = value
    return out


def _target_spec(args):
    from repro.workloads import WorkloadSpec

    return WorkloadSpec(
        args.family, _parse_params(args.param), seed=args.workload_seed
    )


#: Held-out default target for ``repro advise --smoke``: a layered_random
#: parameterization (params + seed) no built-in suite trains on.
_SMOKE_TARGET = ("layered_random", {"layers": 3, "width": 2, "edge_p": 0.7}, 5)


def _train_store(args, store, machine) -> list:
    """Run the training suite's rule pipelines and publish artifacts."""
    from repro import obs
    from repro.advisor import publish_artifacts
    from repro.sim.measure import MeasurementConfig
    from repro.workloads import get_suite, rules_for_specs

    suite = get_suite(args.train)
    measurement = (
        MeasurementConfig(max_samples=1) if args.smoke else suite.measurement
    )
    per_workload = rules_for_specs(
        suite.specs,
        machine=machine,
        n_streams=suite.n_streams,
        measurement=measurement,
        execution=_execution(args),
    )
    with obs.span("advisor.publish"):
        return publish_artifacts(
            store,
            per_workload,
            machine=machine.name,
            n_streams=suite.n_streams,
        )


def _cmd_advise(args) -> str:
    """Recommend a schedule for a (possibly never-searched) workload."""
    import json

    from repro.advisor import ArtifactStore, recommend
    from repro.platform.presets import perlmutter_like
    from repro.workloads import WorkloadSpec, build_workload

    machine = perlmutter_like(noise_sigma=args.noise)
    store = ArtifactStore(args.store)
    lines = []
    if args.smoke and not args.train:
        args.train = "smoke"
    if args.smoke and args.family is None:
        family, params, seed = _SMOKE_TARGET
        spec = WorkloadSpec(family, params, seed=seed)
    elif args.family is None:
        raise SystemExit("repro advise needs --family (or --smoke)")
    else:
        spec = _target_spec(args)
    if args.train:
        paths = _train_store(args, store, machine)
        lines.append(
            f"trained on suite {args.train!r}: published {len(paths)} "
            f"artifacts to {args.store}"
        )
    program = build_workload(spec)
    rec = recommend(
        program,
        store,
        machine=machine.name,
        n_streams=args.streams,
        seed=args.seed,
    )
    lines.append(f"advise {spec.label} (store: {args.store})")
    lines.append(f"  status:     {rec.status}")
    lines.append(f"  confidence: {rec.confidence:.3f}")
    if rec.recommended:
        lines.append(
            f"  ranked {rec.n_candidates} candidates with {rec.n_rules} "
            f"resolved rules from {len(rec.sources)} sources"
        )
        lines.append(
            f"  rule score {rec.rule_score:+.3f}, union P(fast) "
            f"{rec.p_fast:.2f}"
        )
        lines.append(
            "  schedule:   "
            + " -> ".join(str(op) for op in rec.schedule.ops)
        )
    if rec.excluded_sources:
        lines.append(
            "  excluded by do-not-transfer advisories: "
            + ", ".join(rec.excluded_sources)
        )
    if rec.note:
        lines.append(f"  note: {rec.note}")
    if args.json:
        payload = json.dumps(rec.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            lines.append(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            lines.append(f"JSON written to {args.json}")
    return "\n".join(lines)


def _search_payload(args, spec, space_count, result, wall) -> dict:
    """JSON summary of one search run.

    Everything outside ``timing`` is a pure function of the run's inputs
    — the workload, strategy, guide artifacts, and seeds — so CI can
    assert a range-sharded sweep is bit-identical to the serial one by
    comparing payloads with ``timing`` dropped.  ``samples_digest``
    condenses the full (fingerprint, time) sample sequence into one
    hash, order included.
    """
    import hashlib

    best = result.best()
    digest = hashlib.sha256()
    for sample in result.samples:
        digest.update(
            f"{sample.schedule.fingerprint()}:{sample.time!r};".encode()
        )
    return {
        "family": spec.family,
        "label": spec.label,
        "strategy": args.strategy,
        "guided": bool(args.guided),
        "n_streams": args.streams,
        "space": space_count,
        "n_iterations": result.n_iterations,
        "n_pruned": result.n_pruned,
        "n_subtrees_cut": result.n_subtrees_cut,
        "n_simulations": result.n_simulations,
        "best": {
            "time": best.time,
            "fingerprint": best.schedule.fingerprint(),
        },
        "samples_digest": digest.hexdigest(),
        "timing": {"wall_s": wall},
    }


def _cmd_search(args) -> str:
    """Run one search strategy on one workload, optionally rule-guided."""
    import json
    import time

    from repro.advisor import ArtifactStore, ScheduleGuide
    from repro.exec import build_evaluator
    from repro.orchestrate import make_strategy, run_range_sharded_search
    from repro.platform.presets import perlmutter_like
    from repro.schedule.space import DesignSpace
    from repro.search.exhaustive import ExhaustiveSearch
    from repro.sim.measure import MeasurementConfig
    from repro.workloads import build_workload

    if args.family is None:
        raise SystemExit("repro search needs --family (see `repro list`)")
    if args.shard_workers > 1 and args.range_shards <= 1:
        raise SystemExit(
            "--shard-workers requires --range-shards (only range shards "
            "run in worker processes)"
        )
    if args.iterations is not None and args.range_shards > 1:
        raise SystemExit(
            "--iterations does not apply to --range-shards (a range-sharded "
            "sweep evaluates the whole space)"
        )
    spec = _target_spec(args)
    machine = perlmutter_like(noise_sigma=args.noise)
    program = build_workload(spec)
    space = DesignSpace(program, n_streams=args.streams)
    execution = _execution(args)
    guide = None
    lines = []
    if args.range_shards > 1:
        # Range-sharded exhaustive: split the enumeration order into
        # seek-delimited slices and merge — bit-identical to serial.
        if args.strategy != "exhaustive":
            raise SystemExit("--range-shards requires --strategy exhaustive")
        t0 = time.perf_counter()
        sharded = run_range_sharded_search(
            spec,
            machine=machine,
            n_streams=args.streams,
            n_shards=args.range_shards,
            measurement=MeasurementConfig(),
            execution=execution,
            store_path=args.store if args.guided else None,
        )
        result = sharded.result
        wall = time.perf_counter() - t0
        lines.append(
            f"range-sharded over {len(sharded.ranges)} ranges "
            f"(shard workers: {args.shard_workers or 'in-process'})"
        )
    else:
        if args.guided:
            guide = ScheduleGuide.from_store(
                ArtifactStore(args.store),
                program,
                machine=machine.name,
            )
            lines.append(guide.describe())
        evaluator = build_evaluator(
            program,
            machine.with_ranks(program.n_ranks),
            MeasurementConfig(),
            cache_path=execution.cache_path,
        )
        try:
            if args.strategy == "exhaustive":
                block = execution.block_size
                strategy = ExhaustiveSearch(
                    space,
                    evaluator,
                    batch_size=64 if block is None else block,
                    guide=guide,
                )
                budget = args.iterations  # None = exhaust
            else:
                strategy = make_strategy(
                    args.strategy, space, evaluator, args.seed, guide=guide
                )
                budget = 64 if args.iterations is None else args.iterations
            t0 = time.perf_counter()
            result = strategy.run(budget)
            wall = time.perf_counter() - t0
        finally:
            evaluator.close()
    best = result.best()
    space_count = space.count()
    lines.append(
        f"{args.strategy}{' (guided)' if args.guided else ''} on "
        f"{spec.label}: space {space_count} schedules"
    )
    lines.append(
        f"  evaluated {result.n_iterations} schedules"
        + (
            f", pruned {result.n_pruned} by rules, cut "
            f"{result.n_subtrees_cut} subtrees before enumeration"
            if args.guided
            else ""
        )
        + f" in {wall:.2f}s"
    )
    lines.append(f"  best time {best.time * 1e6:.2f} us")
    if args.json:
        payload = json.dumps(
            _search_payload(args, spec, space_count, result, wall),
            indent=2,
            sort_keys=True,
        )
        if args.json == "-":
            lines.append(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            lines.append(f"JSON written to {args.json}")
    return "\n".join(lines)


def _read_trace_file(path: str):
    """Parse a trace file named on the command line, or exit saying why."""
    from repro.obs import TraceSchemaError, read_trace

    try:
        return read_trace(path)
    except (TraceSchemaError, OSError) as err:
        raise SystemExit(str(err)) from err


def _cmd_trace(args) -> str:
    """Render, analyze, or diff trace files (``--trace PATH`` output).

    ``--diff BASELINE CURRENT`` compares the two runs' counters exactly
    and exits nonzero when any differs — the check CI runs on its serial
    and sharded smoke traces.  ``--analyze --json`` emits the analysis
    tables as machine-readable JSON (the history store's ingestion
    format); ``--export-perfetto OUT.json`` lowers the trace to
    Chrome/Perfetto trace-event JSON for ``ui.perfetto.dev``.  A file
    that is missing or not a valid trace exits with its path and line; a
    flag the mode would ignore (``--json`` without ``--analyze``, or
    ``--analyze``, ``--json`` or ``--export-perfetto`` with ``--diff``)
    exits naming the flag.
    """
    import json as json_mod

    from repro.obs import (
        analysis_to_dict,
        diff_runs,
        export_perfetto,
        render_analysis,
        render_diff,
        render_trace,
    )

    if args.diff:
        for flag, value in (
            ("--analyze", args.analyze),
            ("--json", args.json),
            ("--export-perfetto", args.export_perfetto),
        ):
            if value:
                raise SystemExit(
                    f"{flag} does not apply to --diff (a diff compares "
                    "the two runs' counters only)"
                )
        if len(args.paths) != 2:
            raise SystemExit(
                "repro trace --diff takes exactly two runs: BASELINE CURRENT"
            )
        diff = diff_runs(
            _read_trace_file(args.paths[0]), _read_trace_file(args.paths[1])
        )
        report = render_diff(diff)
        if not diff.ok:
            print(report)
            raise SystemExit(
                f"trace diff: {len(diff.regressions())} regression(s)"
            )
        return report
    if len(args.paths) != 1:
        raise SystemExit(
            "repro trace renders one trace (use --diff to compare two)"
        )
    if args.json and not args.analyze:
        raise SystemExit(
            "--json requires --analyze (it writes the analysis tables)"
        )
    data = _read_trace_file(args.paths[0])
    lines = []
    if args.export_perfetto:
        n_events = export_perfetto(data, args.export_perfetto)
        lines.append(
            f"perfetto trace with {n_events} events written to "
            f"{args.export_perfetto} (open in ui.perfetto.dev)"
        )
    if args.analyze:
        if args.json:
            payload = json_mod.dumps(
                analysis_to_dict(data), indent=2, sort_keys=True
            )
            if args.json == "-":
                lines.append(payload)
            else:
                with open(args.json, "w", encoding="utf-8") as fh:
                    fh.write(payload + "\n")
                lines.append(f"analysis JSON written to {args.json}")
                lines.append(render_analysis(data, top=args.top))
        else:
            lines.append(render_analysis(data, top=args.top))
    elif not lines:
        lines.append(render_trace(data, width=args.width))
    return "\n".join(lines)


def _cmd_obs(args) -> str:
    """``repro obs history ingest|show|gate`` — the cross-run trend store."""
    from repro.obs import HistoryStore, TraceSchemaError, detect_regressions
    from repro.obs.history import MIN_POINTS

    store = HistoryStore(args.store)
    if args.obs_command != "history":  # pragma: no cover - argparse gates
        raise SystemExit(f"unknown obs command {args.obs_command!r}")
    # Only ingest makes a store: reading a misspelled path is an error,
    # not an empty (and so always passing) history.
    if args.history_command != "ingest" and not os.path.isdir(args.store):
        raise SystemExit(f"{args.store}: no such history store directory")

    if args.history_command == "ingest":
        lines = []
        total = 0
        for source in args.sources:
            ingest = (
                store.ingest_bench
                if source.endswith(".json")
                else store.ingest_trace
            )
            try:
                added = ingest(source, sha=args.sha or "")
            except (TraceSchemaError, OSError) as err:
                raise SystemExit(str(err)) from err
            lines.append(f"ingested {source}: {added} points")
            total += added
        lines.append(
            f"history store {store.path}: +{total} points, "
            f"{len(store.run_ids())} runs total"
        )
        return "\n".join(lines)

    if args.history_command == "show":
        groups = store.series()
        if args.series:
            groups = {
                name: pts
                for name, pts in groups.items()
                if args.series in name
            }
        if not groups:
            return f"history store {store.path}: no matching series"
        lines = [
            f"history store {store.path}: {len(groups)} series, "
            f"{len(store.run_ids())} runs"
        ]
        for name in sorted(groups):
            points = groups[name][-args.last:]
            values = " ".join(f"{p.value:.6g}" for p in points)
            lines.append(
                f"  {name} ({len(groups[name])} points): {values}"
            )
        return "\n".join(lines)

    if args.history_command == "gate":
        regressions = detect_regressions(store)
        n_series = len(store.series())
        if not regressions:
            return (
                f"history gate: OK ({n_series} series, no trend "
                f"regressions; series under {MIN_POINTS} points "
                "are warn-only)"
            )
        report = "\n".join(
            "  " + r.describe() for r in regressions
        )
        print(
            f"history gate: {len(regressions)} trend regression(s) "
            f"across {n_series} series:\n{report}"
        )
        raise SystemExit(
            "history gate failed: "
            + ", ".join(r.series for r in regressions)
        )

    raise SystemExit(  # pragma: no cover - argparse gates
        f"unknown history command {args.history_command!r}"
    )


def _add_experiment_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=_scale,
        default=1.0,
        help="matrix scale factor in (0, 1] (1.0 = the paper's 150k-row case)",
    )
    _add_common_options(parser)


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--noise",
        type=_noise_sigma,
        default=0.01,
        help="measurement noise sigma (lognormal)",
    )
    parser.add_argument(
        "--cache",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "persistent measurement cache (SQLite); repeated runs skip "
            "already-simulated schedules"
        ),
    )


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type of a seed, or of a process or shard count (0 and 1 =
    in-process)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _noise_sigma(text: str) -> float:
    """argparse type of a noise sigma: a finite number, at least 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text}"
        )
    return value


def _scale(text: str) -> float:
    """argparse type of a matrix scale factor, in (0, 1]."""
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _add_sharding_options(parser: argparse.ArgumentParser) -> None:
    """Workload-level scaling knobs (repro.orchestrate)."""
    parser.add_argument(
        "--shard-workers",
        dest="shard_workers",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help=(
            "processes sharding whole workloads across the run, or "
            "repro search's --range-shards ranges (0/1 = in-process)"
        ),
    )
    parser.add_argument(
        "--block-size",
        dest="block_size",
        type=_positive_int,
        default=None,
        metavar="B",
        help=(
            "schedules per enumeration/evaluation block of every exhaustive "
            "sweep the command runs (default 64; the rule pipelines keep "
            "every labeled schedule for transfer scoring, so this bounds "
            "evaluation batches, not memory)"
        ),
    )


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    """Observability flags (repro.obs) for the long-running commands."""
    parser.add_argument(
        "--trace",
        dest="trace",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "record a span trace of the whole run (including shard "
            "worker processes) and write it as JSONL to PATH; render "
            "with `repro trace PATH`"
        ),
    )
    parser.add_argument(
        "--metrics",
        dest="metrics",
        action="store_true",
        help=(
            "append the run's metrics (counters and latency "
            "histograms) to the output"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.workloads import builtin_suites

    suite_names = sorted(builtin_suites())
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce experiments from 'Machine Learning for CUDA+MPI "
            "Design Rules' (arXiv:2203.02530) on the simulated platform."
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help=(
            "more diagnostics on stderr (repeatable; results stay on "
            "stdout)"
        ),
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="fewer diagnostics on stderr (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name, (_, help_text) in sorted(_COMMANDS.items()):
        p = sub.add_parser(name, help=help_text)
        _add_experiment_options(p)
    p = sub.add_parser("all", help="run every experiment, in order")
    _add_experiment_options(p)

    p = sub.add_parser(
        "list", help="list experiments, workload families, and suites"
    )

    p = sub.add_parser(
        "suite",
        help="run a workload suite (every workload x strategy cell)",
    )
    p.add_argument(
        "name", choices=suite_names, help="suite name (see `repro list`)"
    )
    p.add_argument(
        "--seed",
        type=_non_negative_int,
        default=0,
        help="seed for sampling strategies",
    )
    p.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "where to write the JSON report "
            "(default repro-suite-<name>.json; '-' appends it to stdout)"
        ),
    )
    p.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "advisor artifact store; cross-workload suites publish "
            "their trained rules/trees/signatures there (repro.advisor)"
        ),
    )
    _add_common_options(p)
    _add_sharding_options(p)
    _add_obs_options(p)

    p = sub.add_parser(
        "transfer",
        help=(
            "cross-program transfer matrix: signature-matched rule "
            "discrimination + leave-one-workload-out union tree"
        ),
    )
    p.add_argument(
        "--suite",
        choices=suite_names,
        default="generalization",
        help=(
            "suite whose workloads form the matrix (needs exhaustible "
            "spaces; default: generalization)"
        ),
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="CI-fast mode: single measurement sample per schedule",
    )
    p.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "where to write the JSON report "
            "(default repro-transfer.json; '-' appends it to stdout)"
        ),
    )
    _add_common_options(p)
    _add_sharding_options(p)
    _add_obs_options(p)

    p = sub.add_parser(
        "advise",
        help=(
            "recommend a schedule for a workload from persisted advisor "
            "artifacts — no simulation, just rules + the union tree"
        ),
    )
    _add_target_options(p)
    p.add_argument(
        "--store",
        type=str,
        default="repro-store",
        metavar="DIR",
        help="advisor artifact store directory (default: repro-store)",
    )
    p.add_argument(
        "--train",
        choices=suite_names,
        default=None,
        metavar="SUITE",
        help=(
            "first run this suite's exhaustive rule pipelines and "
            "publish their artifacts to the store"
        ),
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "CI-fast mode: single measurement sample for training, and "
            "a held-out synthetic default target; implies "
            "--train smoke unless --train is given"
        ),
    )
    p.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="write the recommendation as JSON ('-' appends to stdout)",
    )
    _add_common_options(p)
    _add_sharding_options(p)
    _add_obs_options(p)

    p = sub.add_parser(
        "search",
        help=(
            "run one search strategy on one workload, optionally "
            "rule-guided from the artifact store (--guided)"
        ),
    )
    _add_target_options(p)
    p.add_argument(
        "--strategy",
        type=str,
        default="exhaustive",
        choices=("exhaustive", "random", "beam", "mcts"),
        help="search strategy (default: exhaustive)",
    )
    p.add_argument(
        "--guided",
        action="store_true",
        help=(
            "prune/bias the search with rules from the artifact store: "
            "exhaustive and random skip schedules violating "
            "high-discrimination rules, beam orders expansion by rule "
            "satisfaction, MCTS biases rollouts"
        ),
    )
    p.add_argument(
        "--store",
        type=str,
        default="repro-store",
        metavar="DIR",
        help="advisor artifact store directory (default: repro-store)",
    )
    p.add_argument(
        "--iterations",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "benchmark budget (sampling strategies default to 64; "
            "exhaustive defaults to the whole space)"
        ),
    )
    p.add_argument(
        "--range-shards",
        dest="range_shards",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help=(
            "split an exhaustive sweep into N seek-delimited enumeration "
            "ranges executed as orchestrate tasks (results merge "
            "bit-identically to serial; combine with --shard-workers "
            "for actual parallelism; 0/1 = one unsplit sweep)"
        ),
    )
    p.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="write a deterministic run summary as JSON ('-' = stdout)",
    )
    _add_common_options(p)
    _add_sharding_options(p)
    _add_obs_options(p)

    p = sub.add_parser(
        "trace",
        help=(
            "render, analyze (--analyze), or diff (--diff) trace files "
            "written by --trace PATH"
        ),
    )
    p.add_argument(
        "paths",
        nargs="+",
        metavar="TRACE",
        help="a trace file written by --trace PATH; --diff takes two",
    )
    p.add_argument(
        "--width",
        type=_positive_int,
        default=24,
        metavar="COLS",
        help="duration bar width in columns (default 24)",
    )
    p.add_argument(
        "--analyze",
        action="store_true",
        help=(
            "per-span-path aggregation, self-time hotspots, and the "
            "parallelism-aware critical path instead of the span tree"
        ),
    )
    p.add_argument(
        "--diff",
        action="store_true",
        help=(
            "compare two runs (BASELINE CURRENT) counter by counter; "
            "exits nonzero when any counter differs or exists in only "
            "one run (wall time is judged by `repro obs history gate`)"
        ),
    )
    p.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        metavar="N",
        help="rows per table in --analyze output (default 10)",
    )
    p.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "--analyze: also write the tables as machine-readable JSON "
            "to PATH ('-' prints JSON instead of tables; this is the "
            "`repro obs history` ingestion format)"
        ),
    )
    p.add_argument(
        "--export-perfetto",
        dest="export_perfetto",
        type=str,
        default=None,
        metavar="OUT.json",
        help=(
            "lower the trace (spans across pids, counters) to "
            "Chrome/Perfetto trace-event JSON at OUT.json; open in "
            "ui.perfetto.dev"
        ),
    )

    p = sub.add_parser(
        "obs",
        help=(
            "observability stores: `repro obs history ingest|show|gate` "
            "accumulates per-metric time series across runs and gates "
            "on rolling median + MAD trend breaks"
        ),
    )
    obs_sub = p.add_subparsers(
        dest="obs_command", required=True, metavar="store"
    )
    hist = obs_sub.add_parser(
        "history",
        help="cross-run per-metric time series + trend regression gate",
    )
    hist_sub = hist.add_subparsers(
        dest="history_command", required=True, metavar="action"
    )

    hp = hist_sub.add_parser(
        "ingest",
        help=(
            "index trace files (--trace PATH) and/or pytest-benchmark "
            "JSON files into the store (idempotent per file name)"
        ),
    )
    hp.add_argument("store", help="history store directory")
    hp.add_argument(
        "sources",
        nargs="+",
        metavar="SOURCE",
        help="trace files and/or BENCH_*.json files (*.json)",
    )
    hp.add_argument(
        "--sha",
        type=str,
        default=None,
        help="git sha to stamp on the ingested points",
    )

    hp = hist_sub.add_parser(
        "show", help="print stored series and their recent values"
    )
    hp.add_argument("store", help="history store directory")
    hp.add_argument(
        "--series",
        type=str,
        default=None,
        metavar="SUBSTR",
        help="only series whose name contains SUBSTR",
    )
    hp.add_argument(
        "--last",
        type=_positive_int,
        default=8,
        metavar="N",
        help="values per series to print (default 8)",
    )

    hp = hist_sub.add_parser(
        "gate",
        help=(
            "exit nonzero when any span:, bench: or hist: series' newest "
            "point breaks its rolling median + MAD trend band (series "
            "with fewer than 5 runs are skipped: warn-only until a "
            "baseline accumulates)"
        ),
    )
    hp.add_argument("store", help="history store directory")
    return parser


def _add_target_options(parser: argparse.ArgumentParser) -> None:
    """Workload-targeting options shared by ``advise`` and ``search``."""
    parser.add_argument(
        "--family",
        type=str,
        default=None,
        help="workload family (see `repro list`)",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="K=V",
        help="family parameter override (repeatable)",
    )
    parser.add_argument(
        "--workload-seed",
        dest="workload_seed",
        type=_non_negative_int,
        default=0,
        help="workload generation seed",
    )
    parser.add_argument(
        "--streams",
        type=_positive_int,
        default=2,
        help="GPU streams in the design space (default 2)",
    )
    parser.add_argument(
        "--seed",
        type=_non_negative_int,
        default=0,
        help="seed for candidate sampling / search strategies",
    )


def _dispatch(args) -> str:
    """Route one parsed command to its handler; the result string is the
    command's entire stdout (the CLI is the only thing that prints)."""
    if args.command == "all":
        chunks = []
        for name in sorted(_COMMANDS):
            chunks.append(f"\n===== {name} =====")
            chunks.append(_COMMANDS[name][0](args))
        return "\n".join(chunks)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "suite":
        return _cmd_suite(args)
    if args.command == "transfer":
        return _cmd_transfer(args)
    if args.command == "advise":
        return _cmd_advise(args)
    if args.command == "search":
        return _cmd_search(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "obs":
        return _cmd_obs(args)
    return _COMMANDS[args.command][0](args)


def main(argv: Optional[List[str]] = None) -> int:
    from repro import obs

    args = build_parser().parse_args(argv)
    obs.configure_logging(verbose=args.verbose, quiet=args.quiet)
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    if trace_path is None and not want_metrics:
        print(_dispatch(args))
        return 0
    with obs.capture(trace=trace_path is not None) as cap:
        out = _dispatch(args)
    print(out)
    if trace_path is not None:
        n_spans = obs.write_trace(
            trace_path,
            cap.spans,
            metrics=cap.metrics,
            meta={"command": args.command},
        )
        print(f"trace with {n_spans} spans written to {trace_path}")
    if want_metrics:
        print(obs.render_metrics(cap.metrics))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
