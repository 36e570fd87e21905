"""Command-line interface: ``dragonfly-sim``.

Eight subcommands cover the study's workflows:

* ``table1``    — run every application standalone and print the Table I rows;
* ``pairwise``  — co-run a target and a background application under one or
  more routing algorithms and print the interference summary (Fig. 4 rows);
* ``mixed``     — run the Table II mixed workload and print per-application
  interference plus the system-wide congestion metrics (Figs 10-13);
* ``sweep``     — fan a scenario grid (standalone, pairwise or mixed) across
  worker processes, cached through the persistent result store
  (see docs/sweep.md);
* ``run``       — execute a named scenario from the built-in library or a
  scenario JSON file, optionally recording into a store
  (see docs/scenarios.md);
* ``trace``     — ``trace record`` runs a scenario and dumps every job's
  communication trace as a ``.trace.jsonl`` file; ``trace replay``
  re-executes a trace file as a ``"trace"`` job, optionally under a
  different routing/placement/seed (see docs/traces.md);
* ``report``    — rebuild Table I/II, the pairwise/mixed comparison rows and
  the steady-state ``loadcurve/<pattern>`` latency-vs-offered-load curves
  from a populated result store, as text, CSV or Markdown — **no
  simulation** (see docs/results.md);
* ``scenarios`` — list the scenario library, or describe one as JSON.

``--seed``/``--scale`` are accepted both before and after the subcommand,
and every study subcommand accepts ``--dump-scenario PATH`` to capture the
invocation as a reusable scenario JSON file instead of simulating.
"""

from __future__ import annotations

import argparse
import os
import sqlite3
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.mixed import mixed_study
from repro.analysis.pairwise import pairwise_study
from repro.analysis.reports import OUTPUT_FORMATS, format_table, intensity_report
from repro.experiments.configs import ROUTINGS, bench_config, table1_specs
from repro.experiments.scenario import (
    Scenario,
    dump_scenarios,
    expand_grid,
    get_scenario,
    load_scenarios,
    mixed_scenario,
    pairwise_scenario,
    scenario_names,
    table1_scenario,
)
from repro.metrics.intensity import intensity_table
from repro.results import DEFAULT_STORE_PATH, ResultStore
from repro.workloads import APPLICATIONS

__all__ = ["build_parser", "main"]


def _seed(args: argparse.Namespace) -> int:
    return getattr(args, "seed", 1)


def _scale(args: argparse.Namespace) -> float:
    return getattr(args, "scale", 1.0)


def _dump_path(args: argparse.Namespace) -> Optional[str]:
    return getattr(args, "dump_scenario", None)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    # Shared options live on a parent parser attached to the main parser AND
    # to every subparser, so "dragonfly-sim table1 --seed 3" and
    # "dragonfly-sim --seed 3 table1" both work.  Defaults are SUPPRESS so a
    # subparser's (unset) copy never clobbers a value parsed earlier; readers
    # go through _seed()/_scale()/_dump_path() for the real defaults.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="experiment seed (default 1)"
    )
    common.add_argument(
        "--scale", type=float, default=argparse.SUPPRESS,
        help="message-volume scale factor (default 1.0)",
    )
    capture = argparse.ArgumentParser(add_help=False)
    capture.add_argument(
        "--dump-scenario", metavar="PATH", default=argparse.SUPPRESS,
        help="write this invocation's scenario(s) as JSON to PATH and exit "
             "without simulating (replay with 'dragonfly-sim run PATH')",
    )

    parser = argparse.ArgumentParser(
        prog="dragonfly-sim",
        description="Dragonfly workload-interference simulator (SC22 reproduction)",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser(
        "table1", parents=[common, capture],
        help="regenerate the Table I intensity metrics",
    )
    table1.add_argument("--routing", default="par", help="routing algorithm to use")

    pairwise = sub.add_parser(
        "pairwise", parents=[common, capture],
        help="pairwise interference study (Fig. 4)",
    )
    pairwise.add_argument("target", choices=sorted(APPLICATIONS), help="target application")
    pairwise.add_argument(
        "background", choices=sorted(APPLICATIONS), help="background application"
    )
    pairwise.add_argument(
        "--routings", nargs="+", default=list(ROUTINGS), help="routing algorithms to compare"
    )

    mixed = sub.add_parser(
        "mixed", parents=[common, capture], help="mixed-workload study (Figs 10-13)"
    )
    mixed.add_argument(
        "--routings", nargs="+", default=["par", "q-adaptive"], help="routing algorithms"
    )

    sweep = sub.add_parser(
        "sweep", parents=[common, capture],
        help="parallel scenario grid (routing x placement x seed)",
    )
    sweep.add_argument(
        "--workloads", nargs="+", default=["FFT3D", "Halo3D"],
        help="applications to sweep standalone (see repro.workloads)",
    )
    sweep.add_argument(
        "--scenario", default=None, metavar="NAME_OR_FILE",
        help="sweep this base scenario (library name or JSON file) across the "
             "grid axes instead of --workloads — pairwise and mixed scenarios "
             "sweep exactly like standalone ones",
    )
    sweep.add_argument(
        "--routings", nargs="+", default=None,
        help="routing algorithms (default: all four paper algorithms for "
             "--workloads grids; the base scenario's algorithm for --scenario)",
    )
    sweep.add_argument(
        "--placements", nargs="+", default=None,
        help="placement policies (random, contiguous; default: random for "
             "--workloads grids, the base scenario's policy for --scenario)",
    )
    sweep.add_argument(
        "--seeds", nargs="+", type=int, default=None,
        help="experiment seeds (default: --seed if given, else the base value)",
    )
    sweep.add_argument(
        "--start-times", nargs="+", type=float, default=None, metavar="NS",
        help="stagger the base scenario's first job across these arrival "
             "times (ns); --scenario grids only",
    )
    sweep.add_argument(
        "--offered-loads", nargs="+", type=float, default=None, metavar="FRACTION",
        help="sweep the base scenario's synthetic jobs across these "
             "continuous-injection loads (fractions of terminal bandwidth, "
             "e.g. 0.1 0.4 0.7) — the latency-vs-load axis; --scenario "
             "grids only (see the loadcurve/<pattern> presets)",
    )
    sweep.add_argument(
        "--fidelities", "--fidelity", nargs="+", default=None, dest="fidelities",
        help="sweep the base scenario across these simulation fidelities "
             "(packet, flow) — the cross-fidelity validation axis; "
             "--scenario grids only (see docs/fidelity.md)",
    )
    sweep.add_argument(
        "--fail-fast", action="store_true",
        help="abort the sweep on the first failing cell instead of finishing "
             "the rest of the grid and summarizing failures at the end",
    )
    sweep.add_argument(
        "--warmup", type=float, default=None, metavar="NS",
        help="override the base scenario's warmup_ns (statistics before this "
             "time are excluded from measurement-window metrics); "
             "--scenario grids only",
    )
    sweep.add_argument(
        "--measurement", type=float, default=None, metavar="NS",
        help="override the base scenario's measurement_ns (the run terminates "
             "when the window closes instead of waiting for rank completion); "
             "--scenario grids only",
    )
    sweep.add_argument(
        "--system", default="small", choices=["tiny", "small", "paper"],
        help="system shape for --workloads grids (default: the 72-node bench system)",
    )
    sweep.add_argument(
        "--workers", type=int, default=os.cpu_count() or 1,
        help="worker processes (default: all cores)",
    )
    sweep.add_argument(
        "--store", default=None, metavar="PATH",
        help=f"SQLite result store used as the sweep cache (default "
             f"{DEFAULT_STORE_PATH}; '' disables caching; see docs/results.md)",
    )
    sweep.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="deprecated: legacy JSON cache directory; its entries are "
             "imported into the store (DIR/results.sqlite unless --store "
             "names another path)",
    )

    run = sub.add_parser(
        "run", parents=[common, capture],
        help="run a scenario by library name or from a JSON file",
    )
    run.add_argument(
        "scenario",
        help="scenario name (see 'dragonfly-sim scenarios') or path to a "
             "scenario JSON file",
    )
    run.add_argument("--routing", default=None, help="override the routing algorithm")
    run.add_argument("--placement", default=None, help="override the placement policy")
    run.add_argument(
        "--fidelity", default=None, choices=["packet", "flow"],
        help="override the simulation fidelity (flow = fluid-flow model for "
             "large systems; see docs/fidelity.md)",
    )
    run.add_argument(
        "--store", default=None, metavar="PATH",
        help="record the run's metrics into this result store "
             "(readable later with 'dragonfly-sim report')",
    )

    trace = sub.add_parser(
        "trace", parents=[common],
        help="record a scenario's communication traces, or replay a trace file",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_record = trace_sub.add_parser(
        "record", parents=[common],
        help="run a scenario and dump each job's rank program as a trace file",
    )
    trace_record.add_argument(
        "scenario",
        help="scenario name (see 'dragonfly-sim scenarios') or path to a "
             "scenario JSON file describing a single scenario",
    )
    trace_record.add_argument(
        "--output", "-o", default="traces", metavar="DIR",
        help="directory for the .trace.jsonl files (default: traces/)",
    )
    trace_record.add_argument(
        "--job", default=None, metavar="NAME",
        help="only write the trace of this job (default: every job)",
    )
    trace_record.add_argument(
        "--routing", default=None, help="override the routing algorithm before recording"
    )
    trace_record.add_argument(
        "--placement", default=None, help="override the placement policy before recording"
    )
    trace_replay = trace_sub.add_parser(
        "replay", parents=[common],
        help="re-execute a recorded trace file as a 'trace' job",
    )
    trace_replay.add_argument(
        "trace", help="trace file (.trace.jsonl) written by 'trace record'"
    )
    trace_replay.add_argument(
        "--routing", default=None,
        help="replay under this routing algorithm instead of the recorded one",
    )
    trace_replay.add_argument(
        "--placement", default=None,
        help="replay under this placement policy instead of the recorded one",
    )
    trace_replay.add_argument(
        "--name", default=None, metavar="SCENARIO",
        help="scenario name for the replay run (default: trace/<recorded app>)",
    )
    trace_replay.add_argument(
        "--store", default=None, metavar="PATH",
        help="record the replay's metrics into this result store "
             "(readable later with 'dragonfly-sim report trace/<name>')",
    )

    report = sub.add_parser(
        "report", parents=[common],
        help="render a report from a populated result store (no simulation)",
    )
    report.add_argument(
        "name",
        help="report name: table1, table2, mixed, "
             "pairwise/<Target>+<Background>, synthetic/<Target>, "
             "loadcurve/<pattern> (latency vs offered load, per routing), "
             "ml/<pattern>, or trace/<name>",
    )
    report.add_argument(
        "--store", default=str(DEFAULT_STORE_PATH), metavar="PATH",
        help=f"result store to read (default {DEFAULT_STORE_PATH})",
    )
    report.add_argument(
        "--format", dest="fmt", choices=list(OUTPUT_FORMATS), default="table",
        help="output format (default: aligned plain-text table)",
    )
    report.add_argument(
        "--routing", default=None, help="only consider runs under this routing algorithm"
    )
    report.add_argument(
        "--placement", default=None,
        help="only consider runs under this placement policy (random, contiguous)",
    )
    report.add_argument(
        "--start-time", type=float, default=None, metavar="NS",
        help="for pairwise/synthetic reports: only consider co-runs whose "
             "staggered arrival time equals NS (0 = simultaneous arrivals)",
    )
    report.add_argument(
        "--fidelity", default=None, choices=["packet", "flow"],
        help="only consider runs at this simulation fidelity — disambiguates "
             "stores holding packet- and flow-level runs of one scenario "
             "(see docs/fidelity.md)",
    )
    report.add_argument(
        "--knob", action="append", default=None, metavar="JOB:KEY=VALUE",
        help="only consider runs whose JOB carries this kwarg value, e.g. "
             "--knob hotspot:hot_fraction=0.9 (repeatable; selects one cell "
             "of a job_knobs sweep)",
    )
    report.add_argument(
        "--output", "-o", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )

    scenarios = sub.add_parser(
        "scenarios", help="list the built-in scenario library (or describe one)"
    )
    scenarios.add_argument(
        "name", nargs="?", default=None,
        help="print this scenario's JSON description instead of the list",
    )
    return parser


def _resolve_scenarios(ref: str) -> List[Scenario]:
    """Scenario(s) behind ``ref``: a JSON file path or a library name."""
    if ref.endswith(".json") or Path(ref).is_file():
        return load_scenarios(ref)
    return [get_scenario(ref)]


def _dump_and_report(path: str, scenarios: List[Scenario]) -> int:
    dump_scenarios(path, scenarios)
    label = scenarios[0].name if len(scenarios) == 1 else f"{len(scenarios)} scenarios"
    print(f"wrote {label} to {path} (replay with: dragonfly-sim run {path})")
    return 0


def _run_table1(args: argparse.Namespace) -> int:
    scenarios = [
        table1_scenario(spec.name, routing=args.routing, seed=_seed(args), scale=_scale(args))
        for spec in table1_specs()
    ]
    dump = _dump_path(args)
    if dump:
        return _dump_and_report(dump, scenarios)
    applications = {}
    records = {}
    for scenario in scenarios:
        result = scenario.run()
        (name,) = [spec.name for spec in scenario.jobs]
        applications[name] = result.application(name)
        records[name] = result.record(name)
    rows = intensity_table(applications.values(), records)
    print(intensity_report(rows))
    return 0


def _run_pairwise(args: argparse.Namespace) -> int:
    dump = _dump_path(args)
    if dump:
        scenarios = [
            pairwise_scenario(
                args.target, args.background,
                routing=routing, seed=_seed(args), scale=_scale(args),
            )
            for routing in args.routings
        ]
        return _dump_and_report(dump, scenarios)
    rows = []
    for routing in args.routings:
        config = bench_config(routing, seed=_seed(args))
        result = pairwise_study(config, args.target, args.background, scale=_scale(args))
        rows.append(result.as_dict())
    print(
        format_table(
            rows,
            ["routing", "target", "background", "standalone_comm_ns", "interfered_comm_ns", "slowdown", "variation"],
        )
    )
    return 0


def _run_mixed(args: argparse.Namespace) -> int:
    dump = _dump_path(args)
    if dump:
        scenarios = [
            mixed_scenario(routing=routing, seed=_seed(args)) for routing in args.routings
        ]
        return _dump_and_report(dump, scenarios)
    rows = []
    for routing in args.routings:
        config = bench_config(routing, seed=_seed(args))
        result = mixed_study(config)
        latency = result.system_latency()
        rows.append(
            {
                "routing": routing,
                "mean_interference": result.mean_interference(),
                "mean_latency_ns": latency.mean,
                "p99_latency_ns": latency.p99,
                "throughput_gb_per_ms": result.mean_system_throughput(),
            }
        )
    print(format_table(rows))
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import SweepError, SweepResult, build_grid, run_sweep

    if args.seeds is not None:
        seeds = args.seeds
    elif hasattr(args, "seed"):
        seeds = [args.seed]
    else:
        seeds = None  # --scenario grids keep the base seed
    if args.scenario:
        bases = _resolve_scenarios(args.scenario)
        if hasattr(args, "scale"):
            bases = [base.with_updates(scale=args.scale) for base in bases]
        if args.warmup is not None or args.measurement is not None:
            bases = [
                base.with_updates(warmup_ns=args.warmup, measurement_ns=args.measurement)
                for base in bases
            ]
        # Only the axes the user actually passed are expanded; everything
        # else keeps the base scenario's value.
        grid = expand_grid(
            bases, routings=args.routings, placements=args.placements, seeds=seeds,
            start_times=args.start_times, offered_loads=args.offered_loads,
            fidelities=args.fidelities,
        )
        columns = ["scenario", "jobs", "routing", "placement", "seed",
                   "makespan_ns", "mean_comm_time_ns", "total_port_stall_ns", "cached"]
    else:
        steady_flags = [
            flag
            for flag, value in [
                ("--start-times", args.start_times),
                ("--offered-loads", args.offered_loads),
                ("--fidelities", args.fidelities),
                ("--warmup", args.warmup),
                ("--measurement", args.measurement),
            ]
            if value is not None
        ]
        if steady_flags:
            print(
                f"error: {'/'.join(steady_flags)} requires --scenario "
                "(workload grids describe fixed-length packet-level standalone "
                "runs that start at t=0)",
                file=sys.stderr,
            )
            return 2
        grid = build_grid(
            workloads=args.workloads,
            routings=args.routings if args.routings is not None else list(ROUTINGS),
            placements=args.placements if args.placements is not None else ["random"],
            seeds=seeds if seeds is not None else [1],
            scale=_scale(args),
            system=args.system,
        )
        columns = ["workload", "routing", "placement", "seed",
                   "makespan_ns", "mean_comm_time_ns", "total_port_stall_ns", "cached"]

    dump = _dump_path(args)
    if dump:
        scenarios = [cell if isinstance(cell, Scenario) else cell.to_scenario() for cell in grid]
        return _dump_and_report(dump, scenarios)

    def progress(done: int, total: int, result: SweepResult) -> None:
        origin = "cache" if result.cached else f"{result.wall_seconds:.1f}s"
        if result.point is not None:
            what = (f"{result.point.workload} {result.point.routing} "
                    f"{result.point.placement} seed={result.point.seed}")
        else:
            what = result.scenario.name
        print(f"[{done}/{total}] {what} ({origin})", file=sys.stderr)

    # --store '' (or the legacy --cache-dir '' idiom) disables caching
    # outright; an unset --store falls back to the default store unless a
    # (deprecated) --cache-dir names the legacy location, in which case the
    # store lives inside that directory.  An explicit --store always wins;
    # --cache-dir then only marks the legacy JSON entries to import.
    store = args.store
    cache_dir = args.cache_dir or None
    if store == "" or (args.cache_dir == "" and store is None):
        store, cache_dir = None, None
    elif store is None and cache_dir is None:
        store = str(DEFAULT_STORE_PATH)
    try:
        results = run_sweep(
            grid,
            workers=args.workers,
            store=store,
            cache_dir=cache_dir,
            progress=progress,
            fail_fast=args.fail_fast,
        )
    except sqlite3.DatabaseError as exc:
        broken = store if store is not None else str(Path(cache_dir) / "results.sqlite")
        print(
            f"error: result store {broken!r} is unreadable ({exc}); delete the "
            "file to start a fresh cache, or pass --store '' to sweep uncached",
            file=sys.stderr,
        )
        return 2
    except SweepError as exc:
        # Failed cells abort nothing: the completed rows still print (failed
        # ones carry an `error` column), the failure summary goes to stderr,
        # and the exit code says the sweep was not clean.
        print(format_table([r.as_row() for r in exc.results], columns + ["error"]))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_table([r.as_row() for r in results], columns))
    return 0


def _run_run(args: argparse.Namespace) -> int:
    scenarios = _resolve_scenarios(args.scenario)
    overrides = {}
    if args.routing is not None:
        overrides["routing"] = args.routing
    if args.placement is not None:
        overrides["placement"] = args.placement
    if args.fidelity is not None:
        overrides["fidelity"] = args.fidelity
    if hasattr(args, "seed"):
        overrides["seed"] = args.seed
    if hasattr(args, "scale"):
        overrides["scale"] = args.scale
    if overrides:
        scenarios = [scenario.with_updates(**overrides) for scenario in scenarios]
    dump = _dump_path(args)
    if dump:
        return _dump_and_report(dump, scenarios)
    try:
        store = ResultStore(args.store) if args.store else None
    except sqlite3.DatabaseError as exc:
        print(f"error: {args.store!r} is not a writable result store: {exc}", file=sys.stderr)
        return 2
    recorded = 0
    try:
        rows = []
        for scenario in scenarios:
            result = scenario.run()
            if store is not None:
                try:
                    recorded += bool(store.record_run(scenario, result))
                except sqlite3.DatabaseError as exc:
                    # e.g. a foreign DB whose table layout clashes with ours:
                    # surface it without losing the simulated results below.
                    print(
                        f"warning: could not record into {args.store!r}: {exc}",
                        file=sys.stderr,
                    )
                    store.close()
                    store = None
            comm = [float(job.record.mean_comm_time) for job in result.jobs.values()]
            rows.append(
                {
                    "scenario": scenario.name,
                    "jobs": "+".join(spec.name for spec in scenario.jobs),
                    "routing": scenario.config.routing.algorithm,
                    "placement": scenario.placement,
                    "seed": scenario.config.seed,
                    "fidelity": result.fidelity,
                    "makespan_ns": result.makespan_ns,
                    "mean_comm_time_ns": sum(comm) / len(comm),
                }
            )
    finally:
        if store is not None:
            store.close()
    if args.store:
        already = len(scenarios) - recorded
        note = f" ({already} already stored; any missing metrics were backfilled)" if already else ""
        print(f"recorded {recorded} new run(s) into {args.store}{note}", file=sys.stderr)
    print(format_table(rows))
    return 0


def _run_trace_record(args: argparse.Namespace) -> int:
    from repro.traces import record_scenario, trace_hash

    scenarios = _resolve_scenarios(args.scenario)
    if len(scenarios) != 1:
        print(
            f"error: {args.scenario!r} describes {len(scenarios)} scenarios; "
            "'trace record' records one at a time",
            file=sys.stderr,
        )
        return 2
    overrides = {}
    if args.routing is not None:
        overrides["routing"] = args.routing
    if args.placement is not None:
        overrides["placement"] = args.placement
    if hasattr(args, "seed"):
        overrides["seed"] = args.seed
    if hasattr(args, "scale"):
        overrides["scale"] = args.scale
    scenario = scenarios[0].with_updates(**overrides) if overrides else scenarios[0]
    _, traces = record_scenario(scenario)
    if args.job is not None:
        if args.job not in traces:
            print(
                f"error: scenario {scenario.name!r} has no job {args.job!r}; "
                f"its jobs are {sorted(traces)}",
                file=sys.stderr,
            )
            return 2
        traces = {args.job: traces[args.job]}
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = scenario.name.replace("/", "-")
    for job_name in sorted(traces):
        trace = traces[job_name]
        path = outdir / f"{stem}.{job_name}.trace.jsonl"
        trace.dump(path)
        print(
            f"wrote {path} ({trace.op_count} ops, hash {trace_hash(trace)}; "
            f"replay with: dragonfly-sim trace replay {path})"
        )
    return 0


def _run_trace_replay(args: argparse.Namespace) -> int:
    from repro.traces import TraceError, replay_scenario

    if hasattr(args, "scale"):
        print(
            "error: --scale does not apply to trace replay (a trace fixes "
            "every message size; re-record at the new scale instead)",
            file=sys.stderr,
        )
        return 2
    try:
        scenario = replay_scenario(
            args.trace,
            routing=args.routing,
            placement=args.placement,
            seed=getattr(args, "seed", None),
            name=args.name,
        )
    except (TraceError, OSError) as exc:
        print(f"error: cannot replay {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    result = scenario.run()
    if args.store:
        try:
            with ResultStore(args.store) as store:
                recorded = store.record_run(scenario, result)
        except sqlite3.DatabaseError as exc:
            print(f"error: {args.store!r} is not a writable result store: {exc}", file=sys.stderr)
            return 2
        note = "" if recorded else " (already stored; any missing metrics were backfilled)"
        print(f"recorded {scenario.name} into {args.store}{note}", file=sys.stderr)
    record = result.record("trace")
    print(
        format_table(
            [
                {
                    "scenario": scenario.name,
                    "routing": scenario.config.routing.algorithm,
                    "placement": scenario.placement,
                    "seed": scenario.config.seed,
                    "makespan_ns": result.makespan_ns,
                    "comm_time_ns": float(record.mean_comm_time),
                    "total_msg_bytes": float(record.total_bytes_sent),
                }
            ]
        )
    )
    return 0


def _parse_knobs(specs: Optional[List[str]]) -> Optional[dict]:
    """Parse repeated ``JOB:KEY=VALUE`` --knob flags into {job: {key: value}}.

    Values parse as int, then float, then bool literals, then plain strings —
    matching the JSON scalar types job kwargs serialize to.
    """
    if not specs:
        return None
    knobs: dict = {}
    for spec in specs:
        job, sep, assignment = spec.partition(":")
        key, eq, raw = assignment.partition("=")
        if not sep or not eq or not job or not key:
            raise ValueError(f"--knob expects JOB:KEY=VALUE, got {spec!r}")
        from repro.workloads import resolve_application

        job = resolve_application(job)  # stored job names are canonical
        value: object
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = {"true": True, "false": False}.get(raw.lower(), raw)
        knobs.setdefault(job, {})[key] = value
    return knobs


def _run_report(args: argparse.Namespace) -> int:
    from repro.analysis.reports import build_report

    path = Path(args.store)
    if not path.is_file():
        print(
            f"error: result store {args.store!r} does not exist; populate one with "
            f"'dragonfly-sim sweep --store {args.store}' or "
            f"'dragonfly-sim run <scenario> --store {args.store}'",
            file=sys.stderr,
        )
        return 2
    try:
        with ResultStore(path) as store:
            text = build_report(
                store,
                args.name,
                fmt=args.fmt,
                routing=args.routing,
                seed=getattr(args, "seed", None),
                scale=getattr(args, "scale", None),
                placement=args.placement,
                start_time=args.start_time,
                knobs=_parse_knobs(args.knob),
                fidelity=args.fidelity,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except sqlite3.DatabaseError as exc:
        print(f"error: {args.store!r} is not a readable result store: {exc}", file=sys.stderr)
        return 2
    if args.output:
        target = Path(args.output)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.name} report to {args.output}")
    else:
        print(text)
    return 0


def _run_scenarios(args: argparse.Namespace) -> int:
    if args.name:
        print(get_scenario(args.name).to_json())
        return 0
    rows = []
    for name in scenario_names():
        scenario = get_scenario(name)
        rows.append(
            {
                "name": name,
                "jobs": "+".join(spec.name for spec in scenario.jobs),
                "routing": scenario.config.routing.algorithm,
                "placement": scenario.placement,
                "nodes": scenario.config.system.num_nodes,
            }
        )
    print(format_table(rows, ["name", "jobs", "routing", "placement", "nodes"]))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        return _run_table1(args)
    if args.command == "pairwise":
        return _run_pairwise(args)
    if args.command == "mixed":
        return _run_mixed(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "run":
        return _run_run(args)
    if args.command == "trace":
        if args.trace_command == "record":
            return _run_trace_record(args)
        return _run_trace_replay(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "scenarios":
        return _run_scenarios(args)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
