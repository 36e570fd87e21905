"""Command-line interface: ``dragonfly-sim``.

Five subcommands cover the study's workflow — describe a run as a scenario,
execute it, tabulate the stored results:

* ``sweep``     — fan one or more scenarios (library names, globs over the
  library such as ``'table1/*'``, or JSON files) across routing/placement/
  seed/... grid axes and worker processes, cached through the persistent
  result store (see docs/sweep.md);
* ``run``       — execute scenario(s) from the built-in library or a
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

The paper's tables are a sweep plus a report, e.g. ``dragonfly-sim sweep
--scenario 'table1/*' --routings par`` then ``dragonfly-sim report table1``.
``--seed``/``--scale`` are accepted both before and after the subcommand,
and ``run``/``sweep`` accept ``--dump-scenario PATH`` to capture the
invocation as a reusable scenario JSON file instead of simulating.

Exit status: 0 when the command did what it was asked; 1 when a ``sweep``
cell failed (the other cells' rows still print); 2 on bad input — an
unknown scenario or option value, an unreadable file or store, an
unwritable output path — reported as one ``error: ...`` line on stderr
before anything is simulated where the input allows it.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import sqlite3
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Type

from repro.analysis.reports import OUTPUT_FORMATS, format_table
from repro.experiments.axes import AXES, AXIS, Axis
from repro.experiments.runner import RunResult
from repro.experiments.scenario import (
    Scenario,
    dump_scenarios,
    expand_grid,
    get_scenario,
    load_scenarios,
    scenario_names,
)
from repro.results import DEFAULT_STORE_PATH, ResultStore

__all__ = ["build_parser", "main"]


def _option(axis: Axis) -> Optional[str]:
    """The axis's one-value option: its ``report`` filter or, for an axis
    ``sweep`` overrides rather than expands (the window), that option."""
    return axis.flag or (None if axis.grid else next(iter(axis.sweep), None))


def _add_axis_options(
    parser: argparse.ArgumentParser, axes: Sequence[str], role: str, **kwargs: Any
) -> None:
    """Add the one-value option of each of ``axes``; ``role`` starts its help."""
    for axis in (AXIS[name] for name in axes):
        parser.add_argument(
            _option(axis), type=axis.type, metavar=axis.metavar,
            help=f"{role} {axis.help}", **{**axis.options, **kwargs},
        )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    # Shared options live on a parent parser attached to the main parser AND
    # to every subparser, so "dragonfly-sim run table1/UR --seed 3" and
    # "dragonfly-sim --seed 3 run table1/UR" both work.  Defaults are
    # SUPPRESS so a subparser's (unset) copy never clobbers a value parsed
    # earlier; readers test hasattr() or getattr() with a default.
    common = argparse.ArgumentParser(add_help=False)
    _add_axis_options(common, _SHARED_AXES, "the", default=argparse.SUPPRESS)
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

    sweep = sub.add_parser(
        "sweep", parents=[common, capture],
        help="parallel scenario grid (routing x placement x seed)",
    )
    sweep.set_defaults(handler=_run_sweep)
    sweep.add_argument(
        "--scenario", nargs="+", required=True, metavar="REF",
        help="base scenario(s) to sweep across the grid axes: library names, "
             "globs over the library (e.g. 'table1/*', 'mixed/*') or JSON "
             "files — pairwise and mixed scenarios sweep exactly like "
             "standalone ones",
    )
    for axis in AXES:
        if axis.grid and axis.sweep:
            sweep.add_argument(
                *axis.sweep, nargs="+", dest=axis.grid, type=axis.type, metavar=axis.metavar,
                help=f"sweep the grid across these values of the {axis.help} "
                     "(default: the base scenario's)",
            )
    _add_axis_options(sweep, [a.name for a in AXES if a.sweep and not a.grid], "override the")
    sweep.add_argument(
        "--fail-fast", action="store_true",
        help="abort the sweep on the first failing cell instead of finishing "
             "the rest of the grid and summarizing failures at the end",
    )
    sweep.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="worker processes (default: all cores)")
    sweep.add_argument(
        "--store", default=None, metavar="PATH",
        help=f"SQLite result store used as the sweep cache (default "
             f"{DEFAULT_STORE_PATH}; '' disables caching; see docs/results.md)",
    )

    run = sub.add_parser(
        "run", parents=[common, capture],
        help="run a scenario by library name or from a JSON file",
    )
    run.set_defaults(handler=_run_run)
    run.add_argument(
        "scenario",
        help="scenario name (see 'dragonfly-sim scenarios'), a glob over the "
             "library (e.g. 'table1/*') or path to a scenario JSON file",
    )
    _add_axis_options(run, _RUN_AXES, "override the")
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
    trace_record.set_defaults(handler=_run_trace_record)
    trace_record.add_argument(
        "scenario",
        help="scenario name (see 'dragonfly-sim scenarios') or path to a "
             "scenario JSON file describing a single scenario",
    )
    trace_record.add_argument("--output", "-o", default="traces", metavar="DIR",
                              help="directory for the .trace.jsonl files (default: traces/)")
    trace_record.add_argument("--job", default=None, metavar="NAME",
                              help="only write the trace of this job (default: every job)")
    _add_axis_options(trace_record, _TRACE_AXES, "record under this")
    trace_replay = trace_sub.add_parser(
        "replay", parents=[common],
        help="re-execute a recorded trace file as a 'trace' job",
    )
    trace_replay.set_defaults(handler=_run_trace_replay)
    trace_replay.add_argument("trace", help="trace file (.trace.jsonl) written by 'trace record'")
    _add_axis_options(trace_replay, _TRACE_AXES, "replay under this")
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
    report.set_defaults(handler=_run_report)
    report.add_argument(
        "name",
        help="report name: table1, table2, mixed, "
             "pairwise/<Target>+<Background>, synthetic/<Target>, "
             "loadcurve/<pattern> (latency vs offered load, per routing), "
             "ml/<pattern>, or trace/<name>",
    )
    report.add_argument("--store", default=str(DEFAULT_STORE_PATH), metavar="PATH",
                        help=f"result store to read (default {DEFAULT_STORE_PATH})")
    report.add_argument("--format", dest="fmt", choices=list(OUTPUT_FORMATS), default="table",
                        help="output format (default: aligned plain-text table)")
    _add_axis_options(
        report, [a.name for a in AXES if a.flag and a.name not in _SHARED_AXES],
        "only consider runs with this",
    )
    report.add_argument("--output", "-o", default=None, metavar="FILE",
                        help="write the report to FILE instead of stdout")

    scenarios = sub.add_parser("scenarios",
                               help="list the built-in scenario library (or describe one)")
    scenarios.set_defaults(handler=_run_scenarios)
    scenarios.add_argument("name", nargs="?", default=None,
                           help="print this scenario's JSON description instead of the list")
    return parser


class _InputError(Exception):
    """Bad input: ``main`` prints ``error: <message>`` and exits 2."""


@contextmanager
def _bad_input(
    prefix: str = "", suffix: str = "",
    errors: Tuple[Type[Exception], ...] = (ValueError, OSError, sqlite3.DatabaseError),
) -> Iterator[None]:
    """Re-raise ``errors`` from the block as ``_InputError(prefix + message + suffix)``.

    Wrap only the input boundary (parsing, files, stores), never a
    simulation: a defect there must keep its traceback.
    """
    try:
        yield
    except errors as exc:
        raise _InputError(f"{prefix}{exc}{suffix}") from exc


@contextmanager
def _store(path: str, access: str) -> Iterator[ResultStore]:
    """The result store at ``path``, open for the block; failing to open it, or
    a database error inside the block, is bad input naming the file."""
    prefix = f"{path!r} is not a {access} result store: "
    with _bad_input(prefix, errors=(sqlite3.DatabaseError, OSError)):
        store = ResultStore(path)
    with store, _bad_input(prefix, errors=(sqlite3.DatabaseError,)):
        yield store


def _resolve_scenarios(
    refs: Sequence[str], overrides: Optional[dict] = None
) -> List[Scenario]:
    """Scenarios behind ``refs`` (JSON file paths, library names or library
    globs), with ``{axis: value}`` ``overrides`` applied.

    A glob (``'table1/*'``) expands to every matching library name, in
    sorted order.  A reference that does not resolve (an unknown name, a
    glob matching nothing, an invalid scenario file) or a rejected override
    value is bad input.
    """
    scenarios: List[Scenario] = []
    with _bad_input():
        for ref in refs:
            if ref.endswith(".json") or Path(ref).is_file():
                scenarios.extend(load_scenarios(ref))
            elif any(char in ref for char in "*?["):
                matched = fnmatch.filter(scenario_names(), ref)
                if not matched:
                    raise ValueError(
                        f"no scenario in the library matches {ref!r}; list the "
                        "library with 'dragonfly-sim scenarios'"
                    )
                scenarios.extend(get_scenario(name) for name in matched)
            else:
                scenarios.append(get_scenario(ref))
        keywords = {AXIS[name].keyword: value for name, value in (overrides or {}).items()}
        return [s.with_updates(**keywords) for s in scenarios] if keywords else scenarios


#: Axes whose one-value option every subcommand shares (``--seed 3 run
#: ...`` and ``run ... --seed 3`` alike), and those ``run`` and ``trace``
#: override; ``report`` filters by every axis option, and ``sweep`` expands
#: the grid axes and overrides the rest.
_SHARED_AXES = ("seed", "scale")
_RUN_AXES = ("routing", "placement", "fidelity")
_TRACE_AXES = ("routing", "placement")


def _given(args: argparse.Namespace) -> dict:
    """``{axis: value}`` of each axis option given (``ResultStore.runs`` filters).

    Unset options are ``None`` or, for the shared ``--seed``/``--scale``
    (``argparse.SUPPRESS``), absent; a subcommand without an axis's option
    never yields it.
    """
    given = {}
    for axis in AXES:
        option = _option(axis)
        value = getattr(args, option[2:].replace("-", "_"), None) if option else None
        if value is not None:
            given[axis.name] = axis.parse(value)
    return given


def _dumped(args: argparse.Namespace, scenarios: List[Scenario]) -> bool:
    """Write ``scenarios`` to ``--dump-scenario``'s path, if given; whether it was."""
    path = getattr(args, "dump_scenario", None)  # SUPPRESS: absent when unset
    if path is None:
        return False
    with _bad_input(f"cannot write {path!r}: "):
        dump_scenarios(path, scenarios)
    label = scenarios[0].name if len(scenarios) == 1 else f"{len(scenarios)} scenarios"
    print(f"wrote {label} to {path} (replay with: dragonfly-sim run {path})")
    return True


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import SweepError, SweepResult, run_sweep

    # One value of a grid axis (--seed) is a one-cell axis: only the axes
    # the user passed are expanded, everything else keeps the base value.
    overrides = _given(args)
    axes = {}
    for axis in AXES:
        if axis.grid and axis.sweep:
            one = overrides.pop(axis.name, None)
            axes[axis.grid] = getattr(args, axis.grid) or (None if one is None else [one])
    bases = _resolve_scenarios(args.scenario, overrides)
    with _bad_input():
        grid = expand_grid(bases, **axes)
    if _dumped(args, grid):
        return 0

    def progress(done: int, total: int, result: SweepResult) -> None:
        origin = "cache" if result.cached else f"{result.wall_seconds:.1f}s"
        print(f"[{done}/{total}] {result.scenario.name} ({origin})", file=sys.stderr)

    # --store '' disables caching outright; an unset --store falls back to
    # the default store.
    store = None if args.store == "" else (args.store or str(DEFAULT_STORE_PATH))
    columns = ["scenario", "jobs", "routing", "placement", "seed",
               "makespan_ns", "mean_comm_time_ns", "total_port_stall_ns", "cached"]
    try:
        with _bad_input(
            f"result store {store!r} is unreadable (",
            "); delete the file to start a fresh cache, or pass --store '' to sweep uncached",
            errors=(sqlite3.DatabaseError,),
        ):
            results = run_sweep(grid, workers=args.workers, store=store,
                                progress=progress, fail_fast=args.fail_fast)
    except SweepError as exc:
        # Failed cells abort nothing: the completed rows still print (failed
        # ones carry an `error` column), the failure summary goes to stderr,
        # and the exit code says the sweep was not clean.
        print(format_table([r.as_row() for r in exc.results], columns + ["error"]))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_table([r.as_row() for r in results], columns))
    return 0


def _run_and_record(
    scenarios: List[Scenario], store_path: Optional[str]
) -> Iterator[Tuple[Scenario, RunResult]]:
    """Run each of ``scenarios`` and record it into the store at ``store_path``;
    yields each run as it finishes, so only one result is alive at a time.

    A store that does not open is bad input, found before anything runs; a
    write that fails is a warning, after which recording stops but the runs
    go on, so their results still print.
    """
    recorded = 0
    with ExitStack() as stack:
        store = stack.enter_context(_store(store_path, "writable")) if store_path else None
        for scenario in scenarios:
            result = scenario.run()
            if store is not None:
                try:
                    recorded += bool(store.record_run(scenario, result))
                except sqlite3.DatabaseError as exc:
                    # e.g. a foreign DB whose table layout clashes with ours.
                    print(f"warning: could not record into {store_path!r}: {exc}",
                          file=sys.stderr)
                    store = None
            yield scenario, result
    if store_path:
        already = len(scenarios) - recorded
        note = (f" ({already} already stored; any missing metrics were backfilled)"
                if already else "")
        print(f"recorded {recorded} new run(s) into {store_path}{note}", file=sys.stderr)


def _run_run(args: argparse.Namespace) -> int:
    scenarios = _resolve_scenarios([args.scenario], _given(args))
    if _dumped(args, scenarios):
        return 0
    rows = []
    for scenario, result in _run_and_record(scenarios, args.store):
        comm = [float(job.record.mean_comm_time) for job in result.jobs.values()]
        rows.append({
            "scenario": scenario.name,
            "jobs": "+".join(spec.name for spec in scenario.jobs),
            "routing": scenario.config.routing.algorithm,
            "placement": scenario.placement,
            "seed": scenario.config.seed,
            "fidelity": result.fidelity,
            "makespan_ns": result.makespan_ns,
            "mean_comm_time_ns": sum(comm) / len(comm),
        })
    print(format_table(rows))
    return 0


def _run_trace_record(args: argparse.Namespace) -> int:
    from repro.traces import record_scenario, trace_hash

    scenarios = _resolve_scenarios([args.scenario], _given(args))
    if len(scenarios) != 1:
        raise _InputError(
            f"{args.scenario!r} describes {len(scenarios)} scenarios; "
            "'trace record' records one at a time"
        )
    (scenario,) = scenarios
    jobs = sorted(spec.name for spec in scenario.jobs)
    if args.job is not None and args.job not in jobs:
        raise _InputError(
            f"scenario {scenario.name!r} has no job {args.job!r}; its jobs are {jobs}"
        )
    outdir = Path(args.output)
    with _bad_input(f"cannot write traces to {args.output!r}: "):
        outdir.mkdir(parents=True, exist_ok=True)
    _, traces = record_scenario(scenario)
    stem = scenario.name.replace("/", "-")
    for job_name in [args.job] if args.job is not None else jobs:
        trace = traces[job_name]
        path = outdir / f"{stem}.{job_name}.trace.jsonl"
        trace.dump(path)
        print(
            f"wrote {path} ({trace.op_count} ops, hash {trace_hash(trace)}; "
            f"replay with: dragonfly-sim trace replay {path})"
        )
    return 0


def _run_trace_replay(args: argparse.Namespace) -> int:
    from repro.traces import replay_scenario

    if hasattr(args, "scale"):
        raise _InputError(
            "--scale does not apply to trace replay (a trace fixes every "
            "message size; re-record at the new scale instead)"
        )
    with _bad_input(f"cannot replay {args.trace!r}: "):  # TraceError is a ValueError
        scenario = replay_scenario(args.trace, name=args.name, **_given(args))
    ((scenario, result),) = _run_and_record([scenario], args.store)
    record = result.record("trace")
    print(format_table([{
        "scenario": scenario.name,
        "routing": scenario.config.routing.algorithm,
        "placement": scenario.placement,
        "seed": scenario.config.seed,
        "makespan_ns": result.makespan_ns,
        "comm_time_ns": float(record.mean_comm_time),
        "total_msg_bytes": float(record.total_bytes_sent),
    }]))
    return 0


def _run_report(args: argparse.Namespace) -> int:
    from repro.analysis.reports import build_report

    if not Path(args.store).is_file():
        raise _InputError(
            f"result store {args.store!r} does not exist; populate one with "
            f"'dragonfly-sim sweep --store {args.store}' or "
            f"'dragonfly-sim run <scenario> --store {args.store}'"
        )
    with _store(args.store, "readable") as store, _bad_input(errors=(ValueError,)):
        text = build_report(store, args.name, fmt=args.fmt, **_given(args))
    if args.output:
        target = Path(args.output)
        with _bad_input(f"cannot write {args.output!r}: "):
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text + "\n")
        print(f"wrote {args.name} report to {args.output}")
    else:
        print(text)
    return 0


def _run_scenarios(args: argparse.Namespace) -> int:
    if args.name:
        with _bad_input():
            scenario = get_scenario(args.name)
        print(scenario.to_json())
        return 0
    rows = []
    for name in scenario_names():
        scenario = get_scenario(name)
        rows.append({
            "name": name,
            "jobs": "+".join(spec.name for spec in scenario.jobs),
            "routing": scenario.config.routing.algorithm,
            "placement": scenario.placement,
            "nodes": scenario.config.system.num_nodes,
        })
    print(format_table(rows, ["name", "jobs", "routing", "placement", "nodes"]))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: 0 ok, 1 a failed sweep cell, 2 bad input."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
