"""Report generation: render tables and figure rows as text, CSV or Markdown.

Two kinds of entry point live here:

* **renderers** — :func:`format_table` (aligned plain text),
  :func:`format_csv`, :func:`format_markdown` and the :func:`render_rows`
  dispatcher turn a list of dict rows into a string;
* **store-backed row builders** — :func:`table1_rows`, :func:`table2_rows`,
  :func:`comparison_rows` (Fig. 4), :func:`mixed_rows_from_store` (Fig. 10),
  :func:`synthetic_rows` and :func:`loadcurve_rows` read a populated
  :class:`~repro.results.ResultStore` and rebuild the paper's tables
  **without launching a single simulation**.  Each takes the store, its
  positional argument and the filters of :meth:`ResultStore.runs`, and
  reads every run it needs in one :meth:`ResultStore.runs` call (two SQL
  statements), splitting families apart in Python.
  :func:`build_report` looks a report name up in one table of report kinds
  and backs the ``dragonfly-sim report`` subcommand (see docs/results.md).
"""

from __future__ import annotations

import csv
import io
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.metrics.interference import InterferenceSummary
from repro.results import (
    ResultStore,
    StoredResult,
    ensure_comparable,
    ensure_uniform,
    filter_runs,
    mean_metric,
)
from repro.workloads import (
    APPLICATIONS,
    ML_COLLECTIVES,
    SYNTHETIC_PATTERNS,
    resolve_application,
)

__all__ = [
    "OUTPUT_FORMATS",
    "build_report",
    "comparison_rows",
    "format_csv",
    "format_markdown",
    "format_table",
    "loadcurve_rows",
    "mixed_rows_from_store",
    "render_rows",
    "report_names",
    "synthetic_rows",
    "table1_rows",
    "table2_rows",
]

#: The Table I communication-intensity metrics, in column order.
_INTENSITY_METRICS = [
    "total_msg_bytes",
    "execution_time_ns",
    "injection_rate_gbps",
    "peak_ingress_bytes",
]

#: Column schemas of the store-backed reports.
TABLE1_COLUMNS = ["pattern", "app", *_INTENSITY_METRICS]
TABLE2_COLUMNS = [
    "app",
    "paper_nodes",
    "paper_fraction",
    "bench_nodes",
    "bench_fraction",
    "comm_time_ns",
]
_INTERFERENCE_COLUMNS = ["standalone_comm_ns", "interfered_comm_ns", "slowdown", "variation"]
PAIRWISE_COLUMNS = ["routing", "target", "background", *_INTERFERENCE_COLUMNS]
MIXED_COLUMNS = ["routing", "app", *_INTERFERENCE_COLUMNS]
LOADCURVE_COLUMNS = [
    "routing",
    "pattern",
    "fidelity",
    "offered_load",
    "window_ns",
    "accepted_throughput_gbps",
    "latency_mean_ns",
    "latency_p50_ns",
    "latency_p99_ns",
]

#: Scenario names the Table II and Fig. 10 rows are looked up under.
MIXED_SCENARIO_NAME = "mixed/table2"
MIXED_SOLO_PREFIX = "mixed/solo/"


# ------------------------------------------------------------------ renderers
def format_table(rows: Sequence[dict], columns: Optional[Sequence[str]] = None) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        rendered.append([_format_cell(row.get(c, "")) for c in columns])
    widths = [max(len(r[i]) for r in rendered) for i in range(len(columns))]
    lines = []
    for index, row in enumerate(rendered):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_csv(rows: Sequence[dict], columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as CSV (header + one line per row, raw values)."""
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(c, "") for c in columns])
    return buffer.getvalue().rstrip("\n")


def format_markdown(rows: Sequence[dict], columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as a GitHub-flavoured Markdown table."""
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())
    lines = [
        "| " + " | ".join(str(c) for c in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_format_cell(row.get(c, "")) for c in columns) + " |")
    return "\n".join(lines)


_FORMATS = {"table": format_table, "csv": format_csv, "markdown": format_markdown}

#: Names ``render_rows``/``build_report`` accept — the CLI's --format choices.
OUTPUT_FORMATS = tuple(sorted(_FORMATS))


def render_rows(
    rows: Sequence[dict], columns: Optional[Sequence[str]] = None, fmt: str = "table"
) -> str:
    """Render ``rows`` in one of the supported formats (table/csv/markdown)."""
    try:
        renderer = _FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; choose from {sorted(_FORMATS)}") from None
    return renderer(rows, columns)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        return f"{value:.3f}"
    return str(value)


# ------------------------------------------------------- shared row pieces
def _family(
    runs: Sequence[StoredResult],
    name: str,
    routings: Optional[Sequence[str]] = None,
    populate: str = "",
    label: Optional[str] = None,
) -> Dict[str, List[StoredResult]]:
    """The ``runs`` of scenario family ``name``, grouped by routing.

    A family is the runs named ``name`` or a grid expansion ``name[...]``
    (as :meth:`ResultStore.runs_named`).  With ``routings=None`` the groups
    are the routings present, sorted, and a family with no matching run
    raises ``ValueError`` telling the user to populate the store with
    ``populate`` (``label`` is how the message spells ``name``).  With
    explicit ``routings`` the groups are exactly those routings, possibly
    empty, so the caller can name the missing one.
    """
    groups: Dict[str, List[StoredResult]] = {}
    for run in runs:
        if run.name == name or run.name.startswith(name + "["):
            groups.setdefault(run.routing, []).append(run)
    if routings is not None:
        return {routing: groups.get(routing, []) for routing in routings}
    if not groups:
        raise ValueError(
            f"no stored {label or name} runs; populate the store with {populate}"
        )
    return dict(sorted(groups.items()))


def _corun_and_baseline_runs(
    store: ResultStore,
    prefix: str,
    filters: Dict[str, Any],
    routings: Optional[Sequence[str]] = None,
) -> Tuple[List[StoredResult], List[StoredResult]]:
    """Stored runs named ``prefix...``, read once and narrowed two ways.

    The first list matches every filter: the co-run families.  The second
    is the baselines' view: ``start_time`` and ``knobs`` narrow a co-run to
    one arrival stagger or knob cell, but its baseline is always the
    simultaneous-arrival standalone run (a standalone job delayed into an
    empty network is the same experiment shifted in time).  One requested
    routing narrows the query itself, so other routings' runs are not read.
    """
    shared = {key: value for key, value in filters.items() if key not in ("start_time", "knobs")}
    if routings is not None and len(routings) == 1 and shared.get("routing") is None:
        shared["routing"] = routings[0]
    runs = store.runs(name_prefix=prefix, **shared)
    corun = filter_runs(runs, start_time=filters.get("start_time"), knobs=filters.get("knobs"))
    return corun, filter_runs(runs, start_time=0.0)


def _intensity_row(
    runs: Sequence[StoredResult], what: str, pattern: str, app: str, job: Optional[str] = None
) -> dict:
    """Table I columns of one configuration's ``runs``, averaged over seeds.

    ``job`` is the job name the runs record the metrics under, when it is
    not ``app`` (a trace replay's job is always ``"trace"``).
    """
    ensure_uniform(runs, what)
    return {
        "pattern": pattern,
        "app": app,
        **{metric: mean_metric(runs, metric, job or app) for metric in _INTENSITY_METRICS},
    }


def _standalone_rows(
    store: ResultStore, name: str, populate: str, pattern: str, app: str,
    job: Optional[str] = None, **filters: Any,
) -> List[dict]:
    """One Table I row per routing for the standalone family ``name``."""
    return [
        {"routing": routing, **_intensity_row(runs, name, pattern, app, job)}
        for routing, runs in _family(
            store.runs(name_prefix=name, **filters), name, populate=populate
        ).items()
    ]


def _interference_row(
    app: str,
    baseline: List[StoredResult],
    baseline_name: str,
    interfered: List[StoredResult],
    versus: str,
) -> dict:
    """``app``'s interference summary: co-run ``interfered`` vs ``baseline``.

    The baseline must be one configuration, and it must share scale,
    placement, system and the target's own job with the co-run (``versus``
    names the pair in the error); the caller checks that the co-run is one
    configuration, once for all the rows it feeds.  A baseline compared
    against itself (``interfered is baseline``) is a standalone row with
    slowdown 1.
    """
    ensure_uniform(baseline, baseline_name)
    if interfered is not baseline:
        ensure_comparable(baseline + interfered, versus)
    return InterferenceSummary(
        app=app,
        standalone_comm_ns=mean_metric(baseline, "comm_time_ns", app),
        interfered_comm_ns=mean_metric(interfered, "comm_time_ns", app),
        standalone_std_ns=mean_metric(baseline, "comm_time_std_ns", app),
        interfered_std_ns=mean_metric(interfered, "comm_time_std_ns", app),
    ).as_dict()


# ------------------------------------------------- store-backed row builders
def table1_rows(store: ResultStore, **filters: Any) -> List[dict]:
    """Table I rows (application communication intensity) from a result store.

    Selects the stored ``table1/<App>`` standalone runs (optionally narrowed
    by routing/seed/scale/fidelity), aggregates each metric across the
    matching runs (mean over seeds), and returns one row per application.
    No simulation is launched.  Raises ``ValueError`` on an unpopulated
    store.
    """
    by_app: Dict[str, list] = {}
    for run in store.runs(name_prefix="table1/", **filters):
        if len(run.jobs) == 1:
            by_app.setdefault(run.jobs[0], []).append(run)
    if not by_app:
        raise ValueError(
            "no table1/<App> runs in the store; populate it with e.g. "
            "'dragonfly-sim run table1/FFT3D --store PATH' or "
            "'dragonfly-sim sweep --scenario table1/FFT3D --store PATH'"
        )
    return [
        _intensity_row(by_app[app], f"table1/{app}", APPLICATIONS[app].pattern, app)
        for app in sorted(by_app)
    ]


def table2_rows(store: ResultStore, **filters: Any) -> List[dict]:
    """Table II rows (mixed-workload job sizes + measured comm time) from a store.

    Job sizes come from the stored ``mixed/table2`` scenario description and
    are compared against the paper's 1,056-node Table II proportions;
    ``comm_time_ns`` is each application's mean communication time in the
    mix, aggregated across the matching runs.
    """
    from repro.experiments.configs import PAPER_TABLE2_JOB_SIZES

    runs = store.runs_named(MIXED_SCENARIO_NAME, **filters)
    if not runs:
        raise ValueError(
            f"no {MIXED_SCENARIO_NAME} runs in the store; populate it with "
            f"'dragonfly-sim sweep --scenario {MIXED_SCENARIO_NAME} --store PATH'"
        )
    ensure_uniform(runs, MIXED_SCENARIO_NAME)
    ranks = runs[0].job_ranks()
    total = sum(ranks.values())
    paper_total = float(sum(PAPER_TABLE2_JOB_SIZES.values()))
    rows = []
    for app in ranks:
        paper_nodes = PAPER_TABLE2_JOB_SIZES.get(app)
        rows.append(
            {
                "app": app,
                "paper_nodes": paper_nodes if paper_nodes is not None else "",
                "paper_fraction": paper_nodes / paper_total if paper_nodes else 0.0,
                "bench_nodes": ranks[app],
                "bench_fraction": ranks[app] / total,
                "comm_time_ns": mean_metric(runs, "comm_time_ns", app),
            }
        )
    return rows


def comparison_rows(
    store: ResultStore,
    target: str,
    background: Optional[str],
    routings: Optional[Sequence[str]] = None,
    **filters: Any,
) -> List[dict]:
    """Fig. 4 comparison rows built from a result store — no simulation.

    Looks up the recorded ``pairwise/<target>`` standalone baseline and (when
    ``background`` is given) the ``pairwise/<target>+<background>`` co-run,
    aggregates each metric across the matching seeds, and returns one row per
    routing algorithm: ``routing``, ``target``, ``background`` and the
    :class:`~repro.metrics.interference.InterferenceSummary` columns.
    ``routings=None`` reports every routing present; ``filters`` narrow the
    matched runs.  ``start_time`` narrows the *co-run* family to one
    arrival stagger (``0.0`` = simultaneous), which disambiguates stores
    holding both staggered and simultaneous runs of one pair; the
    comparison's baseline is always the simultaneous-arrival standalone run
    (a standalone job delayed into an empty network is the same experiment
    shifted in time).  With ``background=None`` — a pure baseline report —
    ``start_time`` selects among the standalone runs themselves.  ``knobs``
    (``{job: {kwarg: value}}``) likewise narrows the co-run family to one
    cell of a ``job_knobs`` sweep, e.g. ``{"hotspot": {"hot_fraction":
    0.9}}``.  Raises ``ValueError`` when a required run is missing (populate
    the store with ``dragonfly-sim sweep --scenario pairwise/<T>+<B> --store
    PATH``).
    """
    target = resolve_application(target)
    corun, baseline = _corun_and_baseline_runs(store, f"pairwise/{target}", filters, routings)
    return _comparison(corun, baseline, target, background, routings)


def _comparison(
    corun: Sequence[StoredResult],
    baseline_runs: Sequence[StoredResult],
    target: str,
    background: Optional[str],
    routings: Optional[Sequence[str]],
) -> List[dict]:
    """:func:`comparison_rows` over the runs of ``pairwise/<target>...``
    already read and narrowed by :func:`_corun_and_baseline_runs`."""
    background = resolve_application(background) if background else None
    base_name = f"pairwise/{target}"
    pair_name = f"pairwise/{target}+{background}" if background else base_name
    populate = f"'dragonfly-sim sweep --scenario {pair_name} --store PATH'" + (
        f" (and --scenario {base_name} for the baseline)" if background else ""
    )
    pairs = _family(corun, pair_name, routings, populate=populate, label=repr(pair_name))
    # Fidelity, like every other filter, narrows both families: comparing a
    # flow-level co-run against a packet-level baseline would mix
    # approximations (docs/fidelity.md).
    bases = pairs if background is None else _family(baseline_runs, base_name, list(pairs))
    rows = []
    for routing, interfered in pairs.items():
        baseline = bases[routing]
        for family, runs, role in (
            (base_name, baseline, "baseline"), (pair_name, interfered, "co-run")
        ):
            if not runs:
                raise ValueError(
                    f"no stored {family!r} {role} under routing {routing!r}; populate "
                    f"the store with 'dragonfly-sim sweep --scenario {family} --store PATH'"
                )
        if background:
            ensure_uniform(interfered, pair_name)
        summary = _interference_row(
            target, baseline, base_name, interfered, f"{base_name} vs {pair_name}"
        )
        rows.append(
            {"routing": routing, "target": target, "background": background or "None", **summary}
        )
    return rows


def mixed_rows_from_store(
    store: ResultStore, routings: Optional[Sequence[str]] = None, **filters: Any
) -> List[dict]:
    """Fig. 10 interference rows built from a result store — no simulation.

    For every routing (all present when ``routings=None``), compares each
    application's communication time in the recorded ``mixed/table2`` run
    against its ``mixed/solo/<App>`` standalone baseline, aggregating across
    the matching seeds.  Raises ``ValueError`` when a required run is missing
    (populate the store with ``dragonfly-sim sweep --scenario 'mixed/*'
    --store PATH``, or ``run_sweep(..., store=...)`` over
    :func:`repro.experiments.scenario.mixed_scenario` and
    :func:`~repro.experiments.scenario.mixed_solo_scenarios`).
    """
    populate = f"'dragonfly-sim sweep --scenario {MIXED_SCENARIO_NAME} --store PATH'"
    # start_time/knobs narrow the mix; the solo baselines are always the
    # simultaneous-arrival standalone runs (as in comparison_rows).
    # Every routing is read: which message a missing mix gets depends on
    # whether the store holds it under another routing.
    corun, baseline = _corun_and_baseline_runs(store, "mixed/", filters)
    mixes = _family(corun, MIXED_SCENARIO_NAME, populate=populate, label=repr(MIXED_SCENARIO_NAME))
    rows = []
    for routing in mixes if routings is None else routings:
        mixed = mixes.get(routing)
        if not mixed:
            raise ValueError(
                f"no stored {MIXED_SCENARIO_NAME!r} run under routing {routing!r}"
            )
        ensure_uniform(mixed, MIXED_SCENARIO_NAME)
        for app in mixed[0].jobs:
            solo_name = MIXED_SOLO_PREFIX + app
            solos = _family(baseline, solo_name, [routing])[routing]
            if not solos:
                raise ValueError(
                    f"no stored {solo_name!r} baseline under routing {routing!r}; populate "
                    f"it with 'dragonfly-sim sweep --scenario {solo_name} --store PATH' "
                    "(one per application in the mix)"
                )
            summary = _interference_row(
                app, solos, solo_name, mixed, f"{MIXED_SCENARIO_NAME} vs {solo_name}"
            )
            rows.append({"routing": routing, **summary})
    return rows


def synthetic_rows(
    store: ResultStore,
    target: str,
    routings: Optional[Sequence[str]] = None,
    **filters: Any,
) -> List[dict]:
    """Synthetic-background comparison rows for one target — no simulation.

    For every synthetic pattern with a stored ``pairwise/<target>+<pattern>``
    co-run, builds the Fig. 4-style comparison against the stored
    ``pairwise/<target>`` baseline (one row per pattern × routing).  This is
    the ``dragonfly-sim report synthetic/<Target>`` table: how much each
    traffic pattern slows the target down, side by side.
    """
    target = resolve_application(target)
    corun, baseline = _corun_and_baseline_runs(store, f"pairwise/{target}", filters)
    # The stored background families are named either "pairwise/<T>+<p>"
    # or a grid expansion "...[axis,...]".
    prefix = f"pairwise/{target}+"
    present = {
        run.name[len(prefix):].partition("[")[0] for run in corun if run.name.startswith(prefix)
    }
    found = [pattern for pattern in sorted(SYNTHETIC_PATTERNS) if pattern in present]
    if not found:
        raise ValueError(
            f"no stored pairwise/{target}+<pattern> runs for any synthetic "
            f"pattern ({sorted(SYNTHETIC_PATTERNS)}); populate the store with "
            f"e.g. 'dragonfly-sim run pairwise/{target}+hotspot --store PATH' "
            f"(and 'dragonfly-sim run pairwise/{target} --store PATH' for the baseline)"
        )
    rows: List[dict] = []
    for pattern in found:
        rows.extend(_comparison(corun, baseline, target, pattern, routings))
    rows.sort(key=lambda row: (row["background"], row["routing"]))
    return rows


def loadcurve_rows(
    store: ResultStore,
    pattern: str,
    routings: Optional[Sequence[str]] = None,
    **filters: Any,
) -> List[dict]:
    """Latency-vs-offered-load curve rows for one pattern — no simulation.

    Reads the stored ``loadcurve/<pattern>`` steady-state runs (see
    :func:`repro.experiments.scenario.loadcurve_scenario`), groups them by
    routing algorithm × offered load × measurement window × arrival config,
    aggregates each group across seeds, and returns one row per group sorted
    so each routing algorithm's rows trace its latency-throughput curve.
    Every reported metric is a measurement-window metric: warmup is excluded
    by construction.  A store holding several window configs of one pattern
    yields one row per config, told apart by the ``window_ns`` column
    (``warmup+measurement``) and ordered by warmup, then measurement, with
    an open-ended measurement window last; ``start_time`` narrows to one
    arrival stagger like the other reports.  ``routings`` restricts the
    curve to those algorithms.
    """
    pattern = resolve_application(pattern)
    if pattern not in SYNTHETIC_PATTERNS:
        raise ValueError(
            f"{pattern!r} is not a synthetic pattern; loadcurve reports cover "
            f"{sorted(SYNTHETIC_PATTERNS)}"
        )
    name = f"loadcurve/{pattern}"
    populate = (
        f"e.g. 'dragonfly-sim sweep --scenario {name} "
        f"--offered-loads 0.1 0.4 0.7 --store PATH'"
    )
    groups: Dict[tuple, list] = {}
    family = _family(store.runs(name_prefix=name, **filters), name, routings, populate=populate)
    for routing, runs in family.items():
        for run in runs:
            loads = {load for load in run.job_offered_loads() if load is not None}
            if len(loads) != 1:
                continue  # not a single-load steady-state run
            # Fidelity is a grouping axis: packet- and flow-level points of
            # one pattern trace *separate* curves (flow latencies are
            # message-level approximations), never one blended statistic.
            key = (routing, loads.pop(), run.window(), run.job_start_times(), run.fidelity())
            groups.setdefault(key, []).append(run)

    def order(key: tuple) -> tuple:
        routing, load, (warmup, measurement), starts, fidelity = key
        return (routing, load, warmup, measurement is None, measurement or 0.0, starts, fidelity)

    rows = []
    for key in sorted(groups, key=order):
        routing, load, (warmup, measurement), _starts, fidelity = key
        matched = groups[key]
        ensure_uniform(matched, name)
        # Flow-level runs have no packets: their windowed latency columns
        # come from the message-level analogues (see docs/fidelity.md).
        latency = "measured_message_latency" if fidelity == "flow" else "measured_packet_latency"
        rows.append(
            {
                "routing": routing,
                "pattern": pattern,
                "fidelity": fidelity,
                "offered_load": load,
                "window_ns": f"{warmup:g}+{measurement:g}" if measurement else f"{warmup:g}+",
                "accepted_throughput_gbps": mean_metric(matched, "accepted_throughput_gbps"),
                "latency_mean_ns": mean_metric(matched, f"{latency}_mean_ns"),
                "latency_p50_ns": mean_metric(matched, f"{latency}_p50_ns"),
                "latency_p99_ns": mean_metric(matched, f"{latency}_p99_ns"),
            }
        )
    return rows


# ------------------------------------------------------------ named reports
_Report = Tuple[str, List[str], List[dict]]
_STANDALONE_COLUMNS = ["routing", *TABLE1_COLUMNS]


def _as_routings(filters: dict) -> dict:
    """``filters`` with its ``routing`` turned into the ``routings`` list of
    the multi-routing builders, which name a routing that lacks runs."""
    routing = filters.get("routing")
    rest = {key: value for key, value in filters.items() if key != "routing"}
    return {**rest, "routings": None if routing is None else [routing]}


def _table1_report(store: ResultStore, _: str, filters: dict) -> _Report:
    rows = table1_rows(store, **filters)
    return "Table I — application communication intensity", TABLE1_COLUMNS, rows


def _table2_report(store: ResultStore, _: str, filters: dict) -> _Report:
    rows = table2_rows(store, **filters)
    return "Table II — mixed workload job sizes and communication time", TABLE2_COLUMNS, rows


def _mixed_report(store: ResultStore, _: str, filters: dict) -> _Report:
    rows = mixed_rows_from_store(store, **_as_routings(filters))
    return "Mixed workload — per-application interference (Fig. 10)", MIXED_COLUMNS, rows


def _pairwise_report(store: ResultStore, pair: str, filters: dict) -> _Report:
    target, _, background = pair.partition("+")
    if not target:
        raise ValueError("pairwise report needs a target: pairwise/<Target>+<Background>")
    rows = comparison_rows(store, target, background or None, **_as_routings(filters))
    return f"Pairwise interference — {pair} (Fig. 4)", PAIRWISE_COLUMNS, rows


def _synthetic_report(store: ResultStore, name: str, filters: dict) -> _Report:
    if not name:
        raise ValueError(
            "synthetic report needs a name: synthetic/<Target> (interference "
            "against every stored pattern) or synthetic/<pattern> (that "
            "pattern's standalone intensity)"
        )
    # `synthetic/<pattern>` is also a scenario family ("run" stores its
    # standalone runs under that name), so a pattern name here reports
    # those runs rather than treating the pattern as a co-run target.
    pattern = resolve_application(name)
    if pattern not in SYNTHETIC_PATTERNS:
        rows = synthetic_rows(store, name, **_as_routings(filters))
        return f"Synthetic-background interference — {name}", PAIRWISE_COLUMNS, rows
    family = f"synthetic/{pattern}"
    rows = _standalone_rows(
        store, family, f"'dragonfly-sim run {family} --store PATH'", pattern, pattern, **filters
    )
    return f"Synthetic pattern intensity — {pattern} (standalone)", _STANDALONE_COLUMNS, rows


def _loadcurve_report(store: ResultStore, pattern: str, filters: dict) -> _Report:
    if not pattern:
        raise ValueError("loadcurve report needs a pattern: loadcurve/<pattern>")
    rows = loadcurve_rows(store, pattern, **filters)
    return f"Steady-state latency vs offered load — {pattern}", LOADCURVE_COLUMNS, rows


def _ml_report(store: ResultStore, pattern: str, filters: dict) -> _Report:
    if not pattern:
        raise ValueError("ml report needs a pattern: ml/<pattern>")
    # Interference of an ML pattern against a target goes through the
    # pairwise reports (``pairwise/<Target>+ml.<pattern>``).
    app = resolve_application(pattern if pattern.startswith("ml.") else f"ml.{pattern}")
    if app not in ML_COLLECTIVES:
        raise ValueError(
            f"{pattern!r} is not an ML-collective pattern; ml reports cover "
            f"{sorted(ML_COLLECTIVES)}"
        )
    family = f"ml/{app.split('.', 1)[1]}"
    rows = _standalone_rows(
        store, family, f"'dragonfly-sim run {family} --store PATH'",
        ML_COLLECTIVES[app].pattern, app, **filters,
    )
    return f"ML-collective intensity — {pattern} (standalone)", _STANDALONE_COLUMNS, rows


def _trace_report(store: ResultStore, replay: str, filters: dict) -> _Report:
    if not replay:
        raise ValueError("trace report needs a name: trace/<name>")
    # repro.traces.replay_scenario names a replay of app <name> trace/<name>
    # and its one job "trace".
    rows = _standalone_rows(
        store, f"trace/{replay}", "'dragonfly-sim trace replay PATH.trace.jsonl --store PATH'",
        "trace-replay", replay, "trace", **filters,
    )
    return f"Trace replay intensity — {replay}", _STANDALONE_COLUMNS, rows


#: Report kinds: name prefix -> (argument forms, builder).  A kind with
#: argument forms takes the rest of the report name as its argument
#: (``pairwise/FFT3D+UR`` -> ``FFT3D+UR``); a builder returns the report's
#: ``(title, columns, rows)``.
_REPORTS: Dict[str, Tuple[Tuple[str, ...], Callable[[ResultStore, str, dict], _Report]]] = {
    "table1": ((), _table1_report),
    "table2": ((), _table2_report),
    "mixed": ((), _mixed_report),
    "pairwise/": (("<Target>+<Background>",), _pairwise_report),
    "synthetic/": (("<Target>", "<pattern>"), _synthetic_report),
    "loadcurve/": (("<pattern>",), _loadcurve_report),
    "ml/": (("<pattern>",), _ml_report),
    "trace/": (("<name>",), _trace_report),
}


def report_names() -> List[str]:
    """Names ``build_report`` accepts (``<...>`` marks a report's argument)."""
    return [prefix + form for prefix, (forms, _) in _REPORTS.items() for form in forms or ("",)]


def build_report(store: ResultStore, name: str, fmt: str = "table", **filters: Any) -> str:
    """Build a named report from a result store, rendered in ``fmt``.

    ``name`` is ``table1``, ``table2`` (alias ``mixed/table2``), ``mixed``
    (the Fig. 10 interference rows), ``pairwise/<Target>+<Background>``
    (``pairwise/<Target>`` for the standalone baseline row),
    ``synthetic/<Target>`` (the target against every stored synthetic
    background), ``synthetic/<pattern>`` (that pattern's standalone
    intensity per routing), ``loadcurve/<pattern>`` (the steady-state
    latency-vs-offered-load curve, one row per routing × load),
    ``ml/<pattern>`` (standalone ML-collective intensity per routing) or
    ``trace/<name>`` (stored trace-replay intensity per routing).
    ``filters`` (the keyword arguments of
    :meth:`~repro.results.ResultStore.runs`: ``routing``, ``seed``,
    ``scale``, ``placement``, ``start_time``, ``knobs``, ``fidelity``, …)
    narrow the stored runs considered; metrics are aggregated (mean) across
    whatever still matches.  ``fidelity`` disambiguates stores holding
    packet- and flow-level runs of one scenario (see docs/fidelity.md): the
    two are different approximations and are never averaged together.
    Backs ``dragonfly-sim report``.
    """
    if filters.get("routing") is not None:
        # Stored runs carry canonical algorithm names; accept the same
        # aliases the sweep that populated them accepted ("ugalg" etc.).
        from repro.routing import resolve_algorithm

        filters["routing"] = resolve_algorithm(filters["routing"])
    kind = "table2" if name == MIXED_SCENARIO_NAME else name
    for prefix, (forms, builder) in _REPORTS.items():
        if kind.startswith(prefix) if forms else kind == prefix:
            title, columns, rows = builder(store, kind[len(prefix):], filters)
            break
    else:
        raise ValueError(f"unknown report {name!r}; choose from {report_names()}")

    body = render_rows(rows, columns, fmt)
    if fmt == "csv":
        return body
    if fmt == "markdown":
        return f"### {title}\n\n{body}"
    return f"{title}\n{body}"
