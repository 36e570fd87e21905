"""Report generation: render tables and figure rows as text, CSV or Markdown.

Two kinds of entry point live here:

* **renderers** — :func:`format_table` (aligned plain text),
  :func:`format_csv`, :func:`format_markdown` and the :func:`render_rows`
  dispatcher turn a list of dict rows into a string;
* **store-backed report builders** — :func:`table1_rows`,
  :func:`table2_rows` and (via :mod:`repro.analysis.pairwise` /
  :mod:`repro.analysis.mixed`) the pairwise/mixed comparison rows read a
  populated :class:`~repro.results.ResultStore` and rebuild the paper's
  tables **without launching a single simulation**.  :func:`build_report`
  dispatches on a report name and backs the ``dragonfly-sim report``
  subcommand (see docs/results.md).
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.results import ResultStore

__all__ = [
    "OUTPUT_FORMATS",
    "build_report",
    "format_csv",
    "format_markdown",
    "format_table",
    "loadcurve_rows",
    "ml_rows",
    "render_rows",
    "report_names",
    "synthetic_rows",
    "synthetic_standalone_rows",
    "table1_rows",
    "table2_rows",
    "trace_rows",
]

#: Column schemas of the store-backed reports.
TABLE1_COLUMNS = [
    "pattern",
    "app",
    "total_msg_bytes",
    "execution_time_ns",
    "injection_rate_gbps",
    "peak_ingress_bytes",
]
TABLE2_COLUMNS = [
    "app",
    "paper_nodes",
    "paper_fraction",
    "bench_nodes",
    "bench_fraction",
    "comm_time_ns",
]
PAIRWISE_COLUMNS = [
    "routing",
    "target",
    "background",
    "standalone_comm_ns",
    "interfered_comm_ns",
    "slowdown",
    "variation",
]
MIXED_COLUMNS = [
    "routing",
    "app",
    "standalone_comm_ns",
    "interfered_comm_ns",
    "slowdown",
    "variation",
]
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


# ------------------------------------------------- store-backed report builders
def table1_rows(
    store: "ResultStore",
    routing: Optional[str] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    placement: Optional[str] = None,
    start_time: Optional[float] = None,
    knobs: Optional[Dict[str, Dict[str, object]]] = None,
    fidelity: Optional[str] = None,
) -> List[dict]:
    """Table I rows (application communication intensity) from a result store.

    Selects the stored ``table1/<App>`` standalone runs (optionally narrowed
    by routing/seed/scale/fidelity), aggregates each metric across the
    matching runs (mean over seeds), and returns one row per application.
    No simulation is launched.  Raises ``ValueError`` on an unpopulated
    store.
    """
    from repro.results.store import ensure_uniform, mean_metric
    from repro.workloads import APPLICATIONS

    by_app: Dict[str, list] = {}
    for run in store.runs(
        name_prefix="table1/", routing=routing, seed=seed, scale=scale,
        placement=placement, start_time=start_time, knobs=knobs,
        fidelity=fidelity,
    ):
        if len(run.jobs) == 1:
            by_app.setdefault(run.jobs[0], []).append(run)
    if not by_app:
        raise ValueError(
            "no table1/<App> runs in the store; populate it with e.g. "
            "'dragonfly-sim run table1/FFT3D --store PATH' or "
            "'dragonfly-sim sweep --scenario table1/FFT3D --store PATH'"
        )
    rows = []
    for app in sorted(by_app):
        runs = by_app[app]
        ensure_uniform(runs, f"table1/{app}")
        rows.append(
            {
                "pattern": APPLICATIONS[app].pattern,
                "app": app,
                "total_msg_bytes": mean_metric(runs, "total_msg_bytes", app),
                "execution_time_ns": mean_metric(runs, "execution_time_ns", app),
                "injection_rate_gbps": mean_metric(runs, "injection_rate_gbps", app),
                "peak_ingress_bytes": mean_metric(runs, "peak_ingress_bytes", app),
            }
        )
    return rows


def table2_rows(
    store: "ResultStore",
    routing: Optional[str] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    placement: Optional[str] = None,
    start_time: Optional[float] = None,
    knobs: Optional[Dict[str, Dict[str, object]]] = None,
    fidelity: Optional[str] = None,
) -> List[dict]:
    """Table II rows (mixed-workload job sizes + measured comm time) from a store.

    Job sizes come from the stored ``mixed/table2`` scenario description and
    are compared against the paper's 1,056-node Table II proportions;
    ``comm_time_ns`` is each application's mean communication time in the
    mix, aggregated across the matching runs.
    """
    from repro.experiments.configs import PAPER_TABLE2_JOB_SIZES
    from repro.results.store import ensure_uniform, mean_metric

    runs = store.runs_named(
        "mixed/table2", routing=routing, seed=seed, scale=scale,
        placement=placement, start_time=start_time, knobs=knobs,
        fidelity=fidelity,
    )
    if not runs:
        raise ValueError(
            "no mixed/table2 runs in the store; populate it with "
            "'dragonfly-sim sweep --scenario mixed/table2 --store PATH'"
        )
    ensure_uniform(runs, "mixed/table2")
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


def synthetic_rows(
    store: "ResultStore",
    target: str,
    routings: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    placement: Optional[str] = None,
    start_time: Optional[float] = None,
    knobs: Optional[Dict[str, Dict[str, object]]] = None,
    fidelity: Optional[str] = None,
) -> List[dict]:
    """Synthetic-background comparison rows for one target — no simulation.

    For every synthetic pattern with a stored ``pairwise/<target>+<pattern>``
    co-run, builds the Fig. 4-style comparison against the stored
    ``pairwise/<target>`` baseline (one row per pattern × routing).  This is
    the ``dragonfly-sim report synthetic/<Target>`` table: how much each
    traffic pattern slows the target down, side by side.
    """
    from repro.analysis.pairwise import comparison_rows
    from repro.workloads import SYNTHETIC_PATTERNS, resolve_application

    target = resolve_application(target)
    # One prefix query discovers every stored background family; the names
    # are either "pairwise/<T>+<p>" or a grid expansion "...[axis,...]".
    prefix = f"pairwise/{target}+"
    present = {
        run.name[len(prefix):].partition("[")[0]
        for run in store.runs(
            name_prefix=prefix,
            seed=seed, scale=scale, placement=placement, start_time=start_time,
            knobs=knobs, fidelity=fidelity,
        )
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
        rows.extend(
            comparison_rows(
                store, target, pattern,
                routings=routings, seed=seed, scale=scale, placement=placement,
                start_time=start_time, knobs=knobs, fidelity=fidelity,
            )
        )
    rows.sort(key=lambda row: (row["background"], row["routing"]))
    return rows


def synthetic_standalone_rows(
    store: "ResultStore",
    pattern: str,
    routing: Optional[str] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    placement: Optional[str] = None,
    start_time: Optional[float] = None,
    knobs: Optional[Dict[str, Dict[str, object]]] = None,
    fidelity: Optional[str] = None,
) -> List[dict]:
    """Intensity rows of one standalone synthetic pattern, per routing.

    Reads the stored ``synthetic/<pattern>`` runs (the registered standalone
    presets) and renders Table I-style intensity columns — this is what
    ``dragonfly-sim report synthetic/hotspot`` means when the name after
    ``synthetic/`` is a pattern rather than a target application.
    """
    from repro.results.store import ensure_uniform, mean_metric

    runs = store.runs_named(
        f"synthetic/{pattern}",
        routing=routing, seed=seed, scale=scale, placement=placement,
        start_time=start_time, knobs=knobs, fidelity=fidelity,
    )
    if not runs:
        raise ValueError(
            f"no stored synthetic/{pattern} runs; populate the store with "
            f"'dragonfly-sim run synthetic/{pattern} --store PATH'"
        )
    rows = []
    for algo in sorted({run.routing for run in runs}):
        matched = [run for run in runs if run.routing == algo]
        ensure_uniform(matched, f"synthetic/{pattern}")
        rows.append(
            {
                "routing": algo,
                "pattern": pattern,
                "app": pattern,
                "total_msg_bytes": mean_metric(matched, "total_msg_bytes", pattern),
                "execution_time_ns": mean_metric(matched, "execution_time_ns", pattern),
                "injection_rate_gbps": mean_metric(matched, "injection_rate_gbps", pattern),
                "peak_ingress_bytes": mean_metric(matched, "peak_ingress_bytes", pattern),
            }
        )
    return rows


def ml_rows(
    store: "ResultStore",
    pattern: str,
    routing: Optional[str] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    placement: Optional[str] = None,
    start_time: Optional[float] = None,
    knobs: Optional[Dict[str, Dict[str, object]]] = None,
    fidelity: Optional[str] = None,
) -> List[dict]:
    """Intensity rows of one standalone ML-collective pattern, per routing.

    Reads the stored ``ml/<pattern>`` runs (the registered standalone
    presets — see :func:`repro.experiments.scenario.ml_scenario`) and renders
    Table I-style intensity columns, one row per routing algorithm.  This is
    ``dragonfly-sim report ml/ring_allreduce``; interference of an ML pattern
    against a target goes through the usual pairwise machinery
    (``report pairwise/<Target>+ml.<pattern>``).
    """
    from repro.results.store import ensure_uniform, mean_metric
    from repro.workloads import ML_COLLECTIVES, resolve_application

    app = resolve_application(pattern if pattern.startswith("ml.") else f"ml.{pattern}")
    if app not in ML_COLLECTIVES:
        raise ValueError(
            f"{pattern!r} is not an ML-collective pattern; ml reports cover "
            f"{sorted(ML_COLLECTIVES)}"
        )
    short = app.split(".", 1)[1]
    runs = store.runs_named(
        f"ml/{short}",
        routing=routing, seed=seed, scale=scale, placement=placement,
        start_time=start_time, knobs=knobs, fidelity=fidelity,
    )
    if not runs:
        raise ValueError(
            f"no stored ml/{short} runs; populate the store with "
            f"'dragonfly-sim run ml/{short} --store PATH'"
        )
    rows = []
    for algo in sorted({run.routing for run in runs}):
        matched = [run for run in runs if run.routing == algo]
        ensure_uniform(matched, f"ml/{short}")
        rows.append(
            {
                "routing": algo,
                "pattern": ML_COLLECTIVES[app].pattern,
                "app": app,
                "total_msg_bytes": mean_metric(matched, "total_msg_bytes", app),
                "execution_time_ns": mean_metric(matched, "execution_time_ns", app),
                "injection_rate_gbps": mean_metric(matched, "injection_rate_gbps", app),
                "peak_ingress_bytes": mean_metric(matched, "peak_ingress_bytes", app),
            }
        )
    return rows


def trace_rows(
    store: "ResultStore",
    name: str,
    routing: Optional[str] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    placement: Optional[str] = None,
    start_time: Optional[float] = None,
    knobs: Optional[Dict[str, Dict[str, object]]] = None,
    fidelity: Optional[str] = None,
) -> List[dict]:
    """Intensity rows of stored trace-replay runs, per routing.

    Reads the runs stored under ``trace/<name>`` (the default scenario name
    :func:`repro.traces.replay_scenario` gives a replay of app ``<name>``)
    and renders Table I-style intensity columns per routing algorithm.  The
    replayed job is always named ``trace`` in the run's per-app metrics.
    Backs ``dragonfly-sim report trace/<name>``.
    """
    from repro.results.store import ensure_uniform, mean_metric

    runs = store.runs_named(
        f"trace/{name}",
        routing=routing, seed=seed, scale=scale, placement=placement,
        start_time=start_time, knobs=knobs, fidelity=fidelity,
    )
    if not runs:
        raise ValueError(
            f"no stored trace/{name} runs; populate the store with "
            f"'dragonfly-sim trace replay PATH.trace.jsonl --store PATH'"
        )
    rows = []
    for algo in sorted({run.routing for run in runs}):
        matched = [run for run in runs if run.routing == algo]
        ensure_uniform(matched, f"trace/{name}")
        rows.append(
            {
                "routing": algo,
                "pattern": "trace-replay",
                "app": name,
                "total_msg_bytes": mean_metric(matched, "total_msg_bytes", "trace"),
                "execution_time_ns": mean_metric(matched, "execution_time_ns", "trace"),
                "injection_rate_gbps": mean_metric(matched, "injection_rate_gbps", "trace"),
                "peak_ingress_bytes": mean_metric(matched, "peak_ingress_bytes", "trace"),
            }
        )
    return rows


def loadcurve_rows(
    store: "ResultStore",
    pattern: str,
    routings: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    placement: Optional[str] = None,
    start_time: Optional[float] = None,
    knobs: Optional[Dict[str, Dict[str, object]]] = None,
    offered_load: Optional[float] = None,
    fidelity: Optional[str] = None,
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
    (``warmup+measurement``); ``start_time`` narrows to one arrival stagger
    like the other reports.
    """
    from repro.results.store import ensure_uniform, mean_metric
    from repro.workloads import SYNTHETIC_PATTERNS, resolve_application

    pattern = resolve_application(pattern)
    if pattern not in SYNTHETIC_PATTERNS:
        raise ValueError(
            f"{pattern!r} is not a synthetic pattern; loadcurve reports cover "
            f"{sorted(SYNTHETIC_PATTERNS)}"
        )
    runs = store.runs_named(
        f"loadcurve/{pattern}",
        seed=seed, scale=scale, placement=placement, start_time=start_time,
        knobs=knobs, offered_load=offered_load, fidelity=fidelity,
    )
    if routings is not None:
        runs = [run for run in runs if run.routing in routings]
    if not runs:
        raise ValueError(
            f"no stored loadcurve/{pattern} runs; populate the store with e.g. "
            f"'dragonfly-sim sweep --scenario loadcurve/{pattern} "
            f"--offered-loads 0.1 0.4 0.7 --store PATH'"
        )
    groups: Dict[tuple, list] = {}
    for run in runs:
        loads = {load for load in run.job_offered_loads() if load is not None}
        if len(loads) != 1:
            continue  # not a single-load steady-state run
        # Fidelity is a grouping axis: packet- and flow-level points of one
        # pattern trace *separate* curves (flow latencies are message-level
        # approximations), never one blended statistic.
        key = (
            run.routing, loads.pop(), run.window(), run.job_start_times(),
            run.fidelity(),
        )
        groups.setdefault(key, []).append(run)
    rows = []
    # Stringify the window for ordering: a warmup-only config carries
    # measurement_ns=None, which floats refuse to compare against.
    for routing, load, window, _starts, fidelity in sorted(
        groups, key=lambda k: (k[0], k[1], tuple(str(part) for part in k[2]), k[3], k[4])
    ):
        matched = groups[(routing, load, window, _starts, fidelity)]
        ensure_uniform(matched, f"loadcurve/{pattern}")
        warmup, measurement = window
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


def report_names() -> List[str]:
    """Names ``build_report`` accepts (pairwise reports are parameterized)."""
    return [
        "table1",
        "table2",
        "mixed",
        "pairwise/<Target>+<Background>",
        "synthetic/<Target>",
        "synthetic/<pattern>",
        "loadcurve/<pattern>",
        "ml/<pattern>",
        "trace/<name>",
    ]


def build_report(
    store: "ResultStore",
    name: str,
    fmt: str = "table",
    routing: Optional[str] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    placement: Optional[str] = None,
    start_time: Optional[float] = None,
    knobs: Optional[Dict[str, Dict[str, object]]] = None,
    fidelity: Optional[str] = None,
) -> str:
    """Build a named report from a result store, rendered in ``fmt``.

    ``name`` is ``table1``, ``table2``, ``mixed`` (the Fig. 10 interference
    rows), ``pairwise/<Target>+<Background>`` (``pairwise/<Target>`` for
    the standalone baseline row), ``synthetic/<Target>`` (the target
    against every stored synthetic background), ``loadcurve/<pattern>``
    (the steady-state latency-vs-offered-load curve, one row per routing ×
    load), ``ml/<pattern>`` (standalone ML-collective intensity per routing)
    or ``trace/<name>`` (stored trace-replay intensity per routing).
    ``routing``/``seed``/``scale``/``placement``/``fidelity`` narrow the
    stored runs considered; metrics are aggregated (mean) across whatever
    still matches.  ``fidelity`` disambiguates stores holding packet- and
    flow-level runs of one scenario (see docs/fidelity.md): the two are
    different approximations and are never averaged together.  Backs
    ``dragonfly-sim report``.
    """
    if routing is not None:
        # Stored runs carry canonical algorithm names; accept the same
        # aliases the sweep that populated them accepted ("ugalg" etc.).
        from repro.routing import resolve_algorithm

        routing = resolve_algorithm(routing)
    routings = [routing] if routing is not None else None
    if name == "table1":
        title = "Table I — application communication intensity"
        rows = table1_rows(
            store, routing=routing, seed=seed, scale=scale, placement=placement,
            start_time=start_time, knobs=knobs, fidelity=fidelity,
        )
        columns = TABLE1_COLUMNS
    elif name in ("table2", "mixed/table2"):
        title = "Table II — mixed workload job sizes and communication time"
        rows = table2_rows(
            store, routing=routing, seed=seed, scale=scale, placement=placement,
            start_time=start_time, knobs=knobs, fidelity=fidelity,
        )
        columns = TABLE2_COLUMNS
    elif name == "mixed":
        from repro.analysis.mixed import mixed_rows_from_store

        title = "Mixed workload — per-application interference (Fig. 10)"
        rows = mixed_rows_from_store(
            store, routings=routings, seed=seed, scale=scale, placement=placement,
            start_time=start_time, knobs=knobs, fidelity=fidelity,
        )
        columns = MIXED_COLUMNS
    elif name.startswith("pairwise/"):
        from repro.analysis.pairwise import comparison_rows

        pair = name[len("pairwise/"):]
        target, _, background = pair.partition("+")
        if not target:
            raise ValueError("pairwise report needs a target: pairwise/<Target>+<Background>")
        title = f"Pairwise interference — {pair} (Fig. 4)"
        rows = comparison_rows(
            store, target, background or None,
            routings=routings, seed=seed, scale=scale, placement=placement,
            start_time=start_time, knobs=knobs, fidelity=fidelity,
        )
        columns = PAIRWISE_COLUMNS
    elif name.startswith("loadcurve/"):
        pattern = name[len("loadcurve/"):]
        if not pattern:
            raise ValueError("loadcurve report needs a pattern: loadcurve/<pattern>")
        title = f"Steady-state latency vs offered load — {pattern}"
        rows = loadcurve_rows(
            store, pattern, routings=routings, seed=seed, scale=scale,
            placement=placement, start_time=start_time, knobs=knobs,
            fidelity=fidelity,
        )
        columns = LOADCURVE_COLUMNS
    elif name.startswith("ml/"):
        pattern = name[len("ml/"):]
        if not pattern:
            raise ValueError("ml report needs a pattern: ml/<pattern>")
        title = f"ML-collective intensity — {pattern} (standalone)"
        rows = ml_rows(
            store, pattern, routing=routing, seed=seed, scale=scale,
            placement=placement, start_time=start_time, knobs=knobs,
            fidelity=fidelity,
        )
        columns = ["routing"] + TABLE1_COLUMNS
    elif name.startswith("trace/"):
        replay = name[len("trace/"):]
        if not replay:
            raise ValueError("trace report needs a name: trace/<name>")
        title = f"Trace replay intensity — {replay}"
        rows = trace_rows(
            store, replay, routing=routing, seed=seed, scale=scale,
            placement=placement, start_time=start_time, knobs=knobs,
            fidelity=fidelity,
        )
        columns = ["routing"] + TABLE1_COLUMNS
    elif name.startswith("synthetic/"):
        from repro.workloads import SYNTHETIC_PATTERNS, resolve_application

        target = name[len("synthetic/"):]
        if not target:
            raise ValueError(
                "synthetic report needs a name: synthetic/<Target> (interference "
                "against every stored pattern) or synthetic/<pattern> (that "
                "pattern's standalone intensity)"
            )
        # `synthetic/<pattern>` is also a scenario family ("run" stores its
        # standalone runs under that name), so a pattern name here reports
        # those runs rather than treating the pattern as a co-run target.
        if resolve_application(target) in SYNTHETIC_PATTERNS:
            pattern = resolve_application(target)
            title = f"Synthetic pattern intensity — {pattern} (standalone)"
            rows = synthetic_standalone_rows(
                store, pattern, routing=routing, seed=seed, scale=scale,
                placement=placement, start_time=start_time, knobs=knobs,
                fidelity=fidelity,
            )
            columns = ["routing"] + TABLE1_COLUMNS
        else:
            title = f"Synthetic-background interference — {target}"
            rows = synthetic_rows(
                store, target, routings=routings, seed=seed, scale=scale,
                placement=placement, start_time=start_time, knobs=knobs,
                fidelity=fidelity,
            )
            columns = PAIRWISE_COLUMNS
    else:
        raise ValueError(f"unknown report {name!r}; choose from {report_names()}")

    body = render_rows(rows, columns, fmt)
    if fmt == "csv":
        return body
    if fmt == "markdown":
        return f"### {title}\n\n{body}"
    return f"{title}\n{body}"
