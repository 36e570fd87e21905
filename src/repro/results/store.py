"""Append-only SQLite result store keyed by scenario hash.

:class:`ResultStore` is the persistence layer every experiment result flows
through: the parallel sweep uses it as its cache, the benchmark drivers
record their runs into it, and the report builders
(:mod:`repro.analysis.reports`, ``dragonfly-sim report``) read tables and
figure rows back out of it without re-running a single simulation.

Design:

* **One run = one row** in ``runs``, keyed by
  :func:`~repro.experiments.scenario.scenario_hash` and carrying the
  canonical scenario JSON plus the queryable axes (name, jobs, routing,
  placement, seed).  The stored scenario is compared against the requested
  one on every read, so a hash collision or stale layout degrades to a cache
  miss, never to wrong numbers.
* **Reads take a constant number of statements.**
  :meth:`ResultStore.get_many` looks a whole grid up with one ``runs`` and
  one ``metrics`` statement per 500 distinct hashes (``get`` is its
  one-cell case); a stored text equal to the canonical JSON hits without a
  parse, any other text only if it parses to the same scenario.
  :meth:`ResultStore.runs` is one statement on each table, so a report that
  reads its families under one name prefix costs two statements.  Nothing
  read is cached between calls.
* **Flat metric rows** in ``metrics`` — ``(scenario_hash, app, metric,
  value)`` with ``app = ''`` for scenario-level metrics — produced by
  :func:`repro.results.schema.flatten_run`.  The ``value`` column is
  declared without type affinity so integers round-trip as integers and
  floats as IEEE doubles (bit-exact).
* **Append-only**: :meth:`ResultStore.record` inserts with
  ``INSERT OR IGNORE`` — recorded values are never overwritten; re-recording
  a known scenario only backfills metric rows it did not have yet (how a
  run recorded by older code, with fewer metrics, acquires the current
  ones).  Simulator changes that alter numbers must bump
  :data:`~repro.experiments.scenario.CACHE_VERSION`, which changes every
  hash and orphans (rather than corrupts) old rows.

See ``docs/results.md`` for the on-disk schema and CLI workflows.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.experiments.runner import RunResult

import numpy as np

from repro.experiments.axes import AXES, AXIS
from repro.experiments.axes import filters as axis_filters
from repro.experiments.scenario import CACHE_VERSION, Scenario, scenario_key
from repro.results.schema import METRIC_SEP, join_metric, split_metric

__all__ = [
    "ResultStore",
    "StoredResult",
    "DEFAULT_STORE_PATH",
    "ensure_comparable",
    "ensure_uniform",
    "filter_runs",
    "mean_metric",
]


#: The filters that narrow a run set to one configuration, as the
#: ``dragonfly-sim report`` options that set them.
_NARROW = "narrow the selection (e.g. {}) so one configuration remains".format(
    "/".join(axis.flag for axis in AXES if axis.flag)
)


def ensure_comparable(runs: Sequence["StoredResult"], what: str) -> None:
    """Reject cross-family run sets whose shared config axes disagree.

    Companion to :func:`ensure_uniform` for comparisons *between* families
    (a standalone baseline vs. its co-run): their job sets differ by
    design, but scale, placement, system and simulation knobs must match —
    and any job *present in every run* (the comparison's target) must keep
    the same rank count and kwargs across families — or the derived
    slowdown compares two different experiments.  (Shared-job ``start_time``
    may differ: a staggered co-run is still measured against the
    simultaneous baseline.)
    """
    if len({(run.setting, run.value("scale")) for run in runs}) > 1:
        raise ValueError(
            f"the stored {what} runs disagree on scale/placement/system "
            f"configuration, so their comparison would mix experiments; {_NARROW}"
        )
    if not runs:
        return
    for name in sorted(set.intersection(*(set(run.job_configs) for run in runs))):
        if len({run.job_configs[name] for run in runs}) > 1:
            raise ValueError(
                f"the stored {what} runs disagree on job {name!r}'s rank count "
                f"or kwargs, so their comparison would mix experiments; {_NARROW}"
            )


def ensure_uniform(runs: Sequence["StoredResult"], what: str) -> None:
    """Reject run sets that span more than one experiment configuration.

    Cross-run aggregation (the reports' mean over seeds) is only meaningful
    when every run shares one configuration (:attr:`StoredResult.config`:
    everything except the seed); blending e.g. benchmark-scale and
    full-scale runs, two routing algorithms, or two system sizes would
    produce numbers that describe no single experiment.  Raises
    ``ValueError`` naming the filters that disambiguate.
    """
    shapes = {run.config for run in runs} if len(runs) > 1 else ()
    if len(shapes) > 1:
        raise ValueError(
            f"the {len(runs)} stored {what} runs span {len(shapes)} different "
            "job-size/kwargs/arrival/routing/placement/system/sim "
            f"configurations; {_NARROW}"
        )


def mean_metric(runs: Sequence["StoredResult"], metric: str, app: Optional[str] = None) -> float:
    """Mean of one metric over the ``runs`` that carry it (cross-seed aggregation).

    Runs lacking the metric — a store file is outside input, and a row
    written by older code may carry only coarse metrics — are skipped as
    long as at least one run has it, so a backfill run recorded next to a
    coarse row wins instead of the pair dead-locking the report.  Raises ``ValueError`` when ``runs`` is
    empty or *no* run has the metric, naming the command that backfills it.
    """
    if not runs:
        raise ValueError(f"no stored runs to aggregate metric {join_metric(metric, app)!r} over")
    values = [
        float(value)
        for value in (run.metric(metric, app) for run in runs)
        if value is not None
    ]
    if not values:
        # Grid-expanded names ("base[par,seed=2]") are not runnable by name;
        # point the user at the base scenario + explicit axes, which records
        # under the base name — runs_named and this aggregation pick it up.
        run = runs[0]
        base = run.name.partition("[")[0]
        scale = run.value("scale")
        scale_hint = f" --scale {scale}" if scale is not None else ""
        raise ValueError(
            f"none of the {len(runs)} stored {run.name!r} run(s) has metric "
            f"{join_metric(metric, app)!r}; rows recorded by older code may "
            f"carry only coarse metrics — backfill by re-simulating, e.g. "
            f"'dragonfly-sim run {base} --routing {run.routing} "
            f"--seed {run.seed}{scale_hint} --placement {run.placement} "
            "--store PATH'"
        )
    return float(np.mean(values))

#: Default store location used by the CLI.
DEFAULT_STORE_PATH = ".sweep-cache/results.sqlite"

_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    scenario_hash TEXT PRIMARY KEY,
    name          TEXT NOT NULL,
    jobs          TEXT NOT NULL,
    routing       TEXT NOT NULL,
    placement     TEXT NOT NULL,
    seed          INTEGER NOT NULL,
    cache_version INTEGER NOT NULL,
    scenario_json TEXT NOT NULL,
    wall_seconds  REAL NOT NULL,
    created_at    TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_name ON runs(name);
CREATE INDEX IF NOT EXISTS idx_runs_axes ON runs(routing, placement, seed);
CREATE TABLE IF NOT EXISTS metrics (
    scenario_hash TEXT NOT NULL,
    app           TEXT NOT NULL DEFAULT '',
    metric        TEXT NOT NULL,
    value         NOT NULL,  -- no affinity: ints stay INTEGER, floats stay REAL
    PRIMARY KEY (scenario_hash, app, metric)
) WITHOUT ROWID;
"""


@dataclass(frozen=True)
class StoredResult:
    """One run read back from the store: identity axes + flat metrics.

    ``scenario_json`` is the stored scenario text; :attr:`scenario` parses it
    on first use, so a reader that needs only the metrics (a warm sweep)
    never pays for the parse.
    """

    scenario_hash: str
    name: str
    jobs: Tuple[str, ...]
    routing: str
    placement: str
    seed: int
    scenario_json: str
    metrics: Dict[str, float]
    wall_seconds: float
    created_at: str

    @cached_property
    def scenario(self) -> dict:
        """The stored scenario description, as a plain dict."""
        return json.loads(self.scenario_json)

    def metric(self, metric: str, app: Optional[str] = None) -> Optional[float]:
        """Value of ``metric`` (optionally per-application), or ``None``."""
        return self.metrics.get(join_metric(metric, app))

    def value(self, axis: str) -> Any:
        """The run's value of one axis of :data:`~repro.experiments.axes.AXES`."""
        return AXIS[axis].read(self.scenario)

    @cached_property
    def setting(self) -> str:
        """Canonical JSON of the stored description outside its jobs, without
        the name and without the axes runs are aggregated over (the seed)."""
        doc = {key: value for key, value in self.scenario.items() if key not in ("name", "jobs")}
        for axis in AXES:
            if not axis.group:
                doc = _without(doc, axis.path)
        return json.dumps(doc, sort_keys=True)

    @cached_property
    def job_configs(self) -> Dict[str, str]:
        """Job name -> canonical JSON of the job's description without its
        arrival time: what a job shared by two families must keep."""
        return {
            job["name"]: json.dumps(
                {key: value for key, value in job.items() if key != "start_time"}, sort_keys=True
            )
            for job in self.scenario["jobs"]
        }

    @cached_property
    def config(self) -> Tuple[str, Tuple[Tuple[str, str], ...], Tuple[float, ...]]:
        """The run's configuration: everything but the name and the seed.
        Built once per run, however many checks compare it."""
        starts = tuple(float(job.get("start_time", 0.0)) for job in self.scenario["jobs"])
        return self.setting, tuple(self.job_configs.items()), starts

    def job_ranks(self) -> Dict[str, int]:
        """Job name -> rank count, from the stored scenario description."""
        return {job["name"]: int(job["num_ranks"]) for job in self.scenario["jobs"]}


def _without(doc: dict, path: Tuple[str, ...]) -> dict:
    """``doc`` without the field at ``path`` (a copy; ``doc`` is untouched)."""
    head, *rest = path
    if not rest:
        return {key: value for key, value in doc.items() if key != head}
    return {**doc, head: _without(doc.get(head, {}), tuple(rest))}


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _describes(stored_json: str, canonical: str) -> bool:
    """Whether a stored scenario document is the scenario whose canonical
    JSON is ``canonical``: equal text, or text that parses to the same
    canonical form (the same document spelled differently)."""
    return stored_json == canonical or _canonical(json.loads(stored_json)) == canonical


#: Bound parameters per ``IN (...)`` statement: SQLite caps them (999
#: historically), so long key lists are read in chunks well below that.
_IN_CHUNK = 500

#: Axes the ``runs`` table also holds as (indexed) columns: filtered in SQL.
_AXIS_COLUMNS = ("routing", "placement", "seed")

#: SQL expression of a metrics row's flat key, :func:`join_metric` in SQL.
_METRIC_KEY_SQL = f"CASE app WHEN '' THEN metric ELSE metric || '{METRIC_SEP}' || app END"


def _chunks(keys: Sequence[str]) -> List[Sequence[str]]:
    return [keys[start:start + _IN_CHUNK] for start in range(0, len(keys), _IN_CHUNK)]


def _marks(chunk: Sequence[str]) -> str:
    return ",".join("?" * len(chunk))


def filter_runs(
    runs: Iterable[StoredResult], application: Optional[str] = None, **filters: Any
) -> List[StoredResult]:
    """The ``runs`` matching every given filter (None = wildcard), in order.

    ``application`` selects runs that include the named job; ``filters``
    name axes of :data:`~repro.experiments.axes.AXES` and match the value a
    run's stored description holds, canonicalized as the write side does.
    """
    wanted = axis_filters(filters)
    return [
        run
        for run in runs
        if (application is None or application in run.jobs)
        and all(axis.matches(axis.read(run.scenario), value) for axis, value in wanted)
    ]


class ResultStore:
    """Append-only store of experiment results in a single SQLite file.

    ``path`` may be a filesystem path (parent directories are created) or
    ``":memory:"`` for an ephemeral store.  The store is safe for one writer
    plus any number of readers; all sweep writes happen in the parent
    process, so no cross-process write coordination is needed.
    """

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        # Concurrent sweeps may share one store file: WAL lets readers and
        # the writer overlap, and a generous busy timeout rides out another
        # process's write transaction instead of raising "database is locked".
        self._conn.execute("PRAGMA busy_timeout = 30000")
        if self.path != ":memory:":
            self._conn.execute("PRAGMA journal_mode = WAL")
        self._conn.executescript(_SCHEMA)
        self._conn.execute(
            "INSERT OR IGNORE INTO meta(key, value) VALUES ('schema_version', ?)",
            (str(_SCHEMA_VERSION),),
        )
        self._conn.commit()

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the underlying SQLite connection."""
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __len__(self) -> int:
        (count,) = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(count)

    def __contains__(self, scenario: Scenario) -> bool:
        return self.get(scenario) is not None

    # --------------------------------------------------------------- writing
    def record(self, scenario: Scenario, metrics: Dict[str, float], wall_seconds: float = 0.0) -> bool:
        """Append one result; returns whether the *run* was newly recorded.

        The store is append-only at the metric level: existing values are
        never overwritten, but re-recording a known scenario fills in any
        metric rows it did not have yet.  That is what rescues runs recorded
        by older code with only coarse metrics — simulating the scenario
        once with the current code backfills the per-application metrics the
        reports need.  The one exception to
        append-only: a row whose stored scenario JSON describes a different
        scenario (a stale serialization under the same hash) is replaced
        wholesale, so a re-simulated cell heals the store instead of being
        discarded forever.  A row that lookups serve — the same document,
        even if spelled differently — is kept and only backfilled.  Metric
        keys follow
        :mod:`repro.results.schema`.
        """
        key, canonical = scenario_key(scenario)
        # Provenance metadata only: the creation timestamp is never hashed,
        # never keyed on, and never fed back into a simulation.
        # reprolint: disable=REP102 -- wall-clock provenance timestamp
        created = datetime.now(timezone.utc).isoformat(timespec="seconds")
        run_row = (
            key,
            scenario.name,
            "+".join(spec.name for spec in scenario.jobs),
            scenario.config.routing.algorithm,
            scenario.placement,
            scenario.config.seed,
            CACHE_VERSION,
            canonical,
            float(wall_seconds),
            created,
        )
        with self._conn:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO runs VALUES (?,?,?,?,?,?,?,?,?,?)", run_row
            )
            inserted = cursor.rowcount > 0
            if not inserted:
                stored = self._conn.execute(
                    "SELECT scenario_json FROM runs WHERE scenario_hash = ?", (key,)
                ).fetchone()
                if stored is None or not _describes(stored[0], canonical):
                    # The row under this hash describes a different scenario
                    # — in practice a stale layout, not a real sha256
                    # collision.  Self-heal: the freshly simulated
                    # result is authoritative, so replace the stale row
                    # wholesale (otherwise get() keeps missing and every
                    # sweep re-simulates this cell forever).
                    self._conn.execute("DELETE FROM metrics WHERE scenario_hash = ?", (key,))
                    self._conn.execute("DELETE FROM runs WHERE scenario_hash = ?", (key,))
                    self._conn.execute(
                        "INSERT INTO runs VALUES (?,?,?,?,?,?,?,?,?,?)", run_row
                    )
                    inserted = True
            rows = []
            for metric_key, value in metrics.items():
                metric, app = split_metric(metric_key)
                rows.append((key, app or "", metric, value))
            self._conn.executemany("INSERT OR IGNORE INTO metrics VALUES (?,?,?,?)", rows)
        return inserted

    def record_run(self, scenario: Scenario, result: "RunResult") -> bool:
        """Flatten a :class:`~repro.experiments.runner.RunResult` and record it."""
        from repro.results.schema import flatten_run

        return self.record(scenario, flatten_run(result), result.wall_seconds)

    # --------------------------------------------------------------- reading
    def get(self, scenario: Scenario) -> Optional[StoredResult]:
        """Stored result of ``scenario``, or None: the one-cell :meth:`get_many`."""
        return self.get_many([scenario])[0]

    def get_many(self, scenarios: Sequence[Scenario]) -> List[Optional[StoredResult]]:
        """Stored result of every scenario, in input order (None = miss).

        One ``runs`` and one ``metrics`` statement per 500 distinct hashes,
        however many cells the grid has.  The stored scenario JSON must match
        the requested canonical form: byte-equal text hits without further
        work, other text is parsed and compared canonically, so an equivalent
        document still hits while a hash collision or stale serialization
        reads as a miss.  Duplicate cells share one result.
        """
        keys = [scenario_key(scenario) for scenario in scenarios]
        rows: Dict[str, tuple] = {}
        for chunk in _chunks(list(dict.fromkeys(hash_ for hash_, _ in keys))):
            rows.update(
                (row[0], row)
                for row in self._conn.execute(
                    f"SELECT * FROM runs WHERE scenario_hash IN ({_marks(chunk)})", chunk
                )
            )
        hits = [
            hash_ in rows and _describes(rows[hash_][7], canonical)  # 7: scenario_json
            for hash_, canonical in keys
        ]
        hit_hashes = list(dict.fromkeys(hash_ for (hash_, _), hit in zip(keys, hits) if hit))
        metrics = self._metrics_for(hit_hashes)
        loaded = {hash_: self._load(rows[hash_], metrics.get(hash_, {})) for hash_ in hit_hashes}
        return [loaded[hash_] if hit else None for (hash_, _), hit in zip(keys, hits)]

    def runs(
        self,
        name: Optional[str] = None,
        name_prefix: Optional[str] = None,
        application: Optional[str] = None,
        **filters: Any,
    ) -> List[StoredResult]:
        """Stored runs matching every given filter (None = wildcard).

        ``application`` selects runs that include the named job.  Every
        other keyword names an axis of :data:`~repro.experiments.axes.AXES`
        (``routing``, ``placement``, ``seed``, ``scale``, ``start_time``,
        ``knobs``, ``offered_load``, ``fidelity``, ``warmup_ns``,
        ``measurement_ns``) and selects the runs holding that value: the
        runs a grid or ``with_updates`` wrote with it (see the "Axes" table
        of docs/scenarios.md).  ``knobs`` — ``{job: {kwarg: value}}`` —
        matches a job carrying those kwarg values, a knob it omits counting
        as its constructor default.
        """
        query = "SELECT * FROM runs"
        # Rows written before a CACHE_VERSION bump are orphaned, not served:
        # selecting by name would otherwise blend old-simulator numbers into
        # the reports' cross-seed means.
        clauses: List[str] = ["cache_version = ?"]
        params: List[Any] = [CACHE_VERSION]
        if name is not None:
            clauses.append("name = ?")
            params.append(name)
        if name_prefix is not None:
            # Exact-case prefix match (LIKE would fold ASCII case).
            clauses.append("substr(name, 1, ?) = ?")
            params.extend((len(name_prefix), name_prefix))
        rest = {}
        for axis, value in axis_filters(filters):
            if axis.name in _AXIS_COLUMNS:
                clauses.append(f"{axis.name} = ?")
                params.append(value)
            else:
                rest[axis.name] = value
        query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY name, routing, placement, seed"
        rows = self._conn.execute(query, params).fetchall()
        metrics = self._metrics_for([row[0] for row in rows])
        return filter_runs(
            [self._load(row, metrics.get(row[0], {})) for row in rows], application, **rest
        )

    def runs_named(self, base: str, **filters: Any) -> List[StoredResult]:
        """Runs named exactly ``base`` or a grid expansion ``base[...]``.

        :func:`~repro.experiments.scenario.expand_grid` renames expanded
        scenarios ``base[par,seed=2]``, so both forms describe the same
        experiment family.  ``filters`` are the keyword arguments of
        :meth:`runs`.
        """
        return [
            run
            for run in self.runs(name_prefix=base, **filters)
            if run.name == base or run.name.startswith(base + "[")
        ]

    def rows(self, metric: Optional[str] = None, **filters: Any) -> List[dict]:
        """Flat result rows: one dict per (run, application, metric).

        Each row carries the run's identity (``scenario_hash``, ``scenario``,
        ``family`` — the name minus any ``expand_grid`` suffix, so seeds of
        one experiment share it while ``table1/X`` and ``pairwise/X`` do not
        — and ``jobs``), its value of every axis of
        :data:`~repro.experiments.axes.AXES` (``knobs`` pairs each job with
        its canonical kwargs), plus ``app`` (None for scenario-level
        metrics), ``metric`` and ``value``.  ``filters`` are the keyword
        arguments of :meth:`runs`.
        """
        out = []
        for run in self.runs(**filters):
            identity = {
                "scenario_hash": run.scenario_hash,
                "scenario": run.name,
                "family": run.name.partition("[")[0],
                "jobs": "+".join(run.jobs),
                **{axis.name: axis.read(run.scenario) for axis in AXES},
            }
            for key, value in sorted(run.metrics.items()):
                key_metric, app = split_metric(key)
                if metric is None or key_metric == metric:
                    out.append({**identity, "app": app, "metric": key_metric, "value": value})
        return out

    def aggregate(
        self, metric: str, group_by: Optional[Sequence[str]] = None, **filters: Any
    ) -> List[dict]:
        """Aggregate one metric across seeds (or any axis left out of ``group_by``).

        Returns one row per distinct ``group_by`` tuple with ``count``,
        ``mean``, ``std``, ``min``, ``max`` and ``p99`` over the matched
        values — the cross-seed statistics the paper's tables report.  The
        default groups by ``family``, ``jobs``, ``app`` and every axis but
        the seed, so different experiments that happen to share a jobs
        string (``table1/FFT3D`` at 24 ranks vs ``pairwise/FFT3D`` at 32) —
        or runs at different volumes, staggered arrivals, knobs, injection
        loads, windows or fidelities — are never silently blended into one
        statistic.
        """
        if group_by is None:
            group_by = ("family", "jobs", *(axis.name for axis in AXES if axis.group), "app")
        groups: Dict[tuple, List[float]] = {}
        for row in self.rows(metric=metric, **filters):
            key = tuple(row[field] for field in group_by)
            groups.setdefault(key, []).append(float(row["value"]))
        out = []
        for key in sorted(groups, key=lambda k: tuple(str(part) for part in k)):
            values = np.asarray(groups[key], dtype=float)
            row = dict(zip(group_by, key))
            row.update(
                {
                    "metric": metric,
                    "count": int(values.size),
                    "mean": float(values.mean()),
                    "std": float(values.std()),
                    "min": float(values.min()),
                    "max": float(values.max()),
                    "p99": float(np.percentile(values, 99)),
                }
            )
            out.append(row)
        return out

    # --------------------------------------------------------------- helpers
    def _metrics_for(self, hashes: Sequence[str]) -> Dict[str, Dict[str, float]]:
        """Metrics of many runs, one query per 500 hashes: hash -> flat metrics.

        SQLite builds the flat ``metric[/app]`` keys, so no row goes through
        :func:`~repro.results.schema.join_metric`.
        """
        out: Dict[str, Dict[str, float]] = {}
        for chunk in _chunks(hashes):
            for hash_, key, value in self._conn.execute(
                f"SELECT scenario_hash, {_METRIC_KEY_SQL}, value FROM metrics "
                f"WHERE scenario_hash IN ({_marks(chunk)})",
                chunk,
            ):
                out.setdefault(hash_, {})[key] = value
        return out

    @staticmethod
    def _load(row: tuple, metrics: Dict[str, float]) -> StoredResult:
        (hash_, name, jobs, routing, placement, seed, _version, scenario_json, wall, created) = row
        return StoredResult(
            scenario_hash=hash_,
            name=name,
            jobs=tuple(jobs.split("+")),
            routing=routing,
            placement=placement,
            seed=int(seed),
            scenario_json=scenario_json,
            metrics=metrics,
            wall_seconds=float(wall),
            created_at=created,
        )
