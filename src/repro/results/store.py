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


def _comparable_key(run: "StoredResult") -> Tuple[str, str, str]:
    """Config axes two *different* experiment families must share to be
    compared against each other: message-volume scale(s), placement, system
    shape and simulation knobs (job sets legitimately differ, seeds are the
    aggregation axis)."""
    sim = {k: v for k, v in run.scenario.get("sim", {}).items() if k != "seed"}
    return (
        frozenset(run.job_scales()),
        run.placement,
        json.dumps(run.scenario.get("system"), sort_keys=True),
        json.dumps(sim, sort_keys=True),
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
    if len({_comparable_key(run) for run in runs}) > 1:
        raise ValueError(
            f"the stored {what} runs disagree on scale/placement/system "
            "configuration, so their comparison would mix experiments; "
            "narrow the selection (e.g. --scale/--placement/--seed) so one "
            "configuration remains"
        )
    if not runs:
        return
    shared = set.intersection(*(set(run.job_ranks()) for run in runs))
    for name in sorted(shared):
        variants = {
            (
                run.job_ranks()[name],
                json.dumps(
                    next(j for j in run.scenario["jobs"] if j["name"] == name).get("kwargs", {}),
                    sort_keys=True,
                ),
            )
            for run in runs
        }
        if len(variants) > 1:
            raise ValueError(
                f"the stored {what} runs disagree on job {name!r}'s rank count "
                "or kwargs, so their comparison would mix experiments; narrow "
                "the selection (e.g. --knob/--scale/--seed) so one "
                "configuration remains"
            )


def ensure_uniform(runs: Sequence["StoredResult"], what: str) -> None:
    """Reject run sets that span more than one experiment configuration.

    Cross-run aggregation (the reports' mean over seeds) is only meaningful
    when every run shares one configuration — job sizes and scales, routing,
    placement, the system shape and the simulation knobs (everything except
    the seed); blending e.g. benchmark-scale and full-scale runs, two
    routing algorithms, or two system sizes would produce numbers that
    describe no single experiment.  Raises ``ValueError`` naming the
    filters that disambiguate.
    """
    shapes = set()
    for run in runs:
        sim = {k: v for k, v in run.scenario.get("sim", {}).items() if k != "seed"}
        shapes.add(
            (
                tuple(sorted(run.job_ranks().items())),
                # Full per-job kwargs (not just scale): runs differing only
                # in a pattern knob (hot_fraction, duty_cycle, …) describe
                # different experiments and must never be averaged.
                run.job_kwargs_key(),
                run.job_start_times(),
                run.routing,
                run.placement,
                json.dumps(run.scenario.get("system"), sort_keys=True),
                json.dumps(sim, sort_keys=True),
            )
        )
    if len(shapes) > 1:
        raise ValueError(
            f"the {len(runs)} stored {what} runs span {len(shapes)} different "
            "job-size/kwargs/arrival/routing/placement/system/sim "
            "configurations; narrow the selection (e.g. --routing/--placement/"
            "--scale/--seed/--start-time/--knob/--fidelity) so one "
            "configuration remains"
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
        scales = set(run.job_scales())
        scale_hint = f" --scale {scales.pop()}" if len(scales) == 1 else ""
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

    def job_scales(self) -> Tuple[float, ...]:
        """Per-job message-volume ``scale`` kwargs (1.0 when unset)."""
        return tuple(
            float(job.get("kwargs", {}).get("scale", 1.0)) for job in self.scenario["jobs"]
        )

    def job_start_times(self) -> Tuple[float, ...]:
        """Per-job arrival times in ns (0.0 when not staggered)."""
        return tuple(
            float(job.get("start_time", 0.0)) for job in self.scenario["jobs"]
        )

    def job_offered_loads(self) -> Tuple[Optional[float], ...]:
        """Per-job continuous-injection offered loads (None = fixed-length job)."""
        return tuple(
            (
                float(job.get("kwargs", {})["offered_load"])
                if job.get("kwargs", {}).get("offered_load") is not None
                else None
            )
            for job in self.scenario["jobs"]
        )

    def window(self) -> Tuple[float, Optional[float]]:
        """``(warmup_ns, measurement_ns)`` of the run (``(0.0, None)`` = unwindowed).

        These sim knobs are serialized only when non-default, so pre-window
        stored runs read back as unwindowed.
        """
        sim = self.scenario.get("sim", {})
        measurement = sim.get("measurement_ns")
        return (
            float(sim.get("warmup_ns", 0.0)),
            float(measurement) if measurement is not None else None,
        )

    def fidelity(self) -> str:
        """Simulation fidelity of the run (``"packet"``/``"flow"``).

        The fidelity sim knob is serialized only when non-default, so every
        pre-fidelity stored run reads back as packet-level — which is exactly
        what it was.
        """
        return str(self.scenario.get("sim", {}).get("fidelity", "packet"))

    def job_kwargs_key(self) -> Tuple[str, ...]:
        """Canonical per-job kwargs (hashable), the knob-identity of the run."""
        return tuple(
            json.dumps(job.get("kwargs", {}), sort_keys=True)
            for job in self.scenario["jobs"]
        )

    def job_ranks(self) -> Dict[str, int]:
        """Job name -> rank count, from the stored scenario description."""
        return {job["name"]: int(job["num_ranks"]) for job in self.scenario["jobs"]}


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

#: SQL expression of a metrics row's flat key, :func:`join_metric` in SQL.
_METRIC_KEY_SQL = f"CASE app WHEN '' THEN metric ELSE metric || '{METRIC_SEP}' || app END"


def _chunks(keys: Sequence[str]) -> List[Sequence[str]]:
    return [keys[start:start + _IN_CHUNK] for start in range(0, len(keys), _IN_CHUNK)]


def _marks(chunk: Sequence[str]) -> str:
    return ",".join("?" * len(chunk))


def filter_runs(
    runs: Iterable[StoredResult],
    application: Optional[str] = None,
    scale: Optional[float] = None,
    start_time: Optional[float] = None,
    knobs: Optional[Dict[str, Dict[str, object]]] = None,
    offered_load: Optional[float] = None,
    fidelity: Optional[str] = None,
) -> List[StoredResult]:
    """The ``runs`` matching every given filter (None = wildcard), in order.

    These are the filters of :meth:`ResultStore.runs` that read the stored
    scenario description rather than an indexed column; a report that reads
    several families in one query narrows each family with them.
    """
    results = list(runs)
    if application is not None:
        results = [r for r in results if application in r.jobs]
    if scale is not None:
        results = [r for r in results if all(s == scale for s in r.job_scales())]
    if start_time is not None:
        results = [r for r in results if max(r.job_start_times()) == start_time]
    if knobs:
        results = [r for r in results if _knobs_match(r, knobs)]
    if offered_load is not None:
        results = [
            r
            for r in results
            if {load for load in r.job_offered_loads() if load is not None}
            == {float(offered_load)}
        ]
    if fidelity is not None:
        from repro.flow import resolve_fidelity

        wanted = resolve_fidelity(fidelity)
        results = [r for r in results if r.fidelity() == wanted]
    return results


def _knobs_match(run: StoredResult, knobs: Dict[str, Dict[str, object]]) -> bool:
    """Whether ``run`` carries every requested per-job kwarg value.

    A job that omitted a knob counts as carrying the knob's constructor
    default (so ``--knob hotspot:hot_fraction=0.25`` matches the preset
    runs, which never spelled the default out).  Numeric values compare as
    floats (``0.9`` matches a stored ``0.9`` int or float alike);
    everything else compares by equality.
    """
    import inspect

    from repro.workloads import application_kwarg_default

    stored = {job["name"]: job.get("kwargs", {}) for job in run.scenario["jobs"]}
    for job, wanted in knobs.items():
        kwargs = stored.get(job)
        if kwargs is None:
            return False
        for key, value in wanted.items():
            have = kwargs.get(key, inspect.Parameter.empty)
            if have is inspect.Parameter.empty:
                have = application_kwarg_default(job, key)
            if have is inspect.Parameter.empty:
                return False
            if isinstance(value, (int, float)) and isinstance(have, (int, float)):
                if float(have) != float(value):
                    return False
            elif have != value:
                return False
    return True


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
        routing: Optional[str] = None,
        placement: Optional[str] = None,
        seed: Optional[int] = None,
        application: Optional[str] = None,
        scale: Optional[float] = None,
        start_time: Optional[float] = None,
        knobs: Optional[Dict[str, Dict[str, object]]] = None,
        offered_load: Optional[float] = None,
        fidelity: Optional[str] = None,
    ) -> List[StoredResult]:
        """Stored runs matching every given filter (None = wildcard).

        ``application`` selects runs that include the named job;
        ``scale`` selects runs whose every job has that message-volume scale;
        ``start_time`` selects runs whose *latest* job arrival equals it
        (``0.0`` keeps only simultaneous-arrival runs);
        ``knobs`` — ``{job: {kwarg: value}}`` — selects runs whose stored
        job carries exactly those kwarg values (``{"hotspot":
        {"hot_fraction": 0.9}}``), which is how one cell of a
        ``job_knobs`` sweep is singled out;
        ``offered_load`` selects runs whose every continuous-injection job
        offers exactly that load (runs without a continuous job never match),
        which is how one point of an offered-load sweep is singled out;
        ``fidelity`` selects runs of one simulation fidelity
        (``"packet"`` also matches every pre-fidelity stored run).
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
        if routing is not None:
            clauses.append("routing = ?")
            params.append(routing)
        if placement is not None:
            clauses.append("placement = ?")
            params.append(placement)
        if seed is not None:
            clauses.append("seed = ?")
            params.append(int(seed))
        query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY name, routing, placement, seed"
        rows = self._conn.execute(query, params).fetchall()
        metrics = self._metrics_for([row[0] for row in rows])
        return filter_runs(
            [self._load(row, metrics.get(row[0], {})) for row in rows],
            application=application,
            scale=scale,
            start_time=start_time,
            knobs=knobs,
            offered_load=offered_load,
            fidelity=fidelity,
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

        Each row carries the run's identity axes plus ``app`` (None for
        scenario-level metrics), ``metric`` and ``value``.  ``filters`` are
        the keyword arguments of :meth:`runs`.
        """
        out = []
        for run in self.runs(**filters):
            scales = set(run.job_scales())
            scale = scales.pop() if len(scales) == 1 else None
            start_times = run.job_start_times()
            for key, value in sorted(run.metrics.items()):
                key_metric, app = split_metric(key)
                if metric is not None and key_metric != metric:
                    continue
                out.append(
                    {
                        "scenario_hash": run.scenario_hash,
                        "scenario": run.name,
                        # Scenario family: the name minus any expand_grid
                        # suffix, so seeds of one experiment share it while
                        # different experiments (table1/X vs pairwise/X,
                        # which share a jobs string) do not.
                        "family": run.name.partition("[")[0],
                        "jobs": "+".join(run.jobs),
                        "routing": run.routing,
                        "placement": run.placement,
                        "seed": run.seed,
                        "scale": scale,
                        # Per-job arrival times: (0.0, ...) unless staggered.
                        # A grouping axis so staggered and simultaneous runs
                        # of one family never blend into one statistic.
                        "start_times": start_times,
                        # Canonical per-job kwargs: the knob identity, so
                        # e.g. hot_fraction=0.1 and 0.9 sweeps of one pair
                        # aggregate separately.
                        "job_kwargs": run.job_kwargs_key(),
                        # Per-job continuous-injection loads (None where the
                        # job is fixed-length) and the measurement-window
                        # config: the grouping axes of offered-load sweeps.
                        "offered_loads": run.job_offered_loads(),
                        "window": run.window(),
                        # Simulation fidelity: packet- and flow-level runs of
                        # one family must never blend into one statistic.
                        "fidelity": run.fidelity(),
                        "app": app,
                        "metric": key_metric,
                        "value": value,
                    }
                )
        return out

    def aggregate(
        self,
        metric: str,
        group_by: Sequence[str] = (
            "family", "jobs", "routing", "placement", "scale", "start_times",
            "job_kwargs", "offered_loads", "window", "fidelity", "app",
        ),
        **filters: Any,
    ) -> List[dict]:
        """Aggregate one metric across seeds (or any axis left out of ``group_by``).

        Returns one row per distinct ``group_by`` tuple with ``count``,
        ``mean``, ``std``, ``min``, ``max`` and ``p99`` over the matched
        values — the cross-seed statistics the paper's tables report.  The
        scenario ``family`` (name minus grid suffix), the message-volume
        ``scale``, the per-job arrival times ``start_times``, the per-job
        ``offered_loads``, the measurement ``window`` and the simulation
        ``fidelity`` are grouping axes by default, so different experiments
        that happen to share a jobs string (``table1/FFT3D`` at 24 ranks vs
        ``pairwise/FFT3D`` at 32) — or runs at different volumes, staggered
        arrivals, injection loads, window configs or fidelities — are never
        silently blended into one statistic.
        """
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
