"""Declarative scenarios: one serializable description for every experiment.

A :class:`Scenario` is the single canonical description of one simulation
run — a name, the hardware (:class:`~repro.config.SystemConfig`), the routing
selection (:class:`~repro.config.RoutingConfig`), the experiment-level knobs
(seed, protocol thresholds, stop conditions), a placement policy and a list
of :class:`~repro.experiments.configs.AppSpec` jobs.  Everything else in the
experiment layer is defined in terms of it:

* ``Scenario.run()`` executes one scenario and returns its
  :class:`~repro.experiments.runner.RunResult`;
* :func:`repro.experiments.sweep.run_sweep` fans lists of scenarios across
  worker processes, cached in the :class:`~repro.results.ResultStore` keyed
  by :func:`scenario_hash`, which ``dragonfly-sim report`` tabulates;
* the ``dragonfly-sim run``/``sweep``/``scenarios`` CLI subcommands (and
  their ``--dump-scenario`` option) read and write scenarios as JSON files,
  and resolve library names, ``fnmatch`` globs over the library
  (``'table1/*'``) and any ``pairwise/<T>+<B>`` pair (see
  :func:`get_scenario`).

Serialization is **strict and round-trip exact**: ``to_dict``/``from_dict``
reject unknown keys at every level, validate routing/placement/workload
names against their registries at parse time, and guarantee
``Scenario.from_json(s.to_json()) == s``.  The canonical JSON form (sorted
keys, compact separators) is the cache-key material, so two equal scenarios
always share one cache entry.

See ``docs/scenarios.md`` for the on-disk format specification.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union
from typing import get_args, get_type_hints

if TYPE_CHECKING:  # pragma: no cover - runner imports scenario at runtime
    from repro.experiments.runner import RunResult
    from repro.traces.recorder import TraceRecorder

from repro.config import RoutingConfig, SimulationConfig, SystemConfig
from repro.experiments.configs import (
    BACKGROUND_ITERATION_BOOST,
    BENCH_RANKS,
    MIXED_WORKLOAD_FRACTIONS,
    ML_RANKS,
    PAIRWISE_RANKS,
    PAPER_TABLE2_JOB_SIZES,
    SYNTHETIC_RANKS,
    bench_config,
    bench_spec,
    ml_spec,
    synthetic_spec,
)
from repro.experiments.configs import AppSpec
from repro.placement import PLACEMENTS
from repro.workloads import resolve_application

__all__ = [
    "CACHE_VERSION",
    "Scenario",
    "dump_scenarios",
    "expand_grid",
    "get_scenario",
    "load_scenarios",
    "loadcurve_scenario",
    "mixed_scenario",
    "mixed_solo_scenarios",
    "ml_scenario",
    "pairwise_scenario",
    "register_scenario",
    "scenario_hash",
    "scenario_key",
    "scenario_names",
    "synthetic_scenario",
    "table1_scenario",
]

#: Cache-format version.  Bump whenever simulator changes alter numeric
#: results or the canonical serialization changes, which orphans (rather
#: than corrupts) old result-store rows.  Version 2 switched the cache key
#: to canonical ``Scenario`` hashes.
CACHE_VERSION = 2

#: SimulationConfig fields that belong to the scenario's ``"sim"`` section
#: (everything except the nested system/routing dataclasses).
_SIM_KNOBS: Tuple[str, ...] = tuple(
    sorted(f.name for f in fields(SimulationConfig) if f.name not in ("system", "routing"))
)

#: Field names of the ``"system"`` and ``"routing"`` sections, in
#: declaration order (resolved once: ``to_dict`` runs on every hash).
_SYSTEM_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(SystemConfig))
_ROUTING_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(RoutingConfig))

#: Sim knobs serialized **only when non-default**.  These fields were added
#: after scenarios were first hashed; omitting them at their default value
#: keeps the historical ``sim`` section byte-identical, so every pre-existing
#: scenario hash (and with it every sweep-cache and result-store key) is
#: preserved exactly — the same convention ``_job_to_dict`` applies to
#: ``start_time``.
_OPTIONAL_SIM_KNOBS: Dict[str, object] = {
    "warmup_ns": 0.0,
    "measurement_ns": None,
    # Hash neutrality: fidelity DOES change the numbers (flow-level results
    # are approximations, see docs/fidelity.md), so a non-default fidelity is
    # hashed as part of the scenario description — but the default is omitted
    # so every pre-existing packet-level scenario hash is byte-identical.
    "fidelity": "packet",
}

_TOP_KEYS = frozenset({"name", "system", "routing", "sim", "placement", "jobs"})
_JOB_KEYS = frozenset({"name", "num_ranks", "kwargs", "start_time", "trace_hash"})


@lru_cache(maxsize=None)
def _field_types(cls: type) -> Dict[str, Tuple[type, ...]]:
    """The types each field of dataclass ``cls`` admits (``Optional`` unpacked)."""
    return {name: get_args(hint) or (hint,) for name, hint in get_type_hints(cls).items()}


def _fits(value: object, kind: type) -> bool:
    """Whether a JSON ``value`` fits ``kind``: an int is a float, a bool no number."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_types(cls: type, data: dict, where: str) -> None:
    """Reject a value that does not fit its ``cls`` field's type.

    An int stands for a float as given, not converted, so the scenario keeps
    the canonical JSON (and hash) it was written with.
    """
    types = _field_types(cls)
    for key, value in data.items():
        if not any(_fits(value, kind) for kind in types[key]):
            expected = " or ".join(
                "null" if kind is type(None) else kind.__name__ for kind in types[key]
            )
            raise ValueError(
                f"scenario field '{where}{key}' must be {expected}, got {value!r}"
            )


def _strict_dataclass(cls: type, data: dict, where: str) -> Any:
    """Build dataclass ``cls`` from ``data``, rejecting unknown keys and wrong types."""
    if not isinstance(data, dict):
        raise ValueError(f"scenario section {where!r} must be an object, got {type(data).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown keys {unknown} in scenario section {where!r}")
    _check_types(cls, data, f"{where}.")
    return cls(**data)


def _job_to_dict(spec: AppSpec) -> dict:
    # kwargs predates scenario hashing: `"kwargs": {}` is part of the
    # historical three-key job form every stored hash was computed over, so
    # it must stay unconditional (unlike post-hashing fields such as
    # start_time below).
    # reprolint: disable=REP201 -- baked into the historical hashed form
    doc = {"name": spec.name, "num_ranks": spec.num_ranks, "kwargs": dict(spec.kwargs)}
    # start_time is serialized only when staggered: zero-start jobs keep the
    # historical three-key form, so every pre-existing scenario hash (and
    # with it every sweep-cache and result-store key) is preserved exactly.
    if spec.start_time != 0.0:
        doc["start_time"] = spec.start_time
    # File-backed trace-replay jobs fold the trace file's *content* hash into
    # the serialized form (and thus into scenario_hash), so editing a trace
    # file invalidates cached results.  Emitted only for such jobs — every
    # other job keeps its historical byte form.  Inline trace payloads need
    # no extra key: their content already sits wholesale in kwargs.
    if spec.name == "trace" and isinstance(spec.kwargs.get("trace"), str):
        from repro.traces.format import trace_file_hash

        doc["trace_hash"] = trace_file_hash(spec.kwargs["trace"])
    return doc


def _job_from_dict(data: dict, index: int) -> AppSpec:
    where = f"jobs[{index}]"
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - _JOB_KEYS)
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {where}")
    for key in ("name", "num_ranks"):
        if key not in data:
            raise ValueError(f"{where} is missing required key {key!r}")
    kwargs = data.get("kwargs", {})
    if not isinstance(kwargs, dict):
        raise ValueError(f"{where}.kwargs must be an object")
    try:
        spec = AppSpec(data["name"], data["num_ranks"], dict(kwargs), data.get("start_time", 0.0))
    except ValueError as exc:
        # AppSpec validates itself; add which job of the document was bad.
        raise ValueError(f"{where}: {exc}") from None
    declared_hash = data.get("trace_hash")
    if declared_hash is not None:
        if spec.name != "trace" or not isinstance(spec.kwargs.get("trace"), str):
            raise ValueError(
                f"{where}: 'trace_hash' only applies to file-backed trace-replay jobs"
            )
        from repro.traces.format import trace_file_hash

        actual_hash = trace_file_hash(spec.kwargs["trace"])
        if actual_hash != declared_hash:
            raise ValueError(
                f"{where}: trace file {spec.kwargs['trace']!r} has content hash "
                f"{actual_hash}, but the scenario declares {declared_hash} "
                f"(the trace changed since this scenario was serialized)"
            )
    return spec


@dataclass(frozen=True)
class Scenario:
    """One fully-specified experiment: system + routing + knobs + placement + jobs.

    Construction validates everything eagerly — job names against the
    workload registry (and canonicalizes their case), the placement policy
    against :data:`repro.placement.PLACEMENTS`, and (via
    :class:`~repro.config.RoutingConfig` itself) the routing algorithm — so a
    bad scenario fails when it is *described*, not minutes later inside a
    worker process.
    """

    name: str
    jobs: Tuple[AppSpec, ...]
    config: SimulationConfig = field(default_factory=SimulationConfig)
    placement: str = "random"

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ValueError("a scenario needs a non-empty name")
        if not isinstance(self.config, SimulationConfig):
            raise TypeError(f"config must be a SimulationConfig, got {type(self.config).__name__}")
        jobs = tuple(self.jobs)
        if not jobs:
            raise ValueError("jobs must contain at least one application spec")
        # AppSpec validates and canonicalizes itself at construction (name,
        # rank count, kwargs, start_time); only cross-job rules live here.
        names = [spec.name for spec in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate job names in {names}; give co-runs distinct names")
        object.__setattr__(self, "jobs", jobs)
        if not isinstance(self.placement, str):
            raise TypeError(
                f"placement must be a policy name, got {type(self.placement).__name__}"
            )
        placement = self.placement.strip().lower()
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; choose from {list(PLACEMENTS)}"
            )
        object.__setattr__(self, "placement", placement)

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        """Plain-dict form: ``{name, system, routing, sim, placement, jobs}``."""
        config = self.config
        return {
            "name": self.name,
            "system": {name: getattr(config.system, name) for name in _SYSTEM_FIELDS},
            "routing": {name: getattr(config.routing, name) for name in _ROUTING_FIELDS},
            "sim": {
                knob: getattr(config, knob)
                for knob in _SIM_KNOBS
                if knob not in _OPTIONAL_SIM_KNOBS
                or getattr(config, knob) != _OPTIONAL_SIM_KNOBS[knob]
            },
            # placement predates scenario hashing: its unconditional emission
            # is part of the historical byte form every stored hash was
            # computed over, so (unlike post-hashing fields) it stays.
            "placement": self.placement,  # reprolint: disable=REP201 -- historical hashed form
            "jobs": [_job_to_dict(spec) for spec in self.jobs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Parse the strict dict form (unknown keys rejected at every level)."""
        if not isinstance(data, dict):
            raise ValueError(f"a scenario must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - _TOP_KEYS)
        if unknown:
            raise ValueError(f"unknown scenario keys {unknown}; expected {sorted(_TOP_KEYS)}")
        for key in ("name", "jobs"):
            if key not in data:
                raise ValueError(f"a scenario is missing required key {key!r}")
        if not isinstance(data["jobs"], list):
            raise ValueError("scenario 'jobs' must be a list")
        sim = data.get("sim", {})
        if not isinstance(sim, dict):
            raise ValueError("scenario section 'sim' must be an object")
        unknown_sim = sorted(set(sim) - set(_SIM_KNOBS))
        if unknown_sim:
            raise ValueError(f"unknown keys {unknown_sim} in scenario section 'sim'")
        _check_types(SimulationConfig, sim, "sim.")
        _check_types(cls, {key: data[key] for key in ("name", "placement") if key in data}, "")
        # Omitted sections fall back to SimulationConfig's own defaults (the
        # 72-node bench system, ugal-g routing) rather than re-deriving them.
        config_kwargs = dict(sim)
        if "system" in data:
            config_kwargs["system"] = _strict_dataclass(SystemConfig, data["system"], "system")
        if "routing" in data:
            config_kwargs["routing"] = _strict_dataclass(RoutingConfig, data["routing"], "routing")
        config = SimulationConfig(**config_kwargs)
        jobs = tuple(_job_from_dict(job, index) for index, job in enumerate(data["jobs"]))
        return cls(
            name=data["name"],
            jobs=jobs,
            config=config,
            placement=data.get("placement", "random"),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Human-readable JSON form (``indent=None`` for compact output)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from its JSON form."""
        return cls.from_dict(json.loads(text))

    def canonical_json(self) -> str:
        """Canonical JSON (sorted keys, compact separators) — cache-key material."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    # ---------------------------------------------------------------- variation
    def with_updates(
        self,
        *,
        name: Optional[str] = None,
        routing: Optional[str] = None,
        placement: Optional[str] = None,
        seed: Optional[int] = None,
        system: Optional[SystemConfig] = None,
        scale: Optional[float] = None,
        start_time: Optional[float] = None,
        job_kwargs: Optional[Dict[str, dict]] = None,
        offered_load: Optional[float] = None,
        warmup_ns: Optional[float] = None,
        measurement_ns: Optional[float] = None,
        fidelity: Optional[str] = None,
    ) -> "Scenario":
        """Copy of this scenario with selected axes replaced (used by grids).

        ``scale`` overrides the ``scale`` kwarg of **every** job (the
        message-volume knob all bundled workloads accept).  ``start_time``
        sets the arrival time of the scenario's **first** job — the target of
        a pairwise co-run — so staggered-arrival studies delay the target
        against an already-running background.  ``job_kwargs`` merges
        per-job constructor overrides, keyed by (case-insensitive) job name:
        ``{"hotspot": {"hot_fraction": 0.5}}``.  ``offered_load`` switches
        every job that supports it (the synthetic traffic family) to
        continuous open-loop injection at that fraction of terminal
        bandwidth; ``warmup_ns``/``measurement_ns`` set the steady-state
        measurement window of the simulation config.  ``fidelity`` switches
        the simulation fidelity (``"packet"``/``"flow"``, see
        :mod:`repro.flow`).
        """
        from repro.workloads import application_kwargs

        config = self.config
        if routing is not None:
            config = config.with_routing(routing)
        if seed is not None:
            config = config.with_seed(seed)
        if system is not None:
            config = config.with_system(system)
        if warmup_ns is not None or measurement_ns is not None:
            config = config.with_window(warmup_ns=warmup_ns, measurement_ns=measurement_ns)
        if fidelity is not None:
            config = config.with_fidelity(fidelity)
        jobs = list(self.jobs)
        if scale is not None:
            jobs = [
                AppSpec(spec.name, spec.num_ranks, {**spec.kwargs, "scale": scale}, spec.start_time)
                for spec in jobs
            ]
        if offered_load is not None:
            supported = [
                index
                for index, spec in enumerate(jobs)
                if (accepted := application_kwargs(spec.name)) is None
                or "offered_load" in accepted
            ]
            if not supported:
                raise ValueError(
                    f"no job of scenario {self.name!r} supports offered_load "
                    f"(jobs are {[spec.name for spec in jobs]}; continuous "
                    "injection is a synthetic traffic-pattern mode)"
                )
            for index in supported:
                spec = jobs[index]
                jobs[index] = AppSpec(
                    spec.name,
                    spec.num_ranks,
                    {**spec.kwargs, "offered_load": offered_load},
                    spec.start_time,
                )
        if job_kwargs is not None:
            by_name = {spec.name: index for index, spec in enumerate(jobs)}
            for job_name, overrides in job_kwargs.items():
                canonical = resolve_application(job_name)
                if canonical not in by_name:
                    raise ValueError(
                        f"no job named {job_name!r} in scenario {self.name!r}; "
                        f"jobs are {sorted(by_name)}"
                    )
                index = by_name[canonical]
                spec = jobs[index]
                jobs[index] = AppSpec(
                    spec.name, spec.num_ranks, {**spec.kwargs, **overrides}, spec.start_time
                )
        if start_time is not None:
            jobs[0] = jobs[0].with_start_time(start_time)
        return replace(
            self,
            name=name if name is not None else self.name,
            jobs=tuple(jobs),
            config=config,
            placement=placement if placement is not None else self.placement,
        )

    # ---------------------------------------------------------------- execution
    def run(
        self,
        require_completion: bool = True,
        recorder: Optional["TraceRecorder"] = None,
    ) -> "RunResult":
        """Build the full simulator stack for this scenario and run it.

        Returns a :class:`repro.experiments.runner.RunResult`.  This is the
        execution facade every other entry point (the sweep workers, the
        CLI, the trace recorder) goes through.  ``recorder`` optionally
        attaches a
        :class:`~repro.traces.recorder.TraceRecorder` (see
        :func:`repro.traces.record_scenario` for the convenience wrapper).
        """
        from repro.experiments.runner import _execute

        return _execute(self, require_completion, recorder=recorder)


def scenario_key(scenario: Scenario) -> Tuple[str, str]:
    """``(scenario_hash, canonical JSON)`` of ``scenario`` from one serialization.

    The hash is the sha256 of ``{"scenario":<canonical>,"version":N}`` — the
    canonical form of that two-key document, spliced together instead of
    serialized twice, so it is byte-identical to dumping the document.  The
    result store keys rows on the hash and compares the canonical text.
    """
    canonical = scenario.canonical_json()
    blob = f'{{"scenario":{canonical},"version":{CACHE_VERSION:d}}}'
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24], canonical


def scenario_hash(scenario: Scenario) -> str:
    """Stable cache key: sha256 over the canonically-serialized scenario.

    Covers every field of the scenario (including resolved config defaults)
    plus :data:`CACHE_VERSION`, so equal scenarios share one cache entry and
    any change to the simulation description invalidates old entries.
    """
    return scenario_key(scenario)[0]


# -------------------------------------------------------------------- grids
def _knob_label(job_kwargs: Dict[str, dict]) -> str:
    """Deterministic grid-name part for one job_kwargs cell."""
    parts = []
    for job in sorted(job_kwargs):
        knobs = ",".join(f"{k}={job_kwargs[job][k]:g}" if isinstance(job_kwargs[job][k], (int, float))
                         else f"{k}={job_kwargs[job][k]}" for k in sorted(job_kwargs[job]))
        parts.append(f"{job}({knobs})")
    return "+".join(parts)


def expand_grid(
    base: Union[Scenario, Sequence[Scenario]],
    routings: Optional[Sequence[str]] = None,
    placements: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[int]] = None,
    start_times: Optional[Sequence[float]] = None,
    job_knobs: Optional[Sequence[Dict[str, dict]]] = None,
    offered_loads: Optional[Sequence[float]] = None,
    fidelities: Optional[Sequence[str]] = None,
) -> List[Scenario]:
    """Expand scenario template(s) along declared axes into a grid.

    Every base scenario — standalone, pairwise or mixed alike — is copied
    once per cell of ``routings × placements × seeds × start_times ×
    job_knobs × offered_loads × fidelities`` (an omitted axis keeps the base
    value).  ``start_times`` staggers the first job's arrival (see
    :meth:`Scenario.with_updates`); ``job_knobs`` cells are per-job kwargs
    overrides such as ``{"hotspot": {"hot_fraction": 0.5}}``, letting one
    grid sweep a synthetic pattern's knobs; ``offered_loads`` sweeps the
    continuous-injection intensity of every synthetic job, the axis of
    latency-vs-offered-load curves; ``fidelities`` sweeps the simulation
    fidelity (``"packet"``/``"flow"``), the axis of cross-fidelity
    validation grids.  Expanded names are deterministic
    (``base[par,contiguous,seed=2,t0=5e+06,load=0.4,fidelity=flow]``), so
    re-running the same grid hits the same sweep-cache entries; the default
    ``"packet"`` fidelity adds no name part (and, since defaults are not
    serialized, the same cache key), so a fidelity sweep's packet cell is
    served by previously stored packet-level runs.
    """
    bases = [base] if isinstance(base, Scenario) else list(base)
    if not bases:
        raise ValueError("expand_grid needs at least one base scenario")
    routing_axis: List[Optional[str]] = list(routings) if routings else [None]
    placement_axis: List[Optional[str]] = list(placements) if placements else [None]
    seed_axis: List[Optional[int]] = list(seeds) if seeds else [None]
    start_axis: List[Optional[float]] = list(start_times) if start_times else [None]
    knob_axis: List[Optional[Dict[str, dict]]] = list(job_knobs) if job_knobs else [None]
    load_axis: List[Optional[float]] = list(offered_loads) if offered_loads else [None]
    fidelity_axis: List[Optional[str]] = list(fidelities) if fidelities else [None]

    grid: List[Scenario] = []
    for template, routing, placement, seed, start, knobs, load, fidelity in itertools.product(
        bases, routing_axis, placement_axis, seed_axis, start_axis, knob_axis, load_axis,
        fidelity_axis,
    ):
        expanded = template.with_updates(
            routing=routing,
            placement=placement,
            seed=seed,
            start_time=start,
            job_kwargs=knobs,
            offered_load=load,
            fidelity=fidelity,
        )
        parts = []
        if routing is not None:
            parts.append(expanded.config.routing.algorithm)
        if placement is not None:
            parts.append(expanded.placement)
        if seed is not None:
            parts.append(f"seed={seed}")
        if start:  # an explicit 0.0 IS the base experiment: same name, and
            # (since zero start times are not serialized) the same cache key,
            # so a previously stored unstaggered run still serves that cell.
            parts.append(f"t0={start:g}")
        if knobs is not None:
            parts.append(_knob_label(knobs))
        if load is not None:
            parts.append(f"load={load:g}")
        if fidelity is not None and expanded.config.fidelity != "packet":
            # The default fidelity mirrors start_time=0.0: same name, same
            # cache key, so stored packet runs serve the packet cell.
            parts.append(f"fidelity={expanded.config.fidelity}")
        name = f"{template.name}[{','.join(parts)}]" if parts else template.name
        grid.append(expanded.with_updates(name=name))
    return grid


# ----------------------------------------------------------- scenario library
def _pair_jobs(
    target: str,
    background: Optional[str],
    scale: float,
    target_ranks: Optional[int],
    background_ranks: Optional[int],
) -> Tuple[AppSpec, ...]:
    """Jobs of one pairwise co-run (``background=None`` -> standalone).

    The background application gets an iteration count large enough to keep
    injecting traffic for the whole target run (see
    :data:`~repro.experiments.configs.BACKGROUND_ITERATION_BOOST`).  Rank
    counts default to :data:`~repro.experiments.configs.PAIRWISE_RANKS`
    (together roughly filling the 72-node benchmark system).
    """
    for app in (target, background):
        if app is not None and app not in PAIRWISE_RANKS:
            raise ValueError(
                f"{app!r} has no pairwise job size; choose from {sorted(PAIRWISE_RANKS)}"
            )
    jobs = [AppSpec(target, target_ranks or PAIRWISE_RANKS[target], {"scale": scale})]
    if background is not None:
        if background == target:
            raise ValueError("target and background must be different applications")
        kwargs = {"scale": scale, "seed": 7, "iterations": BACKGROUND_ITERATION_BOOST[background]}
        jobs.append(AppSpec(background, background_ranks or PAIRWISE_RANKS[background], kwargs))
    return tuple(jobs)


def _mix_jobs(total_nodes: int, scale: float) -> Tuple[AppSpec, ...]:
    """The Table II mixed-workload jobs, scaled down to ``total_nodes``.

    Each application receives a share of ``total_nodes`` proportional to its
    paper job size (LQCD and Stencil5D get the larger shares so they can form
    their high-dimensional process grids, exactly as in the paper).
    """
    total_fraction = sum(MIXED_WORKLOAD_FRACTIONS.values())
    specs = []
    for index, name in enumerate(PAPER_TABLE2_JOB_SIZES):
        share = MIXED_WORKLOAD_FRACTIONS[name] / total_fraction
        ranks = max(4, int(round(share * total_nodes)))
        specs.append(AppSpec(name, ranks, {"scale": scale, "seed": 11 + index}))
    # Trim if rounding overshot the node budget.
    while sum(s.num_ranks for s in specs) > total_nodes:
        largest = max(specs, key=lambda s: s.num_ranks)
        specs[specs.index(largest)] = largest.with_ranks(largest.num_ranks - 1)
    return tuple(specs)


def table1_scenario(
    app: str, routing: str = "par", seed: int = 1, scale: float = 1.0
) -> Scenario:
    """Standalone benchmark-scale scenario for one application (Table I row)."""
    app = resolve_application(app)
    return Scenario(
        name=f"table1/{app}",
        jobs=(bench_spec(app, scale=scale),),
        config=bench_config(routing, seed=seed),
    )


def pairwise_scenario(
    target: str,
    background: Optional[str],
    routing: str = "par",
    seed: int = 1,
    scale: float = 1.0,
    target_ranks: Optional[int] = None,
    background_ranks: Optional[int] = None,
    config: Optional[SimulationConfig] = None,
) -> Scenario:
    """Pairwise co-run scenario (``background=None`` -> standalone baseline).

    ``pairwise/<target>+<background>`` and its ``pairwise/<target>``
    baseline are the two halves of the Fig. 4 comparison that
    :func:`repro.analysis.comparison_rows` reads back from a store.
    ``target_ranks``/``background_ranks`` override the half-system job
    sizes, and ``config`` the default
    :func:`~repro.experiments.configs.bench_config` (e.g. for tiny test
    systems).
    """
    target = resolve_application(target)
    if background is not None:
        background = resolve_application(background)
    name = f"pairwise/{target}+{background}" if background else f"pairwise/{target}"
    return Scenario(
        name=name,
        jobs=_pair_jobs(target, background, scale, target_ranks, background_ranks),
        config=config if config is not None else bench_config(routing, seed=seed),
    )


def mixed_scenario(
    routing: str = "par",
    seed: int = 1,
    total_nodes: int = 70,
    scale: float = 1.0,
    config: Optional[SimulationConfig] = None,
) -> Scenario:
    """The Table II mixed workload (six applications co-running)."""
    return Scenario(
        name="mixed/table2",
        jobs=_mix_jobs(total_nodes, scale),
        config=config if config is not None else bench_config(routing, seed=seed),
    )


def mixed_solo_scenarios(
    routing: str = "par",
    seed: int = 1,
    total_nodes: int = 70,
    scale: float = 1.0,
    config: Optional[SimulationConfig] = None,
) -> List[Scenario]:
    """Standalone baselines of the mixed workload: one ``mixed/solo/<App>`` per job.

    Each scenario runs one application of :func:`mixed_scenario` alone at its
    *mixed* job size, which is what the Fig. 10 interference comparison
    measures against.  The naming convention is what
    :func:`repro.analysis.mixed_rows_from_store` looks up.
    """
    config = config if config is not None else bench_config(routing, seed=seed)
    return [
        Scenario(name=f"mixed/solo/{spec.name}", jobs=(spec,), config=config)
        for spec in _mix_jobs(total_nodes, scale)
    ]


def synthetic_scenario(
    pattern: str,
    routing: str = "par",
    seed: int = 1,
    scale: float = 1.0,
    num_ranks: Optional[int] = None,
    config: Optional[SimulationConfig] = None,
    **knobs: Any,
) -> Scenario:
    """Standalone scenario for one synthetic traffic pattern.

    ``knobs`` are the pattern's constructor knobs (``hot_fraction``,
    ``duty_cycle``, ``burst_length``, ``shift``, …); they are validated at
    description time by :class:`~repro.experiments.configs.AppSpec`.
    """
    spec = synthetic_spec(pattern, num_ranks=num_ranks, scale=scale, **knobs)
    return Scenario(
        name=f"synthetic/{spec.name}",
        jobs=(spec,),
        config=config if config is not None else bench_config(routing, seed=seed),
    )


def ml_scenario(
    pattern: str,
    routing: str = "par",
    seed: int = 1,
    scale: float = 1.0,
    num_ranks: Optional[int] = None,
    config: Optional[SimulationConfig] = None,
    **knobs: Any,
) -> Scenario:
    """Standalone scenario for one ML-collective pattern (``ml/<short name>``).

    ``pattern`` accepts the registry name with or without its ``ml.`` prefix
    (``"ring_allreduce"`` and ``"ml.ring_allreduce"`` are equivalent);
    ``knobs`` are the pattern's constructor knobs (``payload_bytes``,
    ``capacity_factor``, ``microbatches``, …), validated at description time
    by :class:`~repro.experiments.configs.AppSpec`.
    """
    spec = ml_spec(pattern, num_ranks=num_ranks, scale=scale, **knobs)
    short = spec.name.split(".", 1)[1]
    return Scenario(
        name=f"ml/{short}",
        jobs=(spec,),
        config=config if config is not None else bench_config(routing, seed=seed),
    )


#: Default steady-state window of the ``loadcurve/<pattern>`` presets, ns.
#: Warmup covers the cold-start transient (empty buffers, cold Q-tables) on
#: the 72-node bench system; the measurement window is long enough for a few
#: hundred injection periods per rank at every offered load.
LOADCURVE_WARMUP_NS = 20_000.0
LOADCURVE_MEASUREMENT_NS = 100_000.0


def loadcurve_scenario(
    pattern: str,
    routing: str = "par",
    seed: int = 1,
    offered_load: float = 0.1,
    num_ranks: Optional[int] = None,
    warmup_ns: float = LOADCURVE_WARMUP_NS,
    measurement_ns: float = LOADCURVE_MEASUREMENT_NS,
    config: Optional[SimulationConfig] = None,
    **knobs: Any,
) -> Scenario:
    """Steady-state offered-load scenario for one synthetic traffic pattern.

    The pattern runs in :class:`~repro.workloads.synthetic.ContinuousInjection`
    mode at ``offered_load`` × terminal bandwidth; the run terminates when the
    measurement window closes (``warmup_ns + measurement_ns``), and windowed
    metrics (accepted throughput, measurement-window latency percentiles)
    exclude the warmup transient.  Sweeping this scenario across
    ``expand_grid(offered_loads=...)`` produces the classic
    latency-vs-offered-load curve; render it with
    ``dragonfly-sim report loadcurve/<pattern>``.
    """
    spec = synthetic_spec(
        pattern, num_ranks=num_ranks, offered_load=offered_load, **knobs
    )
    base = config if config is not None else bench_config(routing, seed=seed)
    return Scenario(
        name=f"loadcurve/{spec.name}",
        jobs=(spec,),
        config=base.with_window(warmup_ns=warmup_ns, measurement_ns=measurement_ns),
    )


#: Registry of named scenarios: name -> zero-argument factory.  Factories
#: (rather than instances) keep import cheap and let presets track registry
#: defaults; ``get_scenario`` builds a fresh Scenario per call.
_SCENARIO_FACTORIES: Dict[str, Callable[[], Scenario]] = {}


def register_scenario(
    name: str, factory: Callable[[], Scenario], overwrite: bool = False
) -> None:
    """Register a named scenario factory for ``get_scenario``/the CLI."""
    if not overwrite and name in _SCENARIO_FACTORIES:
        raise ValueError(f"scenario {name!r} is already registered")
    _SCENARIO_FACTORIES[name] = factory


def scenario_names() -> List[str]:
    """Sorted names of every registered scenario."""
    return sorted(_SCENARIO_FACTORIES)


def get_scenario(name: str) -> Scenario:
    """Build the scenario ``name`` (fresh instance per call).

    Registered names resolve through the registry.  Any other
    ``pairwise/<T>+<B>`` or ``pairwise/<T>`` name resolves through
    :func:`pairwise_scenario`, so every pair of applications is reachable
    by name, not just the registered presets.
    """
    factory = _SCENARIO_FACTORIES.get(name)
    if factory is not None:
        return factory()
    family, _, pair = name.partition("/")
    if family == "pairwise" and pair:
        target, _, background = pair.partition("+")
        return pairwise_scenario(target, background or None)
    raise ValueError(f"unknown scenario {name!r}; choose from {scenario_names()}")


def _register_builtin_library() -> None:
    from functools import partial

    for app in BENCH_RANKS:
        register_scenario(f"table1/{app}", partial(table1_scenario, app))
    # The pairwise presets the paper's figures revolve around: Fig. 5
    # (FFT3D vs Halo3D), Figs 7-8 (LQCD vs Stencil5D), Fig. 9 (CosmoFlow vs
    # Halo3D) and the classic bursty-background stressor (FFT3D vs UR).
    pairs = [
        ("FFT3D", "Halo3D"),
        ("LQCD", "Stencil5D"),
        ("CosmoFlow", "Halo3D"),
        ("FFT3D", "UR"),
    ]
    for target, background in pairs:
        register_scenario(
            f"pairwise/{target}+{background}", partial(pairwise_scenario, target, background)
        )
    # The synthetic traffic-pattern catalog: each pattern standalone, and as
    # a background stressing a UR target (the balanced-background workload),
    # e.g. `dragonfly-sim run pairwise/UR+hotspot`.
    for pattern in SYNTHETIC_RANKS:
        register_scenario(f"synthetic/{pattern}", partial(synthetic_scenario, pattern))
        register_scenario(
            f"pairwise/UR+{pattern}", partial(pairwise_scenario, "UR", pattern)
        )
        # Steady-state offered-load template (sweep it across offered_loads
        # to trace the latency-throughput curve of the pattern).
        register_scenario(f"loadcurve/{pattern}", partial(loadcurve_scenario, pattern))
    # The ML-collective catalog (training-style traffic): each pattern
    # standalone under ml/<short name>, and as a background stressing a UR
    # target, e.g. `dragonfly-sim run pairwise/UR+ml.ring_allreduce`.
    for pattern in ML_RANKS:
        register_scenario(f"ml/{pattern.split('.', 1)[1]}", partial(ml_scenario, pattern))
        register_scenario(
            f"pairwise/UR+{pattern}", partial(pairwise_scenario, "UR", pattern)
        )
    # Each preset target's standalone baseline (the other half of the Fig. 4
    # comparison the result-store reports read).
    for target in dict.fromkeys(
        [target for target, _ in pairs] + ["UR"]
    ):
        register_scenario(f"pairwise/{target}", partial(pairwise_scenario, target, None))
    register_scenario("mixed/table2", mixed_scenario)
    # The mixed workload's per-application baselines (the other half of the
    # Fig. 10 comparison): one preset per job of the mix.
    def _solo(app: str) -> Scenario:
        for scenario in mixed_solo_scenarios():
            if scenario.jobs[0].name == app:
                return scenario
        raise ValueError(f"no mixed-workload job named {app!r}")  # pragma: no cover

    for app in PAPER_TABLE2_JOB_SIZES:
        register_scenario(f"mixed/solo/{app}", partial(_solo, app))


_register_builtin_library()


# ------------------------------------------------------------------- file I/O
def load_scenarios(path: Union[str, Path]) -> List[Scenario]:
    """Load scenario(s) from a JSON file (one object or a list of objects).

    Raises ``ValueError`` prefixed with ``path`` when the file cannot be
    read, is not JSON, or does not describe valid scenarios.
    """
    try:
        payload = json.loads(Path(path).read_text())
        if isinstance(payload, dict):
            return [Scenario.from_dict(payload)]
        if isinstance(payload, list):
            return [Scenario.from_dict(item) for item in payload]
        raise ValueError("a scenario file must hold an object or a list of objects")
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def dump_scenarios(path: Union[str, Path], scenarios: Iterable[Scenario]) -> Path:
    """Write scenario(s) as JSON (a single object, or a list when several)."""
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("nothing to dump: no scenarios given")
    payload = scenarios[0].to_dict() if len(scenarios) == 1 else [s.to_dict() for s in scenarios]
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
