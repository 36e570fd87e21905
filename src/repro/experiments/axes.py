"""The scenario axes: one record per dimension a study varies.

:data:`AXES` declares how each axis is set on a
:class:`~repro.experiments.scenario.Scenario` and read back from a stored
scenario document; every layer derives its axis handling from it.
``Scenario.with_updates`` and ``expand_grid`` set values
(:func:`apply_axes`), ``ResultStore.runs``/``rows``/``aggregate`` filter and
group stored runs by the values read back (:func:`filters`), and the store's
uniformity errors and the ``dragonfly-sim`` axis options name the axes from
here.  A value is canonicalized as the write side stores it, so a filter
matches exactly the runs written with that value.  Adding an axis means
adding its record and the function that applies it; the "Axes" table of
docs/scenarios.md lists them.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.experiments.configs import AppSpec
from repro.flow import fidelity_names, resolve_fidelity
from repro.placement import resolve_placement
from repro.routing import resolve_algorithm
from repro.workloads import application_kwarg_default, application_kwargs, resolve_application

if TYPE_CHECKING:  # pragma: no cover - scenario imports this module
    from repro.experiments.scenario import Scenario

__all__ = ["ALWAYS", "AXES", "AXIS", "Axis", "apply_axes", "filters"]

#: ``Axis.default`` of an axis every scenario document spells out.
ALWAYS: Any = object()


def _same(value: Any) -> Any:
    return value


def _equal(stored: Any, wanted: Any) -> bool:
    return bool(stored == wanted)


@dataclass(frozen=True)
class Axis:
    """One scenario axis: how to set it, read it back, sweep it and flag it."""

    #: ``ResultStore.runs`` keyword and ``ResultStore.rows`` column.
    name: str
    #: ``(scenario, canonical value) -> scenario`` with the value set.
    apply: Callable[["Scenario", Any], "Scenario"]
    #: Where a run-wide axis sits in a scenario document; a per-job axis
    #: reads the document with ``reader`` instead.
    path: Tuple[str, ...] = ()
    reader: Optional[Callable[[dict], Any]] = None
    #: The value of a document that omits the axis.  A grid cell at the
    #: default gets no name part, so it keeps its base scenario's hash.
    default: Any = ALWAYS
    #: Whether ``ResultStore.aggregate`` groups by the axis by default.
    group: bool = True
    #: The value the write side stores for a given one.
    canonical: Callable[[Any], Any] = _same
    #: Whether a value read back matches a requested (canonical) one.
    matches: Callable[[Any, Any], bool] = _equal
    #: ``Scenario.with_updates`` keyword, when it is not ``name``.
    keyword: str = ""
    #: ``expand_grid`` keyword, and a grid cell's name part for a value.
    grid: Optional[str] = None
    label: Callable[[Any], str] = str
    #: ``dragonfly-sim``: the one-value option (``report`` filters by it),
    #: the ``sweep`` options, their ``type``/``metavar``, more keywords of
    #: the one-value option, the parse of its value, and its help noun.
    flag: Optional[str] = None
    sweep: Tuple[str, ...] = ()
    type: Optional[Callable[[str], Any]] = None
    metavar: Optional[str] = None
    options: Mapping[str, Any] = field(default_factory=dict)
    parse: Callable[[Any], Any] = _same
    help: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "keyword", self.keyword or self.name)

    def read(self, doc: dict) -> Any:
        """The axis value a stored scenario document holds."""
        if self.reader is not None:
            return self.reader(doc)
        *sections, key = self.path
        for section in sections:
            doc = doc.get(section, {})
        return doc.get(key, self.default)


# ----------------------------------------------------------- applying values
def _config(knob: str) -> Callable[["Scenario", Any], "Scenario"]:
    """Apply one ``SimulationConfig`` field."""
    return lambda scenario, value: replace(
        scenario, config=replace(scenario.config, **{knob: value})
    )


def _routing(scenario: "Scenario", algorithm: str) -> "Scenario":
    return replace(scenario, config=scenario.config.with_routing(algorithm))


def _placement(scenario: "Scenario", placement: str) -> "Scenario":
    return replace(scenario, placement=placement)


def _merge_kwargs(scenario: "Scenario", overrides: Mapping[str, dict]) -> "Scenario":
    """``scenario`` with each job named in ``overrides`` given those kwargs."""
    return replace(scenario, jobs=tuple(
        AppSpec(job.name, job.num_ranks, {**job.kwargs, **overrides[job.name]}, job.start_time)
        if job.name in overrides else job
        for job in scenario.jobs
    ))


def _scale(scenario: "Scenario", scale: float) -> "Scenario":
    return _merge_kwargs(scenario, {job.name: {"scale": scale} for job in scenario.jobs})


def _start_time(scenario: "Scenario", start: float) -> "Scenario":
    """Stagger the *first* job — a pairwise co-run's target — against the rest."""
    first, *rest = scenario.jobs
    return replace(scenario, jobs=(first.with_start_time(start), *rest))


def _knobs(scenario: "Scenario", knobs: Mapping[str, dict]) -> "Scenario":
    names = [job.name for job in scenario.jobs]
    overrides: Dict[str, dict] = {}
    for job, kwargs in knobs.items():
        canonical = resolve_application(job)
        if canonical not in names:
            raise ValueError(
                f"no job named {job!r} in scenario {scenario.name!r}; jobs are {sorted(names)}"
            )
        overrides.setdefault(canonical, {}).update(kwargs)
    return _merge_kwargs(scenario, overrides)


def _offered_load(scenario: "Scenario", load: float) -> "Scenario":
    """Switch every job that supports it to continuous injection at ``load``."""
    supported = {
        job.name: {"offered_load": load}
        for job in scenario.jobs
        if (accepted := application_kwargs(job.name)) is None or "offered_load" in accepted
    }
    if not supported:
        raise ValueError(
            f"no job of scenario {scenario.name!r} supports offered_load (jobs are "
            f"{[job.name for job in scenario.jobs]}; continuous injection is a "
            "synthetic traffic-pattern mode)"
        )
    return _merge_kwargs(scenario, supported)


# ------------------------------------------------- reading and naming values
def _one(values: Iterable[Any]) -> Optional[float]:
    """The one distinct value among ``values``, else None."""
    distinct = set(values)
    return float(distinct.pop()) if len(distinct) == 1 else None


def _knob_label(knobs: Mapping[str, dict]) -> str:
    return "+".join(
        f"{job}(" + ",".join(
            f"{key}={value:g}" if isinstance(value, (int, float)) else f"{key}={value}"
            for key, value in sorted(knobs[job].items())
        ) + ")"
        for job in sorted(knobs)
    )


def _knobs_match(stored: Tuple[Tuple[str, str], ...], wanted: Mapping[str, dict]) -> bool:
    """Whether every requested job carries every requested kwarg value; a
    knob a job omits is its constructor default, so a filter on a default
    matches the preset runs, which never spell defaults out."""
    jobs = dict(stored)
    for job, knobs in wanted.items():
        job = resolve_application(job)
        if job not in jobs:
            return False
        kwargs = json.loads(jobs[job])
        for key, value in knobs.items():
            have = kwargs.get(key, inspect.Parameter.empty)
            if have is inspect.Parameter.empty:
                have = application_kwarg_default(job, key)
            if have is inspect.Parameter.empty or have != value:
                return False
    return True


def _parse_knobs(specs: List[str]) -> Dict[str, dict]:
    """``JOB:KEY=VALUE`` options as ``{job: {key: value}}``; a value parses
    as an int, a float, a bool literal or else a string — the JSON scalar
    types job kwargs serialize to."""
    knobs: Dict[str, dict] = {}
    for spec in specs:
        job, sep, assignment = spec.partition(":")
        key, eq, raw = assignment.partition("=")
        if not sep or not eq or not job or not key:
            raise ValueError(f"--knob expects JOB:KEY=VALUE, got {spec!r}")
        value: object
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = {"true": True, "false": False}.get(raw.lower(), raw)
        knobs.setdefault(resolve_application(job), {})[key] = value
    return knobs


# --------------------------------------------------------------------- table
#: Every scenario axis, in the order values are set (a later axis wins where
#: two write one kwarg), grids are expanded (the last varies fastest) and a
#: grid cell's name parts are listed.
AXES: Tuple[Axis, ...] = (
    Axis(
        "routing", _routing, path=("routing", "algorithm"), canonical=resolve_algorithm,
        grid="routings", flag="--routing", sweep=("--routings",), help="routing algorithm",
    ),
    Axis(
        "placement", _placement, path=("placement",), canonical=resolve_placement,
        grid="placements", flag="--placement", sweep=("--placements",),
        help="placement policy (random, contiguous)",
    ),
    Axis(
        "seed", _config("seed"), path=("sim", "seed"), group=False, grid="seeds",
        label="seed={}".format, flag="--seed", sweep=("--seeds",), type=int,
        help="experiment seed",
    ),
    Axis(
        "scale", _scale, reader=lambda doc: _one(
            job.get("kwargs", {}).get("scale", 1.0) for job in doc["jobs"]
        ), default=1.0, flag="--scale", type=float, help="message-volume scale of every job",
    ),
    Axis(
        "start_time", _start_time,
        reader=lambda doc: float(doc["jobs"][0].get("start_time", 0.0)), default=0.0,
        grid="start_times", label="t0={:g}".format, flag="--start-time",
        sweep=("--start-times",), type=float, metavar="NS",
        help="arrival time of the first job, ns (0 = simultaneous arrivals)",
    ),
    Axis(
        "knobs", _knobs, reader=lambda doc: tuple(
            (job["name"], json.dumps(job.get("kwargs", {}), sort_keys=True))
            for job in doc["jobs"]
        ), matches=_knobs_match, keyword="job_kwargs", grid="job_knobs", label=_knob_label,
        flag="--knob", metavar="JOB:KEY=VALUE", options={"action": "append"},
        parse=_parse_knobs, help="job kwarg value, e.g. hotspot:hot_fraction=0.9 (repeatable)",
    ),
    Axis(
        "offered_load", _offered_load, reader=lambda doc: _one(
            job["kwargs"]["offered_load"] for job in doc["jobs"]
            if job.get("kwargs", {}).get("offered_load") is not None
        ), default=None, grid="offered_loads", label="load={:g}".format,
        sweep=("--offered-loads",), type=float, metavar="FRACTION",
        help="continuous-injection load of the synthetic jobs (a fraction of "
             "terminal bandwidth; see the loadcurve/<pattern> presets)",
    ),
    Axis(
        "fidelity", _config("fidelity"), path=("sim", "fidelity"), default="packet",
        canonical=resolve_fidelity, grid="fidelities", label="fidelity={}".format,
        flag="--fidelity", sweep=("--fidelities", "--fidelity"),
        options={"choices": fidelity_names()},
        help="simulation fidelity (see docs/fidelity.md)",
    ),
    Axis(
        "warmup_ns", _config("warmup_ns"), path=("sim", "warmup_ns"), default=0.0,
        sweep=("--warmup",), type=float, metavar="NS",
        help="warmup, ns (window metrics exclude statistics before it)",
    ),
    Axis(
        "measurement_ns", _config("measurement_ns"), path=("sim", "measurement_ns"),
        default=None, sweep=("--measurement",), type=float, metavar="NS",
        help="measurement window, ns (the run ends when it closes)",
    ),
)

AXIS: Dict[str, Axis] = {axis.name: axis for axis in AXES}
_KEYWORDS: Dict[str, Axis] = {axis.keyword: axis for axis in AXES}


def _canonical(values: Mapping[str, Any], axes: Dict[str, Axis]) -> List[Tuple[Axis, Any]]:
    """``(axis, canonical value)`` of each value given (None = not given),
    in table order; ``axes`` maps the accepted keywords to their axes."""
    unknown = sorted(set(values) - set(axes))
    if unknown:
        raise TypeError(f"unknown scenario axes {unknown}; choose from {list(axes)}")
    return [
        (axis, axis.canonical(values[key]))
        for key, axis in axes.items()
        if values.get(key) is not None
    ]


def apply_axes(scenario: "Scenario", values: Mapping[str, Any]) -> Tuple["Scenario", List[str]]:
    """``scenario`` with each ``with_updates`` keyword's value set, and the
    grid-name parts of the values set."""
    parts: List[str] = []
    for axis, value in _canonical(values, _KEYWORDS):
        scenario = axis.apply(scenario, value)
        if value != axis.default:
            parts.append(axis.label(value))
    return scenario, parts


def filters(values: Mapping[str, Any]) -> List[Tuple[Axis, Any]]:
    """``(axis, canonical value)`` of each ``ResultStore.runs`` axis filter given."""
    return _canonical(values, AXIS)
