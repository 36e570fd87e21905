"""Experiment runner: build the full stack for a scenario and run it to completion.

A run is described by a :class:`repro.experiments.scenario.Scenario`; its
``run()`` facade calls the :func:`_execute` core below, which returns a
:class:`RunResult`.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.config import SimulationConfig
from repro.core.engine import Simulator
from repro.flow import DEFAULT_FIDELITY, Network
from repro.mpi.engine import MpiEngine, MpiJob
from repro.network.network import DragonflyNetwork
from repro.placement import create_placement
from repro.placement.allocator import NodeAllocator
from repro.stats.appstats import ApplicationRecord
from repro.stats.collector import StatsCollector
from repro.workloads import Application, create_application, resolve_application

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenario import Scenario
    from repro.traces.recorder import TraceRecorder

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Everything produced by one simulation run.

    ``network`` is a :class:`repro.network.network.DragonflyNetwork` at
    packet fidelity and a :class:`repro.flow.network.FlowNetwork` at flow
    fidelity; either records into one
    :class:`~repro.stats.collector.StatsCollector`.
    """

    config: SimulationConfig
    sim: Simulator
    network: Network
    engine: MpiEngine
    jobs: Dict[str, MpiJob]
    applications: Dict[str, Application]
    placements: Dict[str, List[int]]
    wall_seconds: float
    completed: bool = True
    extras: dict = field(default_factory=dict)

    @property
    def fidelity(self) -> str:
        """Fidelity the run executed at: always ``config.fidelity``."""
        return self.config.fidelity

    @property
    def stats(self) -> StatsCollector:
        """Statistics collector of this run."""
        return self.network.stats

    def _key(self, name: str) -> str:
        """Job key for ``name`` (jobs are keyed by canonical application name)."""
        return name if name in self.jobs else resolve_application(name)

    def record(self, name: str) -> ApplicationRecord:
        """Per-application record of job ``name`` (case-insensitive)."""
        return self.jobs[self._key(name)].record

    def application(self, name: str) -> Application:
        """Application object of job ``name`` (case-insensitive)."""
        return self.applications[self._key(name)]

    @property
    def makespan_ns(self) -> float:
        """Simulated time when the run finished.

        For runs where every rank completed, this is the time the *last rank
        finished its program* — derived from the job-completion records, so
        trailing bookkeeping events (credit returns, and in particular the
        ``ROUTING_FEEDBACK`` signals q-adaptive schedules after the final
        packet is ejected) never inflate the completion time.  Windowed runs
        that terminated on measurement-window expiry report the time of the
        last fired event (the window bound while traffic was still flowing),
        and incomplete runs report the clock where they stopped.
        """
        if not self.completed:
            return self.sim.now
        finishes = [
            max(job.record.finish_time.values())
            for job in self.jobs.values()
            if job.record.finish_time
        ]
        if self.engine.all_finished and len(finishes) == len(self.jobs):
            return max(finishes)
        return self.sim.last_event_time

    def summary(self) -> dict:
        """Coarse run summary (used by reports and tests)."""
        return {
            "routing": self.config.routing.algorithm,
            "completed": self.completed,
            "makespan_ns": self.makespan_ns,
            "wall_seconds": self.wall_seconds,
            "jobs": {name: job.record.summary() for name, job in self.jobs.items()},
            "network": self.stats.summary(),
        }


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic GC for the duration of the event loop.

    Event-driven simulation allocates millions of short-lived objects whose
    lifetimes are fully handled by reference counting; the cyclic collector's
    periodic full-heap scans contribute nothing but wall-clock (measured at
    ~40% of a 100k-endpoint flow run).  Pausing it during ``engine.run`` is
    invisible to results — collection resumes (and catches any cycles) as
    soon as the run finishes.  A no-op when GC is already disabled, so
    nested or caller-managed runs behave.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _execute(
    scenario: "Scenario",
    require_completion: bool = True,
    recorder: Optional["TraceRecorder"] = None,
) -> RunResult:
    """Build the simulator stack for ``scenario`` and run it (core behind ``Scenario.run``).

    The scenario has already validated its jobs (non-empty, distinct
    canonical names) and placement policy.  ``recorder`` optionally attaches
    a :class:`~repro.traces.recorder.TraceRecorder` to the engine before any
    program runs (pure observation — the simulation is identical with or
    without it).
    """
    config = scenario.config
    started = time.perf_counter()
    sim = Simulator()
    network: Network
    if config.fidelity == DEFAULT_FIDELITY:
        network = DragonflyNetwork(sim, config)
    else:
        # Flow fidelity: same topology, same MPI layer, fluid flows instead
        # of packets (see repro.flow).
        from repro.flow.network import FlowNetwork

        network = FlowNetwork(sim, config)
    engine = MpiEngine(network)
    engine.recorder = recorder
    allocator = NodeAllocator(network.num_nodes)
    policy = create_placement(scenario.placement)
    placement_rng = network.rng.get("placement")

    applications: Dict[str, Application] = {}
    placements: Dict[str, List[int]] = {}
    for spec in scenario.jobs:
        application = create_application(spec.name, spec.num_ranks, **spec.kwargs)
        nodes = allocator.allocate(spec.name, spec.num_ranks, policy, placement_rng)
        engine.add_job(
            spec.name, nodes, application=application, start_time=spec.start_time
        )
        applications[spec.name] = application
        placements[spec.name] = nodes

    # Windowed runs terminate on measurement-window expiry instead of
    # all_finished — the only way to bound continuous (offered-load) jobs,
    # whose rank programs never finish by design.
    window_end = config.window_end_ns
    until = config.max_time_ns
    if window_end is not None:
        until = window_end if until is None else min(until, window_end)
    continuous = [
        name
        for name, application in applications.items()
        if getattr(application, "offered_load", None) is not None
    ]
    if continuous and until is None and config.max_events is None:
        raise ValueError(
            f"jobs {continuous} inject continuously (offered_load is set) and "
            "would never finish; bound the run with measurement_ns (plus an "
            "optional warmup_ns), max_time_ns, or max_events"
        )
    with _gc_paused():
        engine.run(until=until, max_events=config.max_events)
    window_elapsed = window_end is not None and sim.now >= window_end
    completed = engine.all_finished or window_elapsed
    if require_completion and not completed:
        raise RuntimeError(
            "simulation stopped before all ranks finished; raise max_time_ns/max_events "
            f"(stopped at {sim.now:.0f} ns with {sim.pending_events} pending events)"
        )
    wall = time.perf_counter() - started
    jobs = {job.name: job for job in engine.jobs}
    return RunResult(
        config=config,
        sim=sim,
        network=network,
        engine=engine,
        jobs=jobs,
        applications=applications,
        placements=placements,
        wall_seconds=wall,
        completed=completed,
    )
