"""The four benchmark workloads, built from ``--seed`` and nothing else.

Each builder returns a :class:`Workload`: the ``Scenario`` objects one
repetition runs, in order.  The program under test receives only these
objects.  The size arguments exist so ``test_perf_harness.py`` can build the
same shapes on ``tiny_system()``; the benchmark itself always uses the
defaults, which are part of the benchmark's definition (see README.md for why
each size was chosen and what it costs).

All inputs are chosen so that their *cost* barely depends on the seed (event
counts move by < 1 % across seeds, 4-8 % on the hotspot curves; see
README.md): the seed still changes placements, routing tie-breaks and Q-table
exploration, but no regression gate can be held on inputs whose cost swings
2x with the placement draw (which is what random placement does to the
flow-fidelity mix).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from repro.config import SimulationConfig, SystemConfig, paper_system
from repro.experiments.configs import AppSpec, bench_config
from repro.experiments.scenario import (
    Scenario,
    get_scenario,
    loadcurve_scenario,
    mixed_scenario,
    pairwise_scenario,
    scenario_names,
)

ROUTINGS = ("par", "q-adaptive")

#: Worker processes of the ``sweep72`` cold sweep (the sandbox has 2 cores).
SWEEP_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what a repetition runs and how."""

    name: str
    #: label -> scenario, in execution order; labels are unique and stable
    #: across seeds (they key ``sim_digest`` and the per-scenario timings).
    scenarios: Dict[str, Scenario]
    #: True: a repetition is one cold ``run_sweep(workers=2)`` of all
    #: scenarios into a fresh store.  False: ``Scenario.run`` +
    #: ``flatten_run`` per scenario, in this process.
    sweep: bool = False
    #: Reports rendered from the store in every store-only pass.
    reports: Tuple[str, ...] = ()
    #: (packet, flow) pair run once, outside the timed repetitions, for
    #: ``flow.makespan_rel_err``.
    accuracy_pair: Optional[Tuple[Scenario, Scenario]] = None
    #: Label of the scenario re-run once under the ``fast`` backend in a
    #: traced run (``backends.fast.run_s``).
    fast_probe: Optional[str] = None
    #: Label of the scenario recorded, loaded and replayed as a trace in a
    #: traced run (``traces.*``).
    trace_probe: Optional[str] = None


def mix1056(
    seed: int,
    system: Optional[SystemConfig] = None,
    total_nodes: int = 1056,
    scale: float = 0.01,
) -> Workload:
    """The paper's headline experiment: the Table II mix on the full system."""
    system = system if system is not None else paper_system()
    scenarios = {}
    for routing in ROUTINGS:
        config = SimulationConfig(system=system, seed=seed).with_routing(routing)
        scenarios[routing] = mixed_scenario(
            total_nodes=total_nodes, scale=scale, config=config
        )
    return Workload("mix1056", scenarios, fast_probe="par")


def loadcurve72(
    seed: int,
    system: Optional[SystemConfig] = None,
    measurement_ns: float = 30_000.0,
    num_ranks: Optional[int] = None,
) -> Workload:
    """Open-loop steady state at 0.7 offered load on the 72-node bench system."""
    scenarios = {}
    for pattern in ("shift", "hotspot"):
        for routing in ROUTINGS:
            config = bench_config(routing, seed=seed)
            scenarios[f"{pattern}/{routing}"] = loadcurve_scenario(
                pattern,
                offered_load=0.7,
                num_ranks=num_ranks,
                measurement_ns=measurement_ns,
                config=config if system is None else config.with_system(system),
            )
    return Workload("loadcurve72", scenarios)


def flowscale(
    seed: int,
    mix_system: Optional[SystemConfig] = None,
    mix_nodes: int = 1000,
    shift_system: Optional[SystemConfig] = None,
    shift_ranks: int = 40_000,
    accuracy_scale: float = 0.3,
) -> Workload:
    """Flow fidelity, two contrasting uses: coupled mix and wide shift."""
    mix_config = (
        SimulationConfig(
            system=mix_system if mix_system is not None else paper_system(), seed=seed
        )
        .with_routing("par")
        .with_fidelity("flow")
    )
    # Contiguous placement: with random placement the max-min coupling — and
    # so the host time for the same ~57k events — swings 1.8–3.7 s with the
    # placement draw.
    mix = replace(
        mixed_scenario(total_nodes=mix_nodes, scale=0.05, config=mix_config),
        placement="contiguous",
    )
    if shift_system is None:
        shift_system = SystemConfig(num_groups=41, routers_per_group=20, nodes_per_router=50)
    shift = Scenario(
        name=f"scale/shift-{shift_ranks}",
        jobs=(AppSpec("shift", shift_ranks, {"message_bytes": 4096, "iterations": 1}),),
        config=SimulationConfig(system=shift_system, seed=seed)
        .with_routing("minimal")
        .with_fidelity("flow"),
        placement="contiguous",
    )
    packet = pairwise_scenario("FFT3D", "UR", routing="par", seed=seed, scale=accuracy_scale)
    return Workload(
        "flowscale",
        {"mix1000": mix, "shift40k": shift},
        accuracy_pair=(packet, packet.with_updates(fidelity="flow")),
    )


def sweep72(seed: int, scale: float = 0.1) -> Workload:
    """The study pipeline: a 26-cell grid through ``run_sweep`` and the store."""
    names = [
        "table1/UR", "table1/LU", "table1/FFT3D",
        "pairwise/FFT3D", "pairwise/FFT3D+UR", "pairwise/FFT3D+Halo3D",
        "mixed/table2",
    ] + [name for name in scenario_names() if name.startswith("mixed/solo/")]
    scenarios = {
        f"{name}/{routing}": get_scenario(name).with_updates(
            routing=routing, seed=seed, scale=scale
        )
        for name in names
        for routing in ROUTINGS
    }
    reports = ("table1", "table2", "mixed", "pairwise/FFT3D+UR", "pairwise/FFT3D+Halo3D")
    return Workload(
        "sweep72", scenarios, sweep=True, reports=reports, trace_probe="table1/FFT3D/par"
    )


BUILDERS: Dict[str, Callable[[int], Workload]] = {
    "mix1056": mix1056,
    "loadcurve72": loadcurve72,
    "flowscale": flowscale,
    "sweep72": sweep72,
}
