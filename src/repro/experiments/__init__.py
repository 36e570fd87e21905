"""Experiment harness: scenarios, configurations and run drivers.

:mod:`repro.experiments.scenario` defines the declarative
:class:`~repro.experiments.scenario.Scenario` API — one serializable
description per experiment, with a registry of named presets and grid
expansion;
:mod:`repro.experiments.configs` defines the paper-scale and benchmark-scale
system/application configurations (including the Table II job sizes);
:mod:`repro.experiments.runner` builds the full simulator stack behind
``Scenario.run`` and runs it to completion;
:mod:`repro.experiments.sweep` fans scenario grids across worker processes,
cached through the persistent result store (:mod:`repro.results` — see
docs/results.md).
"""

from repro.experiments.configs import (
    AppSpec,
    BENCH_RANKS,
    PAPER_TABLE2_JOB_SIZES,
    ROUTINGS,
    SYNTHETIC_RANKS,
    bench_config,
    bench_spec,
    synthetic_spec,
)
from repro.experiments.runner import RunResult
from repro.experiments.scenario import (
    Scenario,
    dump_scenarios,
    expand_grid,
    get_scenario,
    load_scenarios,
    mixed_scenario,
    ml_scenario,
    pairwise_scenario,
    register_scenario,
    scenario_hash,
    scenario_names,
    synthetic_scenario,
    table1_scenario,
)

__all__ = [
    "AppSpec",
    "BENCH_RANKS",
    "PAPER_TABLE2_JOB_SIZES",
    "ROUTINGS",
    "SYNTHETIC_RANKS",
    "RunResult",
    "Scenario",
    "bench_config",
    "bench_spec",
    "dump_scenarios",
    "expand_grid",
    "get_scenario",
    "load_scenarios",
    "mixed_scenario",
    "ml_scenario",
    "pairwise_scenario",
    "register_scenario",
    "scenario_hash",
    "scenario_names",
    "synthetic_scenario",
    "synthetic_spec",
    "table1_scenario",
]
