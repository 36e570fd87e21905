#!/usr/bin/env python3
"""Mixed-workload study: six applications sharing the system (Section VI).

Sweeps the Table II mix (FFT3D, CosmoFlow, LU, UR, LQCD, Stencil5D at the
paper's node proportions) and each application's standalone baseline — the
``mixed/*`` preset family — under PAR and Q-adaptive routing into a result
store, then prints the per-application interference, the job sizes and
the system-wide packet-latency tail and stall time read back from the
store.  The same study from the command line:

    dragonfly-sim sweep --scenario 'mixed/*' --routings par q-adaptive \\
        --seed 5 --scale 0.3
    dragonfly-sim report mixed

Run with:  python examples/mixed_workload.py
(set REPRO_SMOKE=1 for a faster one-routing, reduced-volume run)
"""

import fnmatch
import os
import tempfile
from pathlib import Path

from repro.analysis.reports import build_report, format_table
from repro.experiments.scenario import expand_grid, get_scenario, scenario_names
from repro.experiments.sweep import run_sweep
from repro.results import ResultStore

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
SCALE = 0.15 if SMOKE else 0.3
COMPARED = ["par"] if SMOKE else ["par", "q-adaptive"]


def main() -> None:
    bases = [
        get_scenario(name).with_updates(scale=SCALE)
        for name in fnmatch.filter(scenario_names(), "mixed/*")
    ]
    grid = expand_grid(bases, routings=COMPARED, seeds=[5])
    with tempfile.TemporaryDirectory(prefix="dragonfly-sim-") as scratch:
        with ResultStore(Path(scratch) / "results.sqlite") as store:
            run_sweep(grid, workers=os.cpu_count() or 1, store=store)
            print(build_report(store, "mixed"))
            print()
            print(build_report(store, "table2", routing=COMPARED[0]))
            system_rows = [
                {
                    "routing": run.routing,
                    "p99_latency_us": run.metric("packet_latency_p99_ns") / 1e3,
                    "port_stall_us": run.metric("total_port_stall_ns") / 1e3,
                    "makespan_us": run.metric("makespan_ns") / 1e3,
                }
                for run in store.runs_named("mixed/table2")
            ]
    print("\n=== System-wide metrics of the mix ===")
    print(format_table(system_rows))


if __name__ == "__main__":
    main()
