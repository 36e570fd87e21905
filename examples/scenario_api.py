#!/usr/bin/env python3
"""Declarative scenarios: describe, serialize, run and sweep one experiment.

A :class:`repro.experiments.Scenario` is the single canonical description of
an experiment — system shape, routing, simulation knobs, placement and the
job list — and it round-trips exactly through JSON.  This example:

1. builds a pairwise co-run scenario from the built-in library,
2. dumps it to a JSON file and reloads it (``==`` the original),
3. runs it directly via ``Scenario.run()``,
4. expands it into a (routing x seed) grid and sweeps it with caching —
   something the old single-workload sweep could not express.

The same workflow is available from the command line:

    dragonfly-sim scenarios                       # list the library
    dragonfly-sim run pairwise/FFT3D+Halo3D       # run a preset
    dragonfly-sim run pairwise/FFT3D+Halo3D --dump-scenario pair.json
    dragonfly-sim sweep --scenario pair.json --routings par q-adaptive

Run with:  python examples/scenario_api.py
(set REPRO_SMOKE=1 for a faster reduced-grid run)
"""

import os
import sys
import tempfile
from pathlib import Path

from repro.analysis.reports import format_table
from repro.experiments import (
    Scenario,
    dump_scenarios,
    expand_grid,
    load_scenarios,
    pairwise_scenario,
)
from repro.experiments.sweep import run_sweep

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")


def main() -> None:
    # 1. Describe: a pairwise co-run at reduced message volume so the demo
    #    finishes in seconds (drop scale for the full benchmark volumes).
    scenario = pairwise_scenario("FFT3D", "Halo3D", scale=0.15 if SMOKE else 0.3)

    # 2. Serialize: strict JSON round-trip (unknown keys are rejected).
    #    Scratch output goes under the system temp dir, not the working tree.
    with tempfile.TemporaryDirectory(prefix="dragonfly-sim-") as scratch:
        path = Path(scratch) / "pairwise_scenario.json"
        dump_scenarios(path, [scenario])
        (reloaded,) = load_scenarios(path)
        assert reloaded == scenario
        assert Scenario.from_json(scenario.to_json()) == scenario
        print(f"wrote {path} ({path.stat().st_size} bytes), round-trip exact")

    # 3. Run: the facade every entry point goes through.
    result = scenario.run()
    for name, job in result.jobs.items():
        print(f"  {name:8s} mean comm time {job.record.mean_comm_time / 1e3:8.1f} us")

    # 4. Sweep: the co-run expands along declared axes like any scenario.
    #    The standalone baseline sweeps alongside it, so the store ends up
    #    holding both halves of the Fig. 4 comparison.  Results are cached
    #    in the SQLite result store (docs/results.md) — warm re-runs
    #    simulate nothing, and `dragonfly-sim report pairwise/FFT3D+Halo3D
    #    --store .sweep-cache/results.sqlite` renders the comparison rows
    #    straight from it.
    baseline = pairwise_scenario("FFT3D", None, scale=0.15 if SMOKE else 0.3)
    grid = expand_grid(
        [scenario, baseline],
        routings=["par", "q-adaptive"],
        seeds=[1] if SMOKE else [1, 2],
    )

    def progress(done, total, res):
        origin = "cache" if res.cached else f"{res.wall_seconds:.1f}s"
        print(f"[{done}/{total}] {res.scenario.name} ({origin})", file=sys.stderr)

    results = run_sweep(
        grid,
        workers=os.cpu_count() or 1,
        store=".sweep-cache/results.sqlite",
        progress=progress,
    )
    print("\n=== pairwise (routing x seed) grid ===")
    print(format_table(
        [r.as_row() for r in results],
        ["scenario", "routing", "seed", "makespan_ns",
         "comm_time_ns/FFT3D", "comm_time_ns/Halo3D", "cached"],
    ))


if __name__ == "__main__":
    main()
