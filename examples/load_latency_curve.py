#!/usr/bin/env python3
"""Steady-state latency vs offered load: the classic interconnect curve.

Sweeps one synthetic traffic pattern in continuous-injection mode across a
range of offered loads (fractions of terminal link bandwidth) and two
routing algorithms, with every run bounded by a warmup + measurement window
— warmup transients (cold Q-tables, empty buffers) are excluded from every
reported metric.  Results land in a result store, and the final table is
rebuilt from the store alone (zero re-simulation).

The same study from the command line:

    dragonfly-sim sweep --scenario loadcurve/shift \
        --offered-loads 0.1 0.4 0.7 --routings par q-adaptive \
        --store loadcurve.sqlite
    dragonfly-sim report loadcurve/shift --store loadcurve.sqlite

Run with:  python examples/load_latency_curve.py
(set REPRO_SMOKE=1 for a faster reduced run on the tiny system)
"""

import os
import sys
import tempfile
from pathlib import Path

from repro.analysis.reports import LOADCURVE_COLUMNS, format_table, loadcurve_rows
from repro.config import SimulationConfig, tiny_system
from repro.experiments.scenario import expand_grid, get_scenario, loadcurve_scenario
from repro.experiments.sweep import run_sweep
from repro.results import ResultStore

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")

PATTERN = "shift"
LOADS = [0.1, 0.5] if SMOKE else [0.1, 0.3, 0.5, 0.7, 0.9]
ROUTINGS = ["par"] if SMOKE else ["par", "q-adaptive"]


def make_grid():
    """One windowed continuous-injection cell per (routing, offered load)."""
    if SMOKE:  # tiny system + short windows so the docs CI finishes in seconds
        base = loadcurve_scenario(
            PATTERN,
            num_ranks=6,
            warmup_ns=2_000.0,
            measurement_ns=10_000.0,
            config=SimulationConfig(system=tiny_system()),
        )
    else:  # the registered 72-node preset (20 µs warmup, 100 µs measurement)
        base = get_scenario(f"loadcurve/{PATTERN}")
    return expand_grid(base, routings=ROUTINGS, offered_loads=LOADS)


def main() -> None:
    store_path = Path(tempfile.mkdtemp(prefix="loadcurve-")) / "results.sqlite"
    grid = make_grid()
    print(f"sweeping {len(grid)} steady-state cells -> {store_path}", file=sys.stderr)
    with ResultStore(store_path) as store:
        run_sweep(grid, workers=1 if SMOKE else (os.cpu_count() or 1), store=store)

        # The curve, rebuilt from the store alone — no simulation.
        rows = loadcurve_rows(store, PATTERN)
        print(f"\nSteady-state latency vs offered load — {PATTERN}")
        print(format_table(rows, LOADCURVE_COLUMNS))

    # Per routing algorithm, tail latency grows with offered load (the
    # defining property of the curve); check it so this run is a real test.
    # The p99 tail is the robust signal: an adaptive algorithm's *mean* can
    # dip slightly at low loads while its Q-estimates warm up.
    for routing in ROUTINGS:
        curve = [row for row in rows if row["routing"] == routing]
        p99s = [row["latency_p99_ns"] for row in curve]
        assert p99s == sorted(p99s), f"{routing}: p99 latency not monotone in load"
        assert curve[-1]["latency_mean_ns"] > curve[0]["latency_mean_ns"]
    print("\ntail latency grows monotonically with offered load — curve reproduced")


if __name__ == "__main__":
    main()
