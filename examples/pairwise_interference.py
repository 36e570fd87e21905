#!/usr/bin/env python3
"""Pairwise interference: FFT3D co-running with Halo3D under four routings.

Reproduces the core experiment of the paper's Section V at benchmark scale:
the communication time of FFT3D (the vulnerable, all-to-all application) when
Halo3D (the highest-injection-rate aggressor) shares the network, compared
across UGALg, UGALn, PAR and Q-adaptive routing.  The two presets — the
``pairwise/FFT3D`` baseline and the ``pairwise/FFT3D+Halo3D`` co-run — are
swept into a result store and the comparison is read back out of it.  The
same study from the command line:

    dragonfly-sim sweep --scenario pairwise/FFT3D pairwise/FFT3D+Halo3D \\
        --routings ugal-g ugal-n par q-adaptive --seed 3 --scale 0.3
    dragonfly-sim report pairwise/FFT3D+Halo3D

Run with:  python examples/pairwise_interference.py
(set REPRO_SMOKE=1 for a faster two-routing, reduced-volume run)
"""

import os
import tempfile
from pathlib import Path

from repro.analysis import build_report, comparison_rows
from repro.experiments.configs import ROUTINGS
from repro.experiments.scenario import expand_grid, get_scenario
from repro.experiments.sweep import run_sweep
from repro.results import ResultStore

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
TARGET = "FFT3D"
BACKGROUND = "Halo3D"
SCALE = 0.15 if SMOKE else 0.3
COMPARED = ["par", "q-adaptive"] if SMOKE else ROUTINGS


def main() -> None:
    pair = f"pairwise/{TARGET}+{BACKGROUND}"
    bases = [
        get_scenario(name).with_updates(scale=SCALE)
        for name in (f"pairwise/{TARGET}", pair)
    ]
    grid = expand_grid(bases, routings=COMPARED, seeds=[3])
    with tempfile.TemporaryDirectory(prefix="dragonfly-sim-") as scratch:
        with ResultStore(Path(scratch) / "results.sqlite") as store:
            run_sweep(grid, workers=os.cpu_count() or 1, store=store)
            print(build_report(store, pair))
            rows = comparison_rows(store, TARGET, BACKGROUND)
    best = min(rows, key=lambda r: r["interfered_comm_ns"])
    print(f"\nBest routing for the interfered target: {best['routing']} "
          f"({best['interfered_comm_ns'] / 1e3:.1f} us communication time)")


if __name__ == "__main__":
    main()
