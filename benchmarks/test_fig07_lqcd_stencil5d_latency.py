"""Fig. 7 — LQCD / Stencil5D packet latency over time.

Regenerates the packet-latency-vs-time series of the LQCD+Stencil5D co-run
and checks the paper's peak-ingress-volume finding: Stencil5D (largest bursts)
delays LQCD's packets, while its own latency is barely affected.
"""

import numpy as np
from conftest import pairwise_run, routings_under_test

from repro.analysis.reports import format_table


def _series():
    data = {}
    for routing in routings_under_test():
        standalone, interfered = pairwise_run("LQCD", "Stencil5D", routing)
        alone_lat = standalone.stats.packet_latencies(standalone.jobs["LQCD"].job_id)
        inter_lat = interfered.stats.packet_latencies(interfered.jobs["LQCD"].job_id)
        bg_lat = interfered.stats.packet_latencies(interfered.jobs["Stencil5D"].job_id)
        times, series = interfered.stats.latency_series[interfered.jobs["LQCD"].job_id].means()
        data[routing] = {
            "lqcd_alone_mean": float(alone_lat.mean()) if alone_lat.size else 0.0,
            "lqcd_interfered_mean": float(inter_lat.mean()) if inter_lat.size else 0.0,
            "lqcd_interfered_p99": float(np.percentile(inter_lat, 99)) if inter_lat.size else 0.0,
            "stencil5d_mean": float(bg_lat.mean()) if bg_lat.size else 0.0,
            "series_points": int(series.size),
        }
    return data


def test_fig07_lqcd_stencil5d_latency(benchmark):
    data = benchmark.pedantic(_series, rounds=1, iterations=1)
    rows = [{"routing": k, **v} for k, v in data.items()]
    print("\nFig. 7 — LQCD/Stencil5D packet latency (ns, bench scale)\n" + format_table(rows))

    for routing, entry in data.items():
        assert entry["series_points"] > 0
        assert entry["lqcd_alone_mean"] > 0 and entry["stencil5d_mean"] > 0
        # Stencil5D's large bursts must not *reduce* LQCD's packet latency.
        assert entry["lqcd_interfered_mean"] >= 0.8 * entry["lqcd_alone_mean"]
