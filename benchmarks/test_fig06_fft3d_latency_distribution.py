"""Fig. 6 — FFT3D packet-latency distribution, standalone vs interfered by Halo3D.

Regenerates the latency quartiles and tail percentiles (p95/p99) of FFT3D's
packets for both the standalone and the Halo3D-interfered runs, under PAR and
Q-adaptive routing, and checks the paper's tail-latency finding: interference
stretches the tail, and Q-adaptive controls the p99 at least as well as PAR.
"""

from conftest import pairwise_run, routings_under_test

from repro.analysis.reports import format_table
from repro.metrics.latency import latency_summary


def _distributions():
    rows = []
    for routing in routings_under_test():
        standalone, co_run = pairwise_run("FFT3D", "Halo3D", routing)
        alone, interfered = (
            latency_summary(run.stats, app_id=run.jobs["FFT3D"].job_id)
            for run in (standalone, co_run)
        )
        rows.append(
            {
                "routing": routing,
                "case": "alone",
                **{k: v for k, v in alone.as_dict().items() if k != "count"},
            }
        )
        rows.append(
            {
                "routing": routing,
                "case": "interfered",
                **{k: v for k, v in interfered.as_dict().items() if k != "count"},
            }
        )
    return rows


def test_fig06_fft3d_latency_distribution(benchmark):
    rows = benchmark.pedantic(_distributions, rounds=1, iterations=1)
    print("\nFig. 6 — FFT3D packet latency distribution (ns, bench scale)\n" + format_table(
        rows, ["routing", "case", "mean_ns", "median_ns", "p95_ns", "p99_ns", "tail_dispersion"]
    ))

    table = {(r["routing"], r["case"]): r for r in rows}
    for routing in routings_under_test():
        alone = table[(routing, "alone")]
        interfered = table[(routing, "interfered")]
        # Percentiles are ordered and positive.
        assert 0 < alone["median_ns"] <= alone["p95_ns"] <= alone["p99_ns"]
        # Interference from Halo3D must not *shorten* the tail.
        assert interfered["p99_ns"] >= 0.9 * alone["p99_ns"]

    if {"par", "q-adaptive"} <= set(routings_under_test()):
        par = table[("par", "interfered")]
        qadp = table[("q-adaptive", "interfered")]
        # Paper: Q-adaptive's interfered p99 is about half of PAR's; at bench
        # scale we require it to be no worse.
        assert qadp["p99_ns"] <= par["p99_ns"] * 1.1
