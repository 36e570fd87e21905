"""Table I — application communication intensity.

Regenerates the per-application rows of Table I (total message volume,
execution time, message injection rate, peak ingress volume) and checks the
orderings the paper's analysis relies on.  The rows are built **from the
result store** (`repro.analysis.reports.table1_rows`): standalone runs are
simulated only for scenarios the store does not already hold, so a warm
store re-renders the table without launching a single simulation.
"""

from conftest import BENCH_SCALE, BENCH_SEED, bench_store, ensure_stored, standalone_scenario

from repro.analysis.reports import build_report, table1_rows
from repro.experiments.configs import BENCH_RANKS

#: The bench store may hold other routings/scales; select this suite's runs.
FILTERS = dict(routing="par", seed=BENCH_SEED, scale=BENCH_SCALE)


def _build_table():
    # Table I is defined over the nine proxy applications; the synthetic
    # traffic patterns registered alongside them have no bench-scale rank
    # counts and no Table I row.
    ensure_stored(standalone_scenario(name, "par") for name in BENCH_RANKS)
    return table1_rows(bench_store(), **FILTERS)


def test_table1_intensity(benchmark):
    rows = benchmark.pedantic(_build_table, rounds=1, iterations=1)
    print("\n" + build_report(bench_store(), "table1", **FILTERS))

    assert {row["app"] for row in rows} == set(BENCH_RANKS)
    rates = {row["app"]: row["injection_rate_gbps"] for row in rows}
    peaks = {row["app"]: row["peak_ingress_bytes"] for row in rows}

    # Paper, Table I: Halo3D has by far the highest injection rate and
    # CosmoFlow the lowest; UR/LU/FFT3D have tiny peak ingress volumes while
    # Stencil5D's is the largest, followed by LQCD, then DL ~ CosmoFlow.
    assert max(rates, key=rates.get) == "Halo3D"
    assert min(rates, key=rates.get) == "CosmoFlow"
    assert rates["LULESH"] > rates["LU"]
    assert rates["Halo3D"] > 2 * rates["LQCD"]

    assert max(peaks, key=peaks.get) == "Stencil5D"
    assert min(peaks, key=peaks.get) == "UR"
    assert peaks["LQCD"] > peaks["DL"] > peaks["CosmoFlow"] > peaks["LULESH"] > peaks["Halo3D"]
    assert peaks["FFT3D"] > peaks["LU"] > peaks["UR"]
