"""Fig. 4 — pairwise communication time under different backgrounds/routings.

The paper's Fig. 4 shows, for six target applications, the mean and standard
deviation of per-process communication time under seven backgrounds and four
routing algorithms.  The benchmark regenerates a representative slice of that
matrix (full sweep with ``REPRO_BENCH_FULL=1``) and checks the qualitative
findings: high-injection-rate backgrounds interfere most, and Q-adaptive
keeps the target's communication time at or below adaptive routing's.

The comparison rows come **from the result store**
(`repro.analysis.comparison_rows`): missing scenarios are simulated
once and recorded, so a warm store regenerates the figure rows without
running a single simulation.
"""

from conftest import (
    BENCH_SCALE,
    BENCH_SEED,
    FULL_SWEEP,
    bench_store,
    ensure_stored,
    pairwise_scenarios,
    routings_under_test,
)

from repro.analysis import comparison_rows, format_table

TARGETS = ["FFT3D", "LQCD"] if not FULL_SWEEP else ["FFT3D", "LU", "LQCD", "CosmoFlow", "Stencil5D", "LULESH"]
BACKGROUNDS = [None, "UR", "Halo3D"] if not FULL_SWEEP else [None, "UR", "LU", "FFT3D", "CosmoFlow", "DL", "Halo3D"]


def _pairs():
    for target in TARGETS:
        for background in BACKGROUNDS:
            if background == target:
                continue
            yield target, background


def _build_rows():
    scenarios = []
    for routing in routings_under_test():
        for target, background in _pairs():
            baseline, interfered = pairwise_scenarios(target, background, routing)
            scenarios.append(baseline)
            if interfered is not None:
                scenarios.append(interfered)
    ensure_stored(scenarios)
    # One comparison_rows call per pair covers every routing at once — the
    # full sweep would otherwise rescan the store per (routing, pair) cell.
    rows = []
    for target, background in _pairs():
        rows.extend(
            comparison_rows(
                bench_store(), target, background,
                routings=routings_under_test(), seed=BENCH_SEED, scale=BENCH_SCALE,
            )
        )
    return rows


def test_fig04_pairwise_comm_time(benchmark):
    rows = benchmark.pedantic(_build_rows, rounds=1, iterations=1)
    print("\nFig. 4 — pairwise communication time (bench scale)\n" + format_table(
        rows,
        ["routing", "target", "background", "standalone_comm_ns", "interfered_comm_ns", "slowdown", "variation"],
    ))

    def slowdown(routing, target, background):
        for row in rows:
            if (
                row["routing"] == routing
                and row["target"] == target
                and row["background"] == (background or "None")
            ):
                return row["slowdown"]
        raise KeyError((routing, target, background))

    for routing in routings_under_test():
        # The highest-injection-rate background (Halo3D) must interfere with
        # FFT3D at least as much as the benign UR background does.
        assert slowdown(routing, "FFT3D", "Halo3D") >= slowdown(routing, "FFT3D", "UR") - 0.02
        # Large-peak-ingress LQCD resists interference (paper Section V-C):
        # its slowdown stays well below FFT3D's under the same aggressor.
        assert slowdown(routing, "LQCD", "Halo3D") <= slowdown(routing, "FFT3D", "Halo3D") + 0.15

    if "par" in routings_under_test() and "q-adaptive" in routings_under_test():
        # Q-adaptive mitigates interference on the vulnerable target at least
        # as well as PAR (paper: up to 42.63 % communication-time saving).
        par_comm = next(
            r["interfered_comm_ns"] for r in rows
            if r["routing"] == "par" and r["target"] == "FFT3D" and r["background"] == "Halo3D"
        )
        q_comm = next(
            r["interfered_comm_ns"] for r in rows
            if r["routing"] == "q-adaptive" and r["target"] == "FFT3D" and r["background"] == "Halo3D"
        )
        assert q_comm <= par_comm * 1.05
