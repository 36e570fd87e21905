"""Tests of the experiment harness, the analysis metrics and the CLI."""

import numpy as np
import pytest

from repro.analysis.reports import build_report, format_table, table1_rows
from repro.cli import build_parser
from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import (
    AppSpec,
    BENCH_RANKS,
    PAPER_TABLE2_JOB_SIZES,
    bench_config,
    bench_spec,
)
from repro.experiments.scenario import (
    Scenario,
    mixed_scenario,
    mixed_solo_scenarios,
    pairwise_scenario,
    scenario_names,
)
from repro.experiments.sweep import run_sweep
from repro.metrics.congestion import congestion_index_matrix, stall_time_by_group
from repro.metrics.intensity import injection_rate_gbps
from repro.metrics.interference import interference_summary
from repro.metrics.latency import latency_summary
from repro.results import ResultStore


def _tiny_config(routing="par", seed=3):
    return SimulationConfig(system=tiny_system(), seed=seed).with_routing(routing)


def _run(config, specs, placement="random", require_completion=True):
    """Run ``specs`` co-located on ``config``'s system as one scenario."""
    scenario = Scenario("test/run", tuple(specs), config, placement)
    return scenario.run(require_completion=require_completion)


# ------------------------------------------------------------------ configs
def test_bench_config_and_specs():
    config = bench_config("q-adaptive", seed=9)
    assert config.routing.algorithm == "q-adaptive"
    assert config.system.num_nodes == 72
    spec = bench_spec("FFT3D", scale=0.5)
    assert spec.name == "FFT3D" and spec.kwargs["scale"] == 0.5
    with pytest.raises(ValueError):
        bench_spec("nope")
    assert [name for name in scenario_names() if name.startswith("table1/")] == sorted(
        f"table1/{app}" for app in BENCH_RANKS
    )


def test_pairwise_scenario_job_structure():
    specs = pairwise_scenario("FFT3D", "Halo3D", scale=0.5).jobs
    assert [s.name for s in specs] == ["FFT3D", "Halo3D"]
    assert specs[1].kwargs["iterations"] > 0
    assert len(pairwise_scenario("FFT3D", None).jobs) == 1
    with pytest.raises(ValueError):
        pairwise_scenario("FFT3D", "FFT3D")


def test_mixed_scenario_respects_node_budget_and_proportions():
    specs = mixed_scenario(total_nodes=70).jobs
    assert sum(s.num_ranks for s in specs) <= 70
    sizes = {s.name: s.num_ranks for s in specs}
    assert set(sizes) == set(PAPER_TABLE2_JOB_SIZES)
    # LQCD and Stencil5D take the largest shares, as in Table II.
    assert sizes["LQCD"] == max(sizes.values())
    assert sizes["Stencil5D"] >= sizes["FFT3D"]


# ------------------------------------------------------------------- runner
def test_scenario_run_places_jobs_disjointly_and_completes():
    config = _tiny_config()
    specs = [AppSpec("UR", 6, {"scale": 0.3}), AppSpec("LU", 6, {"scale": 0.3})]
    result = _run(config, specs)
    assert result.completed
    assert set(result.jobs) == {"UR", "LU"}
    assert not set(result.placements["UR"]) & set(result.placements["LU"])
    assert result.makespan_ns > 0
    assert result.summary()["routing"] == "par"


def test_scenario_rejects_duplicate_names_and_empty_specs():
    config = _tiny_config()
    with pytest.raises(ValueError):
        _run(config, [])
    with pytest.raises(ValueError):
        _run(config, [AppSpec("UR", 4, {}), AppSpec("UR", 4, {})])


def test_scenario_run_detects_incomplete_runs():
    config = _tiny_config()
    limited = SimulationConfig(
        system=config.system, routing=config.routing, seed=config.seed, max_events=50
    )
    with pytest.raises(RuntimeError):
        _run(limited, [AppSpec("Halo3D", 8, {"scale": 0.3})])
    partial = _run(
        limited, [AppSpec("Halo3D", 8, {"scale": 0.3})], require_completion=False
    )
    assert not partial.completed


def test_makespan_not_inflated_by_unused_max_time_watchdog():
    config = _tiny_config()
    watchdog = SimulationConfig(
        system=config.system, routing=config.routing, seed=config.seed, max_time_ns=1e12
    )
    result = _run(watchdog, [AppSpec("UR", 4, {"scale": 0.2})])
    assert result.completed
    assert result.sim.now == 1e12  # run(until=...) idles the clock to the bound
    assert result.makespan_ns < 1e9  # ...but makespan reports the last event


def test_completion_time_not_inflated_by_trailing_routing_feedback():
    """Regression: q-adaptive schedules ROUTING_FEEDBACK events that can fire
    after the last rank finished, inflating last_event_time-derived
    completion times.  Makespan now derives from job-completion records, so
    minimal and q-adaptive account completion identically on the same tiny
    scenario."""
    # compute_ns=0 makes the final operation a *wait*: the last rank finishes
    # the moment its last packet arrives, with credit returns (and, under
    # q-adaptive, feedback signals) still scheduled behind it — the exact
    # regime where last_event_time over-reports completion.
    specs = [AppSpec("permutation", 6, {"scale": 0.3, "iterations": 3, "compute_ns": 0.0})]
    for routing in ("minimal", "q-adaptive"):
        result = _run(_tiny_config(routing), specs)
        assert result.completed
        last_finish = max(result.record("permutation").finish_time.values())
        assert result.makespan_ns == last_finish
        # Trailing bookkeeping (credit returns; feedback under q-adaptive)
        # fires after the last rank finishes but no longer moves makespan.
        assert result.sim.last_event_time > last_finish
        if routing == "q-adaptive":
            assert result.network.routing.feedback_count > 0


def test_run_is_reproducible_for_fixed_seed():
    config = _tiny_config(seed=11)
    spec = AppSpec("FFT3D", 8, {"scale": 0.3})
    first = _run(config, [spec])
    second = _run(config, [spec])
    assert first.record("FFT3D").mean_comm_time == pytest.approx(
        second.record("FFT3D").mean_comm_time
    )
    assert first.placements == second.placements


def test_contiguous_placement_runs():
    config = _tiny_config()
    result = _run(config, [AppSpec("LU", 9, {"scale": 0.3})], placement="contiguous")
    assert result.placements["LU"] == sorted(result.placements["LU"])


# ------------------------------------------------------------------ metrics
def test_table1_rows_contain_measured_metrics():
    scenario = Scenario("table1/UR", (AppSpec("UR", 8, {"scale": 0.3}),), _tiny_config())
    result = scenario.run()
    store = ResultStore()
    store.record_run(scenario, result)
    (row,) = table1_rows(store)
    assert row["app"] == "UR" and row["pattern"] == "random"
    assert row["injection_rate_gbps"] == pytest.approx(injection_rate_gbps(result.record("UR")))
    assert row["peak_ingress_bytes"] == result.application("UR").peak_ingress_bytes()


def test_congestion_metrics_from_a_real_run():
    config = _tiny_config()
    result = _run(config, [AppSpec("Halo3D", 8, {"scale": 0.4})])
    matrix = congestion_index_matrix(result.network)
    groups = result.network.topology.num_groups
    assert matrix.shape == (groups, groups)
    assert np.all(matrix >= 0) and np.all(matrix <= 1)
    assert matrix.sum() > 0
    stalls = stall_time_by_group(result.network)
    assert stalls["local_mean"] >= 0 and stalls["global_mean"] >= 0


# ----------------------------------------------------------------- analysis
def test_pairwise_presets_show_interference_and_report_from_the_store():
    config = _tiny_config()
    alone, pair = (
        pairwise_scenario(
            "FFT3D", background, scale=0.4, target_ranks=12, background_ranks=12,
            config=config,
        )
        for background in (None, "Halo3D")
    )
    baseline, co_run = alone.run(), pair.run()
    summary = interference_summary(baseline.record("FFT3D"), co_run.record("FFT3D"))
    assert summary.app == "FFT3D"
    assert summary.interfered_comm_ns > 0
    latency = latency_summary(co_run.stats, app_id=co_run.jobs["FFT3D"].job_id)
    assert latency.count > 0
    times, rates = co_run.stats.app_throughput_series(co_run.jobs["FFT3D"].job_id)
    assert times.size == rates.size > 0
    # The same two scenarios swept into a store give the same comparison row.
    store = ResultStore()
    run_sweep([alone, pair], store=store)
    report = build_report(store, "pairwise/FFT3D+Halo3D", fmt="csv")
    assert "FFT3D,Halo3D" in report
    assert f"{summary.slowdown:.3f}" in report


def test_mixed_presets_summaries_and_reports():
    config = _tiny_config()
    mix = mixed_scenario(total_nodes=18, scale=0.3, config=config)
    solos = mixed_solo_scenarios(total_nodes=18, scale=0.3, config=config)
    mixed_result = mix.run()
    summaries = [
        interference_summary(solo.run().record(name), mixed_result.record(name))
        for solo, name in zip(solos, mixed_result.jobs)
    ]
    assert {s.app for s in summaries} == set(PAPER_TABLE2_JOB_SIZES)
    assert all(np.isfinite(s.comm_time_increase) for s in summaries)
    assert latency_summary(mixed_result.stats).count > 0
    _, rates = mixed_result.stats.system_throughput_series()
    assert rates.size and rates.mean() >= 0
    store = ResultStore()
    run_sweep([mix, *solos], store=store)
    report = build_report(store, "mixed")
    assert all(app in report for app in PAPER_TABLE2_JOB_SIZES)


def test_format_table_renders_rows():
    text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 3.25}])
    assert "a" in text and "10" in text
    assert format_table([]) == "(empty table)"


# --------------------------------------------------------------------- cli
def test_cli_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(
        ["sweep", "--scenario", "table1/FFT3D", "--seeds", "1", "2", "--workers", "3"]
    )
    assert args.command == "sweep" and args.scenario == ["table1/FFT3D"]
    assert args.seeds == [1, 2] and args.workers == 3
    assert args.store is None  # default store applied at run time
    args = parser.parse_args(["sweep", "--scenario", "pairwise/FFT3D", "pairwise/FFT3D+UR"])
    assert args.scenario == ["pairwise/FFT3D", "pairwise/FFT3D+UR"]
    args = parser.parse_args(["report", "table1", "--format", "csv"])
    assert args.command == "report" and args.name == "table1" and args.fmt == "csv"
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep"])  # --scenario is required


@pytest.mark.parametrize("retired", ["table1", "pairwise", "mixed"])
def test_cli_rejects_retired_study_subcommands(retired):
    """The study subcommands are a sweep over a preset family plus a report."""
    with pytest.raises(SystemExit):
        build_parser().parse_args([retired])
