"""Tests of the persistent result store and the store-backed reports."""

import json
import sqlite3
from pathlib import Path

import pytest

from repro.analysis import (
    build_report,
    comparison_rows,
    format_csv,
    format_markdown,
    mixed_rows_from_store,
    render_rows,
)
from repro.cli import main
from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import (
    Scenario,
    mixed_scenario,
    mixed_solo_scenarios,
    pairwise_scenario,
    scenario_hash,
    table1_scenario,
)
from repro.experiments.sweep import run_sweep
from repro.results import ResultStore, flatten_run, join_metric, mean_metric, split_metric


def _tiny_scenario(name="test/UR", routing="par", seed=1, scale=0.2) -> Scenario:
    config = SimulationConfig(system=tiny_system(), seed=seed, record_packets=True)
    return Scenario(
        name=name,
        jobs=(AppSpec("UR", 8, {"scale": scale}),),
        config=config.with_routing(routing),
    )


FAKE_METRICS = {
    "makespan_ns": 1000.0,
    "events_fired": 42,
    "comm_time_ns/UR": 500.0,
    "comm_time_std_ns/UR": 50.0,
}


# ------------------------------------------------------------------ schema
def test_metric_key_round_trip():
    assert split_metric("makespan_ns") == ("makespan_ns", None)
    assert split_metric("comm_time_ns/FFT3D") == ("comm_time_ns", "FFT3D")
    assert join_metric("comm_time_ns", "FFT3D") == "comm_time_ns/FFT3D"
    assert join_metric("makespan_ns") == "makespan_ns"


def test_flatten_run_covers_scenario_and_per_app_metrics():
    scenario = _tiny_scenario()
    metrics = flatten_run(scenario.run())
    for key in (
        "makespan_ns", "events_fired", "packets_injected", "mean_comm_time_ns",
        "comm_time_ns/UR", "comm_time_std_ns/UR", "execution_time_ns/UR",
        "total_msg_bytes/UR", "injection_rate_gbps/UR", "peak_ingress_bytes/UR",
        "packet_latency_mean_ns", "packet_latency_p99_ns",
    ):
        assert key in metrics, key
    assert isinstance(metrics["events_fired"], int)
    assert metrics["comm_time_ns/UR"] == metrics["mean_comm_time_ns"]


# ------------------------------------------------------------------- store
def test_store_record_and_get_round_trip(tmp_path):
    scenario = _tiny_scenario()
    with ResultStore(tmp_path / "r.sqlite") as store:
        assert store.record(scenario, FAKE_METRICS, wall_seconds=1.5)
        assert scenario in store
        assert len(store) == 1
        stored = store.get(scenario)
        assert stored.metrics == FAKE_METRICS
        # NUMERIC affinity: ints stay ints, floats stay floats.
        assert isinstance(stored.metrics["events_fired"], int)
        assert isinstance(stored.metrics["makespan_ns"], float)
        assert stored.name == "test/UR"
        assert stored.jobs == ("UR",)
        assert stored.routing == "par" and stored.seed == 1
        assert stored.wall_seconds == 1.5
        assert stored.scenario == scenario.to_dict()


def test_store_is_append_only_with_metric_backfill(tmp_path):
    scenario = _tiny_scenario()
    with ResultStore(tmp_path / "r.sqlite") as store:
        assert store.record(scenario, FAKE_METRICS)
        # Existing values are never overwritten...
        assert not store.record(scenario, {"makespan_ns": -1.0})
        assert store.get(scenario).metrics["makespan_ns"] == FAKE_METRICS["makespan_ns"]
        # ...but re-recording backfills metrics the run did not have yet
        # (how a row written by older code acquires the per-app metrics).
        assert not store.record(scenario, {"total_msg_bytes/UR": 7})
        assert store.get(scenario).metrics == {**FAKE_METRICS, "total_msg_bytes/UR": 7}


def test_store_get_rejects_tampered_scenario(tmp_path):
    """A hash collision / stale layout must read as a miss, not wrong data."""
    path = tmp_path / "r.sqlite"
    scenario = _tiny_scenario()
    with ResultStore(path) as store:
        store.record(scenario, FAKE_METRICS)
    conn = sqlite3.connect(path)
    doc = scenario.to_dict()
    doc["sim"]["seed"] = 999
    conn.execute(
        "UPDATE runs SET scenario_json = ?",
        (json.dumps(doc, sort_keys=True, separators=(",", ":")),),
    )
    conn.commit()
    conn.close()
    with ResultStore(path) as store:
        assert store.get(scenario) is None


def test_store_query_filters():
    store = ResultStore()  # in-memory
    for routing in ("par", "minimal"):
        for seed in (1, 2):
            scenario = _tiny_scenario(routing=routing, seed=seed)
            store.record(scenario, {"makespan_ns": 100.0 * seed, "comm_time_ns/UR": 1.0})
    assert len(store.runs()) == 4
    assert len(store.runs(routing="par")) == 2
    assert len(store.runs(seed=2)) == 2
    assert len(store.runs(application="UR")) == 4
    assert len(store.runs(application="FFT3D")) == 0
    assert len(store.runs(scale=0.2)) == 4
    assert len(store.runs(scale=1.0)) == 0
    rows = store.rows(metric="makespan_ns", routing="minimal")
    assert [row["value"] for row in rows] == [100.0, 200.0]
    assert all(row["app"] is None for row in rows)


def test_store_runs_named_matches_grid_expansions():
    store = ResultStore()
    store.record(_tiny_scenario(name="pairwise/UR"), FAKE_METRICS)
    store.record(_tiny_scenario(name="pairwise/UR[par,seed=2]", seed=2), FAKE_METRICS)
    store.record(_tiny_scenario(name="pairwise/UR+FFT3D"), FAKE_METRICS)
    named = store.runs_named("pairwise/UR")
    assert sorted(run.name for run in named) == ["pairwise/UR", "pairwise/UR[par,seed=2]"]


def test_store_aggregate_across_seeds():
    store = ResultStore()
    for seed, comm in [(1, 10.0), (2, 20.0), (3, 30.0)]:
        store.record(_tiny_scenario(seed=seed), {"comm_time_ns/UR": comm})
    (row,) = store.aggregate("comm_time_ns")
    assert row["count"] == 3
    assert row["mean"] == pytest.approx(20.0)
    assert row["min"] == 10.0 and row["max"] == 30.0
    assert row["p99"] == pytest.approx(29.8)
    assert row["app"] == "UR" and row["routing"] == "par"


def test_aggregate_single_seed_has_zero_std():
    store = ResultStore()
    store.record(_tiny_scenario(), {"comm_time_ns/UR": 12.5})
    (row,) = store.aggregate("comm_time_ns")
    assert row["count"] == 1
    assert row["std"] == 0.0
    assert row["mean"] == row["min"] == row["max"] == row["p99"] == 12.5


def test_aggregate_empty_selection_returns_no_rows():
    store = ResultStore()
    assert store.aggregate("comm_time_ns") == []
    store.record(_tiny_scenario(), {"comm_time_ns/UR": 1.0})
    # A metric nothing recorded, and filters matching nothing, both yield [].
    assert store.aggregate("no_such_metric") == []
    assert store.aggregate("comm_time_ns", routing="minimal") == []


def test_aggregate_never_blends_mixed_scales_or_staggers():
    """Scale and arrival-stagger are grouping axes: one statistic per config."""
    store = ResultStore()
    store.record(_tiny_scenario(seed=1, scale=0.2), {"comm_time_ns/UR": 10.0})
    store.record(_tiny_scenario(seed=2, scale=0.2), {"comm_time_ns/UR": 20.0})
    store.record(_tiny_scenario(seed=1, scale=0.4), {"comm_time_ns/UR": 99.0})
    rows = store.aggregate("comm_time_ns")
    assert [(row["scale"], row["count"], row["mean"]) for row in rows] == [
        (0.2, 2, 15.0),
        (0.4, 1, 99.0),
    ]
    # A staggered copy of the same family lands in its own group too.
    staggered = _tiny_scenario(seed=1).with_updates(start_time=30_000.0)
    store.record(staggered, {"comm_time_ns/UR": 77.0})
    rows = store.aggregate("comm_time_ns", scale=0.2)
    assert [(row["start_time"], row["count"]) for row in rows] == [
        (0.0, 2),
        (30_000.0, 1),
    ]
    # ...and ensure_uniform refuses to treat the blend as one experiment.
    from repro.results.store import ensure_uniform

    with pytest.raises(ValueError, match="arrival"):
        ensure_uniform(store.runs_named("test/UR", scale=0.2), "test/UR")


def test_aggregate_never_blends_fidelities():
    """Packet- and flow-level runs of one scenario aggregate separately."""
    store = ResultStore()
    packet = table1_scenario("UR", scale=0.05)
    store.record(packet, {"comm_time_ns/UR": 18_065.0})
    store.record(packet.with_updates(fidelity="flow"), {"comm_time_ns/UR": 11_637.0})
    rows = store.aggregate("comm_time_ns", application="UR")
    assert [(row["count"], row["mean"]) for row in rows] == [(1, 11_637.0), (1, 18_065.0)]
    assert [row["fidelity"] for row in rows] == ["flow", "packet"]


def test_mean_metric_reports_missing_metrics():
    store = ResultStore()
    store.record(_tiny_scenario(), {"makespan_ns": 1.0})
    (run,) = store.runs()
    with pytest.raises(ValueError, match="coarse metrics"):
        mean_metric([run], "comm_time_ns", "UR")
    with pytest.raises(ValueError, match="no stored runs"):
        mean_metric([], "comm_time_ns", "UR")


def test_mean_metric_skips_coarse_legacy_rows():
    """A backfill run recorded next to a coarse legacy row wins the aggregate."""
    store = ResultStore()
    store.record(_tiny_scenario(name="test/UR[par,seed=1]"), {"makespan_ns": 1.0})
    store.record(_tiny_scenario(name="test/UR"), {"comm_time_ns/UR": 42.0})
    runs = store.runs_named("test/UR")
    assert len(runs) == 2
    assert mean_metric(runs, "comm_time_ns", "UR") == 42.0


def test_run_sweep_with_store_hits_every_point_when_warm(tmp_path):
    path = tmp_path / "r.sqlite"
    grid = [_tiny_scenario(seed=seed) for seed in (1, 2)]
    cold = run_sweep(grid, workers=1, store=path)
    assert [r.cached for r in cold] == [False, False]
    warm = run_sweep(grid, workers=1, store=path)
    assert [r.cached for r in warm] == [True, True]
    for before, after in zip(cold, warm):
        assert before.metrics == after.metrics


def test_warm_sweep_hits_staggered_scenarios_and_keeps_them_distinct(tmp_path):
    """Non-zero start_time scenarios cache under their own hash: a warm sweep
    serves them 100% from the store, and they never collide with (or shadow)
    the simultaneous-arrival variant of the same pair."""
    path = tmp_path / "r.sqlite"
    base = pairwise_scenario(
        "UR", "hotspot", target_ranks=4, background_ranks=4,
        config=SimulationConfig(system=tiny_system()),
    )
    staggered = base.with_updates(start_time=20_000.0)
    assert scenario_hash(staggered) != scenario_hash(base)
    cold = run_sweep([base, staggered], workers=1, store=path)
    assert [r.cached for r in cold] == [False, False]
    warm = run_sweep([base, staggered], workers=1, store=path)
    assert [r.cached for r in warm] == [True, True]
    assert warm[0].metrics == cold[0].metrics
    assert warm[1].metrics == cold[1].metrics
    # The stagger is visible in the stored description and the metrics.
    with ResultStore(path) as store:
        stored = store.get(staggered)
        assert stored.scenario["jobs"][0]["start_time"] == 20_000.0
        assert stored.metrics["start_time_ns/UR"] == 20_000.0
        assert store.get(base).scenario["jobs"][0].get("start_time") is None


# ----------------------------------------------------------------- renderers
ROWS = [{"a": 1, "b": 2.5}, {"a": 2, "b": 12345.0}]


def test_format_csv_and_markdown():
    assert format_csv(ROWS) == "a,b\n1,2.5\n2,12345.0"
    markdown = format_markdown(ROWS)
    assert markdown.splitlines()[0] == "| a | b |"
    assert markdown.splitlines()[1] == "| --- | --- |"
    assert "| 2 | 12,345.0 |" in markdown
    assert render_rows(ROWS, fmt="csv") == format_csv(ROWS)
    with pytest.raises(ValueError, match="unknown format"):
        render_rows(ROWS, fmt="html")


# ------------------------------------------------------- store-backed reports
def _fake_table1_store() -> ResultStore:
    store = ResultStore()
    for app, (volume, execution, rate, peak) in {
        "UR": (1000, 2000.0, 0.5, 400),
        "FFT3D": (4000, 1000.0, 4.0, 800),
    }.items():
        scenario = table1_scenario(app)
        store.record(
            scenario,
            {
                f"total_msg_bytes/{app}": volume,
                f"execution_time_ns/{app}": execution,
                f"injection_rate_gbps/{app}": rate,
                f"peak_ingress_bytes/{app}": peak,
            },
        )
    return store


def test_table1_report_golden_output():
    report = build_report(_fake_table1_store(), "table1")
    assert report == "\n".join(
        [
            "Table I — application communication intensity",
            "pattern   app    total_msg_bytes  execution_time_ns  injection_rate_gbps  peak_ingress_bytes",
            "--------  -----  ---------------  -----------------  -------------------  ------------------",
            "alltoall  FFT3D  4,000.0          1,000.0            4.000                800.000           ",
            "random    UR     1,000.0          2,000.0            0.500                400.000           ",
        ]
    )


def test_table1_report_csv_format():
    report = build_report(_fake_table1_store(), "table1", fmt="csv")
    lines = report.splitlines()
    assert lines[0] == "pattern,app,total_msg_bytes,execution_time_ns,injection_rate_gbps,peak_ingress_bytes"
    assert lines[1].startswith("alltoall,FFT3D,4000.0,")


def test_report_on_empty_store_raises():
    with pytest.raises(ValueError, match="no table1"):
        build_report(ResultStore(), "table1")
    with pytest.raises(ValueError, match="unknown report"):
        build_report(ResultStore(), "table9")


def _record_pairwise(store, routing, seed, standalone_comm, interfered_comm):
    config = SimulationConfig(system=tiny_system(), seed=seed).with_routing(routing)
    base = pairwise_scenario("FFT3D", None, config=config, target_ranks=8)
    pair = pairwise_scenario("FFT3D", "Halo3D", config=config, target_ranks=8, background_ranks=8)
    store.record(base, {"comm_time_ns/FFT3D": standalone_comm, "comm_time_std_ns/FFT3D": 1.0})
    store.record(
        pair,
        {
            "comm_time_ns/FFT3D": interfered_comm,
            "comm_time_std_ns/FFT3D": 10.0,
            "comm_time_ns/Halo3D": 7.0,
            "comm_time_std_ns/Halo3D": 2.0,
        },
    )


def test_pairwise_comparison_rows_aggregate_across_seeds():
    store = ResultStore()
    _record_pairwise(store, "par", seed=1, standalone_comm=100.0, interfered_comm=150.0)
    _record_pairwise(store, "par", seed=2, standalone_comm=100.0, interfered_comm=250.0)
    (row,) = comparison_rows(store, "FFT3D", "Halo3D")
    assert row["routing"] == "par"
    assert row["standalone_comm_ns"] == pytest.approx(100.0)
    assert row["interfered_comm_ns"] == pytest.approx(200.0)  # mean of the seeds
    assert row["slowdown"] == pytest.approx(2.0)
    assert row["variation"] == pytest.approx(0.1)
    # Standalone-only row: the target compared against itself.
    (baseline_row,) = comparison_rows(store, "FFT3D", None)
    assert baseline_row["background"] == "None"
    assert baseline_row["slowdown"] == pytest.approx(1.0)


def test_pairwise_comparison_rows_missing_run_raises():
    store = ResultStore()
    with pytest.raises(ValueError, match="no stored"):
        comparison_rows(store, "FFT3D", "Halo3D", routings=["par"])


def test_mixed_rows_from_store():
    store = ResultStore()
    config = SimulationConfig(system=tiny_system(), seed=1).with_routing("par")
    mixed = mixed_scenario(config=config, total_nodes=24)
    solos = mixed_solo_scenarios(config=config, total_nodes=24)
    metrics = {}
    for spec in mixed.jobs:
        metrics[f"comm_time_ns/{spec.name}"] = 30.0
        metrics[f"comm_time_std_ns/{spec.name}"] = 3.0
    store.record(mixed, metrics)
    for solo in solos:
        app = solo.jobs[0].name
        store.record(solo, {f"comm_time_ns/{app}": 10.0, f"comm_time_std_ns/{app}": 1.0})
    rows = mixed_rows_from_store(store)
    assert len(rows) == len(mixed.jobs)
    assert all(row["slowdown"] == pytest.approx(3.0) for row in rows)
    assert all(row["variation"] == pytest.approx(0.3) for row in rows)


# ------------------------------------------------------------------ CLI report
def test_cli_report_reads_store_without_simulating(tmp_path, capsys):
    path = tmp_path / "r.sqlite"
    with ResultStore(path) as store:
        for app, (volume, execution, rate, peak) in {
            "UR": (1000, 2000.0, 0.5, 400),
        }.items():
            store.record(
                table1_scenario(app),
                {
                    f"total_msg_bytes/{app}": volume,
                    f"execution_time_ns/{app}": execution,
                    f"injection_rate_gbps/{app}": rate,
                    f"peak_ingress_bytes/{app}": peak,
                },
            )
    assert main(["report", "table1", "--store", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "UR" in out

    assert main(["report", "table1", "--store", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("pattern,app,")


def test_cli_synthetic_report_compares_stored_backgrounds(tmp_path, capsys):
    """report synthetic/<T> renders every stored pattern background, and
    --start-time narrows staggered vs simultaneous co-runs."""
    path = tmp_path / "r.sqlite"
    tiny = SimulationConfig(system=tiny_system())
    baseline = pairwise_scenario("UR", None, target_ranks=4, config=tiny)
    with ResultStore(path) as store:
        store.record(baseline, {"comm_time_ns/UR": 100.0, "comm_time_std_ns/UR": 10.0})
        for pattern, comm in [("hotspot", 150.0), ("bursty", 120.0)]:
            pair = pairwise_scenario(
                "UR", pattern, target_ranks=4, background_ranks=4, config=tiny
            )
            store.record(pair, {"comm_time_ns/UR": comm, "comm_time_std_ns/UR": 10.0})
            staggered = pair.with_updates(start_time=20_000.0)
            store.record(
                staggered, {"comm_time_ns/UR": comm * 2, "comm_time_std_ns/UR": 10.0}
            )
    assert main(
        ["report", "synthetic/UR", "--store", str(path), "--start-time", "0"]
    ) == 0
    out = capsys.readouterr().out
    assert "Synthetic-background interference" in out
    assert "bursty" in out and "hotspot" in out
    assert "1.200" in out and "1.500" in out
    # The staggered co-runs form their own report slice.
    assert main(
        ["report", "synthetic/UR", "--store", str(path), "--start-time", "20000"]
    ) == 0
    out = capsys.readouterr().out
    assert "2.400" in out and "3.000" in out
    # Without narrowing, mixing the two arrival configurations is refused.
    assert main(["report", "synthetic/UR", "--store", str(path)]) == 2
    assert "arrival" in capsys.readouterr().err


def test_comparison_rows_refuse_to_blend_pattern_knob_variants():
    """Runs of one pair differing only in a pattern knob are different
    experiments: reporting their average would describe neither."""
    tiny = SimulationConfig(system=tiny_system())
    store = ResultStore()
    baseline = pairwise_scenario("UR", None, target_ranks=4, config=tiny)
    store.record(baseline, {"comm_time_ns/UR": 100.0, "comm_time_std_ns/UR": 10.0})
    pair = pairwise_scenario("UR", "hotspot", target_ranks=4, background_ranks=4, config=tiny)
    for index, knobs in enumerate([{"hot_fraction": 0.1}, {"hot_fraction": 0.9}]):
        variant = pair.with_updates(
            name=f"pairwise/UR+hotspot[v{index}]", job_kwargs={"hotspot": knobs}
        )
        store.record(
            variant, {"comm_time_ns/UR": 110.0 + 390.0 * index, "comm_time_std_ns/UR": 10.0}
        )
    with pytest.raises(ValueError, match="kwargs"):
        comparison_rows(store, "UR", "hotspot")
    # The knobs filter singles out one cell of the sweep...
    (row,) = comparison_rows(store, "UR", "hotspot", knobs={"hotspot": {"hot_fraction": 0.9}})
    assert row["interfered_comm_ns"] == 500.0
    # ...and aggregate keeps the two knob settings in separate groups.
    rows = store.aggregate("comm_time_ns", name_prefix="pairwise/UR+hotspot")
    assert sorted(row["mean"] for row in rows) == [110.0, 500.0]


def test_cli_report_knob_filter_selects_one_sweep_cell(tmp_path, capsys):
    tiny = SimulationConfig(system=tiny_system())
    path = tmp_path / "r.sqlite"
    with ResultStore(path) as store:
        baseline = pairwise_scenario("UR", None, target_ranks=4, config=tiny)
        store.record(baseline, {"comm_time_ns/UR": 100.0, "comm_time_std_ns/UR": 10.0})
        pair = pairwise_scenario(
            "UR", "hotspot", target_ranks=4, background_ranks=4, config=tiny
        )
        for index, fraction in enumerate([0.1, 0.9]):
            store.record(
                pair.with_updates(
                    name=f"pairwise/UR+hotspot[v{index}]",
                    job_kwargs={"hotspot": {"hot_fraction": fraction}},
                ),
                {"comm_time_ns/UR": 110.0 + 390.0 * index, "comm_time_std_ns/UR": 10.0},
            )
    argv = ["report", "pairwise/UR+hotspot", "--store", str(path)]
    assert main(argv) == 2
    assert "--knob" in capsys.readouterr().err
    assert main(argv + ["--knob", "hotspot:hot_fraction=0.9"]) == 0
    assert "5.000" in capsys.readouterr().out  # slowdown 500/100
    assert main(argv + ["--knob", "bad-spec"]) == 2
    assert "JOB:KEY=VALUE" in capsys.readouterr().err


def test_knob_filter_matches_constructor_defaults():
    """A run that never spelled a knob out still matches a --knob filter
    equal to the knob's constructor default (Hotspot defaults to 0.25)."""
    tiny = SimulationConfig(system=tiny_system())
    store = ResultStore()
    pair = pairwise_scenario("UR", "hotspot", target_ranks=4, background_ranks=4, config=tiny)
    store.record(pair, {"comm_time_ns/UR": 1.0})
    assert store.runs(knobs={"hotspot": {"hot_fraction": 0.25}})
    assert not store.runs(knobs={"hotspot": {"hot_fraction": 0.9}})
    assert not store.runs(knobs={"hotspot": {"no_such_knob": 1}})
    assert not store.runs(knobs={"FFT3D": {"scale": 1.0}})  # job not in the run


def test_ensure_comparable_rejects_mismatched_shared_job():
    """Baseline vs co-run comparisons refuse a target whose own config
    (kwargs or rank count) differs between the two families."""
    from repro.results.store import ensure_comparable

    tiny = SimulationConfig(system=tiny_system())
    store = ResultStore()
    baseline = pairwise_scenario("UR", None, target_ranks=4, config=tiny)
    store.record(baseline, {"comm_time_ns/UR": 100.0, "comm_time_std_ns/UR": 1.0})
    pair = pairwise_scenario("UR", "hotspot", target_ranks=4, background_ranks=4, config=tiny)
    boosted = pair.with_updates(job_kwargs={"UR": {"iterations": 60}})
    store.record(boosted, {"comm_time_ns/UR": 300.0, "comm_time_std_ns/UR": 1.0})
    with pytest.raises(ValueError, match="job 'UR'"):
        comparison_rows(store, "UR", "hotspot")
    with pytest.raises(ValueError, match="job 'UR'"):
        ensure_comparable(store.runs(), "mixed families")


def test_comparison_rows_ignore_staggered_baseline_variants():
    """A store polluted with staggered *baseline* runs stays reportable: the
    co-run comparison always reads the simultaneous-arrival baseline, and a
    baseline-only report selects among the variants via start_time."""
    tiny = SimulationConfig(system=tiny_system())
    baseline = pairwise_scenario("UR", None, target_ranks=4, config=tiny)
    store = ResultStore()
    store.record(baseline, {"comm_time_ns/UR": 100.0, "comm_time_std_ns/UR": 10.0})
    store.record(
        baseline.with_updates(start_time=20_000.0),
        {"comm_time_ns/UR": 100.0, "comm_time_std_ns/UR": 10.0},
    )
    pair = pairwise_scenario("UR", "hotspot", target_ranks=4, background_ranks=4, config=tiny)
    store.record(pair, {"comm_time_ns/UR": 150.0, "comm_time_std_ns/UR": 10.0})
    (row,) = comparison_rows(store, "UR", "hotspot")
    assert row["slowdown"] == pytest.approx(1.5)
    (staggered_baseline,) = comparison_rows(store, "UR", None, start_time=20_000.0)
    assert staggered_baseline["background"] == "None"


def test_cli_report_synthetic_pattern_renders_standalone_family(tmp_path, capsys):
    """`report synthetic/<pattern>` reads the standalone synthetic/<pattern>
    runs (the same name `run` stores them under), not a pairwise target."""
    from repro.experiments.scenario import synthetic_scenario

    path = tmp_path / "r.sqlite"
    scenario = synthetic_scenario(
        "hotspot", num_ranks=6, config=SimulationConfig(system=tiny_system())
    )
    with ResultStore(path) as store:
        store.record(
            scenario,
            {
                "total_msg_bytes/hotspot": 1000,
                "execution_time_ns/hotspot": 2000.0,
                "injection_rate_gbps/hotspot": 0.5,
                "peak_ingress_bytes/hotspot": 400,
            },
        )
    assert main(["report", "synthetic/hotspot", "--store", str(path)]) == 0
    out = capsys.readouterr().out
    assert "standalone" in out and "hotspot" in out and "0.500" in out
    # An empty family still produces the populate-me hint, not a pairwise one.
    assert main(["report", "synthetic/bursty", "--store", str(path)]) == 2
    assert "run synthetic/bursty" in capsys.readouterr().err


def test_cli_report_missing_store_fails_cleanly(tmp_path, capsys):
    missing = tmp_path / "nope.sqlite"
    assert main(["report", "table1", "--store", str(missing)]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_cli_report_output_file(tmp_path, capsys):
    path = tmp_path / "r.sqlite"
    with ResultStore(path) as store:
        store.record(
            table1_scenario("UR"),
            {
                "total_msg_bytes/UR": 1,
                "execution_time_ns/UR": 1.0,
                "injection_rate_gbps/UR": 1.0,
                "peak_ingress_bytes/UR": 1,
            },
        )
    target = tmp_path / "t1.md"
    assert main(["report", "table1", "--store", str(path), "--format", "markdown", "-o", str(target)]) == 0
    assert target.read_text().startswith("### Table I")


# --------------------------------------------------- every report kind, pinned
#: Rendered text of every report kind in every format, one ``==> <name>
#: [<format>]`` section each (regenerate by rendering every name below from
#: the every_report_store fixture).
REPORTS_GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.txt"


def _golden_reports() -> dict:
    sections: dict = {}
    lines: list = []
    for line in REPORTS_GOLDEN.read_text().splitlines():
        if line.startswith("==> "):
            lines = sections.setdefault(line[len("==> "):], [])
        else:
            lines.append(line)
    return {key: "\n".join(body) for key, body in sections.items()}


def _intensity(app, base):
    """The four Table I metrics of ``app``, multiples of ``base``."""
    return {
        f"total_msg_bytes/{app}": 1000 * base,
        f"execution_time_ns/{app}": 250.0 * base,
        f"injection_rate_gbps/{app}": 0.125 * base,
        f"peak_ingress_bytes/{app}": 64 * base,
    }


def _comm(app, mean, std):
    return {f"comm_time_ns/{app}": mean, f"comm_time_std_ns/{app}": std}


@pytest.fixture(scope="module")
def every_report_store():
    """One store holding every report family, from hand-written metric rows."""
    from repro.experiments.scenario import loadcurve_scenario, ml_scenario, synthetic_scenario
    from repro.traces import RecvRecord, SendRecord, Trace, WaitRecord, replay_scenario

    store = ResultStore()
    tiny = SimulationConfig(system=tiny_system())
    for base, app in enumerate(("UR", "FFT3D"), start=1):
        store.record(table1_scenario(app), _intensity(app, base))
    # A two-job mix and its solo baselines (Halo3D has no Table II row).
    mix = (AppSpec("FFT3D", 4), AppSpec("Halo3D", 8))
    store.record(
        Scenario(name="mixed/table2", jobs=mix, config=tiny),
        {**_comm("FFT3D", 3000.0, 300.0), **_comm("Halo3D", 1500.0, 30.0)},
    )
    for spec, comm in zip(mix, (1000.0, 1200.0)):
        store.record(
            Scenario(name=f"mixed/solo/{spec.name}", jobs=(spec,), config=tiny),
            _comm(spec.name, comm, comm / 20),
        )
    for index, routing in enumerate(("par", "minimal")):
        config = tiny.with_routing(routing)
        for background, comm in ((None, 800.0), ("UR", 1000.0), ("hotspot", 1900.0)):
            pair = pairwise_scenario(
                "FFT3D", background, target_ranks=4, background_ranks=4, config=config
            )
            store.record(pair, _comm("FFT3D", comm + 100.0 * index, 40.0 + index))
    store.record(synthetic_scenario("hotspot", num_ranks=6, config=tiny), _intensity("hotspot", 3))
    store.record(
        ml_scenario("ring_allreduce", num_ranks=4, config=tiny),
        _intensity("ml.ring_allreduce", 4),
    )
    exchange = tuple(
        (
            SendRecord(dst_rank=peer, size_bytes=64, tag=7, t_ns=0.0),
            RecvRecord(src_rank=peer, tag=7, t_ns=0.0),
            WaitRecord(requests=(0, 1), t_ns=10.0),
        )
        for peer in (1, 0)
    )
    trace = Trace(
        app="FFT3D", num_ranks=2, rank_ops=exchange,
        peak_ingress_bytes=64, message_volume_per_rank=64,
    )
    store.record(replay_scenario(trace.to_payload()), _intensity("trace", 5))
    # Two window configs whose text and numeric orders agree.
    for measurement in (5_000.0, 8_000.0):
        for load in (0.2, 0.6):
            curve = loadcurve_scenario(
                "shift", offered_load=load, num_ranks=4, warmup_ns=1_000.0,
                measurement_ns=measurement, config=tiny,
            )
            latency = 100.0 / (1.0 - load) + measurement / 100
            store.record(
                curve,
                {
                    "accepted_throughput_gbps": 12.5 * load,
                    "measured_packet_latency_mean_ns": latency,
                    "measured_packet_latency_p50_ns": 0.9 * latency,
                    "measured_packet_latency_p99_ns": 3.0 * latency,
                },
            )
    yield store
    store.close()


@pytest.mark.parametrize("fmt", ["table", "csv", "markdown"])
@pytest.mark.parametrize(
    "name",
    [
        "table1", "table2", "mixed/table2", "mixed", "pairwise/FFT3D+UR",
        "pairwise/FFT3D", "synthetic/FFT3D", "synthetic/hotspot",
        "ml/ring_allreduce", "trace/FFT3D", "loadcurve/shift",
    ],
)
def test_every_report_kind_renders_pinned_text(every_report_store, name, fmt):
    assert build_report(every_report_store, name, fmt=fmt) == _golden_reports()[f"{name} [{fmt}]"]


def test_unknown_report_lists_every_report_name(every_report_store):
    names = [
        "table1", "table2", "mixed", "pairwise/<Target>+<Background>",
        "synthetic/<Target>", "synthetic/<pattern>", "loadcurve/<pattern>",
        "ml/<pattern>", "trace/<name>",
    ]
    with pytest.raises(ValueError) as excinfo:
        build_report(every_report_store, "table9")
    assert str(excinfo.value) == f"unknown report 'table9'; choose from {names}"
