"""Steady-state measurement windows + offered-load (continuous) injection.

Covers the offered-load subsystem end to end: the ``ContinuousInjection``
workload mode, window-bounded termination, the window-aware statistics split
(warmup excluded from every measured metric), the hash-preserving
serialization of the new ``SimulationConfig`` knobs, the result-store axes
and the ``loadcurve/<pattern>`` report — including the acceptance property
that a swept store reproduces a monotone latency-vs-offered-load curve with
zero re-simulation.
"""

import pytest

from repro.analysis.reports import build_report, loadcurve_rows
from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import (
    Scenario,
    expand_grid,
    get_scenario,
    scenario_hash,
)
from repro.experiments.sweep import run_sweep
from repro.results import ResultStore, flatten_run


def _continuous_scenario(
    load: float = 0.5,
    warmup_ns: float = 2_000.0,
    measurement_ns: float = 10_000.0,
    pattern: str = "shift",
    routing: str = "par",
    seed: int = 3,
    **job_kwargs,
) -> Scenario:
    """Tiny-system steady-state scenario (fast enough for unit tests)."""
    config = SimulationConfig(
        system=tiny_system(), seed=seed, warmup_ns=warmup_ns, measurement_ns=measurement_ns
    ).with_routing(routing)
    return Scenario(
        name=f"loadcurve/{pattern}",
        jobs=(AppSpec(pattern, 6, {"offered_load": load, **job_kwargs}),),
        config=config,
    )


# ------------------------------------------------------------- config knobs
def test_window_knob_validation():
    with pytest.raises(ValueError, match="zero-length"):
        SimulationConfig(measurement_ns=0.0)
    with pytest.raises(ValueError, match="measurement_ns"):
        SimulationConfig(measurement_ns=-5.0)
    with pytest.raises(ValueError, match="warmup_ns"):
        SimulationConfig(warmup_ns=-1.0)
    with pytest.raises(ValueError, match="warmup_ns"):
        SimulationConfig(warmup_ns=float("nan"))
    config = SimulationConfig(warmup_ns=100.0, measurement_ns=400.0)
    assert config.windowed and config.window_end_ns == 500.0
    assert not SimulationConfig().windowed
    assert SimulationConfig().window_end_ns is None


def test_offered_load_validation():
    from repro.workloads import create_application

    with pytest.raises(ValueError, match="offered_load"):
        create_application("shift", 4, offered_load=0.0)
    with pytest.raises(ValueError, match="offered_load"):
        create_application("shift", 4, offered_load=1.5)
    # AppSpec introspection accepts the new kwarg at description time.
    AppSpec("hotspot", 4, {"offered_load": 0.25})


# ----------------------------------------------------- hash preservation
def test_window_knobs_serialized_only_when_nondefault():
    """Default configs keep the historical sim section — hashes unchanged."""
    plain = Scenario(
        name="plain", jobs=(AppSpec("UR", 4, {}),),
        config=SimulationConfig(system=tiny_system()),
    )
    sim = plain.to_dict()["sim"]
    assert "warmup_ns" not in sim and "measurement_ns" not in sim

    windowed = _continuous_scenario()
    sim = windowed.to_dict()["sim"]
    assert sim["warmup_ns"] == 2_000.0 and sim["measurement_ns"] == 10_000.0
    assert Scenario.from_json(windowed.to_json()) == windowed
    assert scenario_hash(windowed) != scenario_hash(
        _continuous_scenario(measurement_ns=20_000.0)
    )


# ------------------------------------------------------ execution semantics
def test_continuous_run_terminates_on_window_expiry():
    scenario = _continuous_scenario()
    result = scenario.run()
    assert result.completed
    assert not result.engine.all_finished  # rank programs never finish...
    assert result.sim.now == scenario.config.window_end_ns  # ...the window does
    assert result.makespan_ns == scenario.config.window_end_ns


def test_continuous_run_without_bound_rejected():
    config = SimulationConfig(system=tiny_system()).with_routing("par")
    scenario = Scenario(
        name="unbounded", jobs=(AppSpec("shift", 6, {"offered_load": 0.2}),), config=config
    )
    with pytest.raises(ValueError, match="never finish"):
        scenario.run()


def test_continuous_requires_eager_messages():
    scenario = _continuous_scenario(message_bytes=64 * 1024)
    with pytest.raises(ValueError, match="eager"):
        scenario.run()


def test_fixed_length_jobs_still_complete_inside_window():
    """A windowed run whose jobs finish early completes like before."""
    config = SimulationConfig(
        system=tiny_system(), seed=3, warmup_ns=1_000.0, measurement_ns=10_000_000.0
    ).with_routing("par")
    scenario = Scenario(
        name="short", jobs=(AppSpec("UR", 4, {"iterations": 2, "scale": 0.3}),), config=config
    )
    result = scenario.run()
    assert result.completed and result.engine.all_finished
    # Completion time comes from the job records, not the idled-out clock.
    assert result.makespan_ns == max(result.record("UR").finish_time.values())
    assert result.makespan_ns < config.window_end_ns


# ------------------------------------------------------- window statistics
def test_measured_counters_exclude_warmup():
    scenario = _continuous_scenario()
    result = scenario.run()
    stats = result.stats
    assert stats.total_packets_injected > stats.measured_packets_injected > 0
    assert stats.total_packets_ejected > stats.measured_packets_ejected > 0
    warmup = scenario.config.warmup_ns
    in_window = [r for r in stats.packet_records if r.eject_time >= warmup]
    assert len(stats.measurement_packet_latencies()) == len(in_window)
    assert stats.measurement_elapsed_ns == scenario.config.measurement_ns


def test_accepted_throughput_tracks_offered_load_when_uncongested():
    scenario = _continuous_scenario(load=0.2)
    metrics = flatten_run(scenario.run())
    offered_gbps = 6 * 0.2 * scenario.config.system.link_bandwidth_gbps
    assert metrics["offered_load"] == 0.2
    assert metrics["accepted_throughput_gbps"] == pytest.approx(offered_gbps, rel=0.05)
    assert metrics["measurement_elapsed_ns"] == 10_000.0
    assert metrics["warmup_ns"] == 2_000.0


def test_gated_patterns_still_average_their_offered_load():
    """Bursty sends in only duty_cycle of its iterations; continuous mode
    must shorten the period so the *average* injected load still matches the
    offered load instead of duty_cycle × load."""
    scenario = _continuous_scenario(
        load=0.2, pattern="bursty", duty_cycle=0.5, burst_length=2,
        measurement_ns=20_000.0,
    )
    metrics = flatten_run(scenario.run())
    offered_gbps = 6 * 0.2 * scenario.config.system.link_bandwidth_gbps
    # Self-targeting draws stay silent by design (probability ~1/n per rank
    # in bursty's shared permutation); only the duty-cycle must be repaid.
    expected = offered_gbps * (1 - 1 / 6)
    assert metrics["accepted_throughput_gbps"] == pytest.approx(expected, rel=0.1)
    # Regression bound: the old accounting under-offered by duty_cycle (0.5).
    assert metrics["accepted_throughput_gbps"] > 0.75 * offered_gbps


def test_empty_measurement_window_errors_clearly():
    """warmup_ns beyond the run length leaves nothing to measure."""
    config = SimulationConfig(
        system=tiny_system(), seed=3, warmup_ns=1e15
    ).with_routing("par")
    scenario = Scenario(
        name="all-warmup", jobs=(AppSpec("UR", 4, {"iterations": 2, "scale": 0.3}),),
        config=config,
    )
    result = scenario.run()  # completes: no measurement cutoff was set
    with pytest.raises(ValueError, match="empty measurement window"):
        flatten_run(result)


def test_staggered_job_interacts_with_warmup():
    """A job arriving mid-warmup only contributes in-window traffic to the
    measured counters; one arriving after the window ends contributes none."""
    config = SimulationConfig(
        system=tiny_system(), seed=3, warmup_ns=5_000.0, measurement_ns=10_000.0
    ).with_routing("par")
    mid_warmup = Scenario(
        name="stagger",
        jobs=(
            AppSpec("shift", 5, {"offered_load": 0.3}),
            AppSpec("UR", 4, {"iterations": 3, "scale": 0.3}, 2_500.0),
        ),
        config=config,
    )
    result = mid_warmup.run()
    stats = result.stats
    assert result.completed
    # The measured counter agrees with the per-packet log restricted to the
    # window — pre-warmup ejections (both jobs were active during warmup)
    # never leak into it.
    in_window = [
        r for r in stats.packet_records
        if stats.warmup_ns <= r.eject_time <= stats.window_end_ns
    ]
    assert stats.measured_packets_ejected == len(in_window)
    assert 0 < stats.measured_packets_ejected < stats.total_packets_ejected

    # A job arriving only after the window closed never runs at all.
    after_window = Scenario(
        name="stagger-late",
        jobs=(
            AppSpec("shift", 5, {"offered_load": 0.3}),
            AppSpec("UR", 4, {"iterations": 3, "scale": 0.3}, 16_000.0),
        ),
        config=config,
    )
    late = after_window.run()
    ur_id = late.jobs["UR"].job_id
    assert not any(r.app_id == ur_id for r in late.stats.packet_records)


# ------------------------------------------------------------- grid + axes
def test_with_updates_offered_load_rejects_non_synthetic():
    scenario = Scenario(
        name="apps", jobs=(AppSpec("UR", 4, {}),),
        config=SimulationConfig(system=tiny_system()),
    )
    with pytest.raises(ValueError, match="offered_load"):
        scenario.with_updates(offered_load=0.4)


def test_expand_grid_offered_loads_axis():
    base = _continuous_scenario()
    grid = expand_grid(base, offered_loads=[0.1, 0.4], routings=["par", "minimal"])
    assert [s.name for s in grid] == [
        "loadcurve/shift[par,load=0.1]",
        "loadcurve/shift[par,load=0.4]",
        "loadcurve/shift[minimal,load=0.1]",
        "loadcurve/shift[minimal,load=0.4]",
    ]
    assert {s.jobs[0].kwargs["offered_load"] for s in grid} == {0.1, 0.4}
    # Window overrides ride along through with_updates.
    wider = base.with_updates(warmup_ns=4_000.0, measurement_ns=20_000.0)
    assert wider.config.warmup_ns == 4_000.0
    assert wider.config.measurement_ns == 20_000.0


def test_loadcurve_preset_is_registered_and_windowed():
    preset = get_scenario("loadcurve/hotspot")
    assert preset.config.windowed
    assert preset.jobs[0].kwargs["offered_load"] > 0


# ------------------------------------- store axes + report (the acceptance)
def test_swept_store_reproduces_monotone_loadcurve(tmp_path):
    """Sweep >= 3 offered loads, then rebuild the latency-vs-load curve from
    the store with zero re-simulation: warmup excluded, latency monotone."""
    loads = [0.1, 0.5, 0.9]
    grid = expand_grid(_continuous_scenario(), offered_loads=loads)
    store = ResultStore(tmp_path / "results.sqlite")
    with store:
        run_sweep(grid, store=store)

        # Store axes: one run per load, each filterable on its own.
        for load in loads:
            (run,) = store.runs(offered_load=load)
            assert run.value("offered_load") == load
            assert (run.value("warmup_ns"), run.value("measurement_ns")) == (2_000.0, 10_000.0)
        rows = store.rows(metric="accepted_throughput_gbps")
        assert {row["offered_load"] for row in rows} == set(loads)
        assert {(row["warmup_ns"], row["measurement_ns"]) for row in rows} == {(2_000.0, 10_000.0)}

        # The curve itself, from the store alone (no simulation).
        curve = loadcurve_rows(store, "shift")
        assert [row["offered_load"] for row in curve] == loads
        throughputs = [row["accepted_throughput_gbps"] for row in curve]
        means = [row["latency_mean_ns"] for row in curve]
        p99s = [row["latency_p99_ns"] for row in curve]
        assert throughputs == sorted(throughputs)
        assert means == sorted(means), "latency must grow with offered load"
        assert p99s == sorted(p99s)

        # Warm sweep: every cell served by the store.
        warm = run_sweep(grid, store=store)
        assert all(result.cached for result in warm)

        # The CLI-facing report renders the same rows.
        text = build_report(store, "loadcurve/shift")
        assert "offered_load" in text and "0.900" in text

        with pytest.raises(ValueError, match="no stored loadcurve/hotspot"):
            loadcurve_rows(store, "hotspot")
        with pytest.raises(ValueError, match="not a synthetic pattern"):
            loadcurve_rows(store, "FFT3D")


def test_loadcurve_report_separates_window_configs(tmp_path):
    """Two window configs of one pattern in one store stay distinct rows,
    told apart by the window_ns column, rather than blending or erroring."""
    store = ResultStore(tmp_path / "results.sqlite")
    with store:
        run_sweep(
            [_continuous_scenario(load=0.3), _continuous_scenario(load=0.3, measurement_ns=5_000.0)],
            store=store,
        )
        rows = loadcurve_rows(store, "shift")
        assert len(rows) == 2
        assert {row["window_ns"] for row in rows} == {"2000+10000", "2000+5000"}
        # The start_time filter is accepted (and, for these simultaneous
        # runs, a no-op) — the remedy ensure_uniform's message points at.
        assert len(loadcurve_rows(store, "shift", start_time=0.0)) == 2


def test_loadcurve_report_orders_window_configs_numerically():
    """Window configs sort by number, not by text (5000 before 10000), and an
    open-ended measurement window sorts after the bounded ones."""
    store = ResultStore()
    metrics = {
        "accepted_throughput_gbps": 1.0,
        "measured_packet_latency_mean_ns": 100.0,
        "measured_packet_latency_p50_ns": 90.0,
        "measured_packet_latency_p99_ns": 300.0,
    }
    for warmup, measurement in [(10_000.0, 20_000.0), (5_000.0, None), (5_000.0, 20_000.0)]:
        scenario = _continuous_scenario(load=0.3, warmup_ns=warmup, measurement_ns=measurement)
        store.record(scenario, metrics)
    rows = loadcurve_rows(store, "shift")
    assert [row["window_ns"] for row in rows] == ["5000+20000", "5000+", "10000+20000"]
