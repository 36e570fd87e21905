"""Tests of the parallel sweep runner: grids, hashing, caching, determinism."""

import pytest

from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import Scenario, expand_grid, scenario_hash
from repro.experiments.sweep import run_sweep
from repro.results import ResultStore


#: Small-but-real sweep cell: tiny system so every run finishes in well
#: under a second.
def _tiny_scenario(routing="par", seed=1, scale=0.2, workload="UR") -> Scenario:
    return Scenario(
        name=f"sweep/{workload}",
        jobs=(AppSpec(workload, 8, {"scale": scale}),),
        config=SimulationConfig(system=tiny_system(), seed=seed, record_packets=True)
        .with_routing(routing),
    )


def _tiny_grid():
    return expand_grid(_tiny_scenario(), routings=["par", "q-adaptive"], seeds=[1, 2])


# ------------------------------------------------------------------ grid/hash
def test_expand_grid_is_full_cartesian_product():
    grid = expand_grid(
        [_tiny_scenario(workload="UR"), _tiny_scenario(workload="LU")],
        routings=["par", "minimal"],
        placements=["random", "contiguous"],
        seeds=[1, 2, 3],
    )
    assert len(grid) == 2 * 2 * 2 * 3
    assert len({scenario_hash(cell) for cell in grid}) == len(grid)  # unique cache keys
    assert all(cell.config.system.num_nodes == 40 for cell in grid)  # tiny system


def test_scenario_hash_stable_and_sensitive():
    cell = _tiny_scenario()
    assert scenario_hash(cell) == scenario_hash(_tiny_scenario())
    assert scenario_hash(cell) != scenario_hash(_tiny_scenario(seed=2))
    assert scenario_hash(cell) != scenario_hash(_tiny_scenario(routing="minimal"))
    assert scenario_hash(cell) != scenario_hash(_tiny_scenario(scale=0.3))


def test_grid_cells_validate_every_axis_at_construction():
    with pytest.raises(ValueError):
        _tiny_scenario(workload="NotAnApp")
    with pytest.raises(ValueError):
        expand_grid(_tiny_scenario(), routings=["qadaptiv"])  # typo'd algorithm
    with pytest.raises(ValueError):
        expand_grid(_tiny_scenario(), placements=["spread"])


def test_grid_canonicalizes_aliases_into_one_cache_entry():
    (aliased,) = expand_grid(_tiny_scenario(), routings=["ugal"], placements=["Random"])
    assert aliased.config.routing.algorithm == "ugal-g"
    assert aliased.placement == "random"
    (canonical,) = expand_grid(_tiny_scenario(), routings=["ugal-g"], placements=["random"])
    assert scenario_hash(aliased) == scenario_hash(canonical)


def test_run_sweep_accepts_only_scenarios():
    with pytest.raises(TypeError, match="Scenario cells"):
        run_sweep([_tiny_scenario(), "sweep/UR"])


# ------------------------------------------------------------------ execution
def test_run_sweep_serial_produces_metrics():
    results = run_sweep([_tiny_scenario()], workers=1)
    assert len(results) == 1
    metrics = results[0].metrics
    assert metrics["makespan_ns"] > 0
    assert metrics["packets_injected"] == metrics["packets_ejected"] > 0
    assert not results[0].cached
    row = results[0].as_row()
    assert row["jobs"] == "UR" and row["makespan_ns"] > 0


def test_run_sweep_caches_results_in_store(tmp_path):
    store_path = tmp_path / "results.sqlite"
    cell = _tiny_scenario()
    first = run_sweep([cell], workers=1, store=store_path)
    assert not first[0].cached
    with ResultStore(store_path) as store:
        # The store records the canonically-serialized scenario.
        stored = store.get(cell)
        assert stored is not None
        assert stored.scenario == cell.to_dict()
        assert stored.metrics == first[0].metrics

    second = run_sweep([cell], workers=1, store=store_path)
    assert second[0].cached
    assert second[0].metrics == first[0].metrics


def test_run_sweep_accepts_open_store(tmp_path):
    cell = _tiny_scenario()
    with ResultStore(tmp_path / "r.sqlite") as store:
        first = run_sweep([cell], workers=1, store=store)
        second = run_sweep([cell], workers=1, store=store)
    assert not first[0].cached and second[0].cached


def test_run_sweep_ignores_and_heals_stale_cache_entries(tmp_path):
    import sqlite3

    store_path = tmp_path / "results.sqlite"
    cell = _tiny_scenario()
    run_sweep([cell], workers=1, store=store_path)
    conn = sqlite3.connect(store_path)
    # Simulate a stale layout under the same hash: stored scenario != requested.
    conn.execute("UPDATE runs SET scenario_json = replace(scenario_json, '\"seed\":1', '\"seed\":999')")
    conn.commit()
    conn.close()
    results = run_sweep([cell], workers=1, store=store_path)
    assert not results[0].cached
    # Recording the re-simulated result replaced the stale row (self-heal),
    # so the next sweep is warm again instead of re-simulating forever.
    healed = run_sweep([cell], workers=1, store=store_path)
    assert healed[0].cached
    assert healed[0].metrics == results[0].metrics


def test_run_sweep_parallel_matches_serial_exactly():
    """Same seeds => bit-identical metrics, serial vs. multiprocessing."""
    grid = _tiny_grid()
    serial = run_sweep(grid, workers=1)
    parallel = run_sweep(grid, workers=4)
    assert [r.scenario for r in serial] == grid
    assert [r.scenario for r in parallel] == grid
    for s, p in zip(serial, parallel):
        assert s.metrics == p.metrics  # exact float equality, not approx


def test_run_sweep_reports_progress():
    seen = []
    run_sweep(
        [_tiny_scenario(), _tiny_scenario(seed=2)],
        workers=1,
        progress=lambda done, total, result: seen.append((done, total, result.cached)),
    )
    assert seen == [(1, 2, False), (2, 2, False)]


# ------------------------------------------------------- failure isolation
def _failing_scenario(seed=1):
    """A scenario that raises inside run(): continuous injection, no bound."""
    return Scenario(
        name=f"sweep/unbounded-{seed}",
        jobs=(AppSpec("shift", 6, {"offered_load": 0.5}),),
        config=SimulationConfig(system=tiny_system(), seed=seed),
    )


def test_failing_cell_does_not_kill_the_sweep(tmp_path):
    """Regression: one crashing scenario used to abort the whole grid."""
    from repro.experiments.sweep import SweepError
    from repro.results import ResultStore

    store_path = tmp_path / "results.sqlite"
    grid = [_tiny_scenario(seed=1), _failing_scenario(), _tiny_scenario(seed=2)]
    with pytest.raises(SweepError) as excinfo:
        run_sweep(grid, workers=1, store=store_path)
    error = excinfo.value
    # The raise happens only after the whole grid ran: all three cells are
    # present, in input order, with the good ones fully simulated.
    assert len(error.results) == 3
    good_first, failed, good_last = error.results
    assert good_first.metrics["makespan_ns"] > 0
    assert good_last.metrics["makespan_ns"] > 0
    assert failed.failed and not good_first.failed and not good_last.failed
    assert failed.error.startswith("ValueError")
    assert "Traceback" in failed.traceback
    assert failed.metrics == {}
    assert error.failures == [failed]
    assert "1 of 3 sweep cells failed" in str(error)
    assert "sweep/unbounded-1" in str(error)
    # The failed cell surfaces in report rows via an error column.
    assert failed.as_row()["error"] == failed.error
    assert "error" not in good_first.as_row()

    # Successes are cached; the failure is not (it must be re-attempted).
    with ResultStore(store_path) as store:
        assert store.get(grid[0]) is not None
        assert store.get(grid[1]) is None
        assert store.get(grid[2]) is not None
    with pytest.raises(SweepError) as again:
        run_sweep(grid, workers=1, store=store_path)
    assert [r.cached for r in again.value.results] == [True, False, True]


def test_failing_cell_is_isolated_across_worker_processes():
    """The failure comes back as a result through the pool, not a raise."""
    from repro.experiments.sweep import SweepError

    grid = [_failing_scenario(), _tiny_scenario(seed=1), _tiny_scenario(seed=2)]
    with pytest.raises(SweepError) as excinfo:
        run_sweep(grid, workers=2)
    results = excinfo.value.results
    assert len(results) == 3
    assert results[0].failed and results[0].error.startswith("ValueError")
    assert results[1].metrics["makespan_ns"] > 0
    assert results[2].metrics["makespan_ns"] > 0


def test_fail_fast_stops_at_the_first_failure():
    from repro.experiments.sweep import SweepError

    seen = []
    grid = [_tiny_scenario(seed=1), _failing_scenario(), _tiny_scenario(seed=2)]
    with pytest.raises(SweepError) as excinfo:
        run_sweep(
            grid,
            workers=1,
            fail_fast=True,
            progress=lambda done, total, result: seen.append(result.failed),
        )
    # The third cell never ran: partial results stop at the failure.
    assert seen == [False, True]
    assert len(excinfo.value.results) == 2
    assert excinfo.value.results[-1].failed


def test_interrupting_a_parallel_sweep_terminates_instead_of_draining(tmp_path):
    """Regression: Ctrl-C used to close()+join() the pool, which blocks until
    every queued scenario simulated to completion.  The sweep must exit
    promptly (pool.terminate) while surfacing the KeyboardInterrupt."""
    import os
    import signal
    import subprocess
    import sys
    import threading
    import time
    from pathlib import Path

    if os.name != "posix":
        pytest.skip("POSIX signal semantics required")

    script = tmp_path / "interrupt_sweep.py"
    script.write_text(
        """
import sys
from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import run_sweep

# ~2s per cell: long enough that draining the queue after the interrupt
# (the old bug) takes tens of seconds, far beyond the parent's bound.
grid = [
    Scenario(
        name=f"slow/{seed}",
        jobs=(AppSpec("UR", 16, {"scale": 1.0, "iterations": 500, "seed": seed}),),
        config=SimulationConfig(system=tiny_system(), seed=seed),
    )
    for seed in range(1, 17)
]

try:
    run_sweep(
        grid,
        workers=2,
        progress=lambda done, total, result: print(f"DONE {done}", flush=True),
    )
except KeyboardInterrupt:
    print("INTERRUPTED", flush=True)
    sys.exit(42)
print("DRAINED", flush=True)
sys.exit(0)
"""
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    watchdog = threading.Timer(120.0, proc.kill)
    watchdog.start()
    try:
        # Wait for the first completed cell, then interrupt the parent only
        # (the workers keep running unless the sweep terminates them).
        line = proc.stdout.readline()
        assert line.strip() == "DONE 1", f"unexpected first line {line!r}"
        interrupted_at = time.monotonic()
        os.kill(proc.pid, signal.SIGINT)
        remaining = proc.communicate(timeout=60)[0]
        elapsed = time.monotonic() - interrupted_at
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 42, f"exit {proc.returncode}, output: {remaining!r}"
    assert "INTERRUPTED" in remaining
    assert "DRAINED" not in remaining
    # Draining ~14 queued 2s-cells over 2 workers would take >10s; a
    # terminated pool exits in well under that.
    assert elapsed < 8.0, f"sweep took {elapsed:.1f}s to exit after SIGINT (drained?)"
