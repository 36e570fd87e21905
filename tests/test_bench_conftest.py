"""Tests of the benchmark-suite session plumbing (``benchmarks/conftest.py``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import Scenario, scenario_hash

_BENCH_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


def _load_bench_conftest(tmp_path, monkeypatch):
    """Import a private copy of benchmarks/conftest.py against a tmp store."""
    monkeypatch.setenv("REPRO_BENCH_STORE", str(tmp_path / "store.sqlite"))
    monkeypatch.setenv("REPRO_BENCH_SUMMARY", "")
    spec = importlib.util.spec_from_file_location(
        "bench_conftest_under_test", _BENCH_CONFTEST
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


def test_run_scenario_memoizes_by_scenario_hash_and_records(tmp_path, monkeypatch):
    bench = _load_bench_conftest(tmp_path, monkeypatch)
    scenario = Scenario(
        name="bench-memo/ur",
        jobs=(AppSpec("UR", 6, {"scale": 0.2}),),
        config=SimulationConfig(system=tiny_system(), seed=3).with_routing("par"),
    )
    first = bench.run_scenario(scenario)
    assert bench.run_scenario(scenario) is first
    assert list(bench._RUNS) == [scenario_hash(scenario)]
    assert bench.bench_store().get(scenario) is not None


def test_fidelity_comparison_rows_land_in_bench_summary(tmp_path, monkeypatch):
    bench = _load_bench_conftest(tmp_path, monkeypatch)
    summary_path = tmp_path / "BENCH.json"
    bench._SUMMARY_PATH = str(summary_path)
    bench._DRIVER_TIMES["test_fidelity_comparison"] = {
        "tests": 1, "passed": 1, "wall_seconds": 1.0,
    }
    bench.record_fidelity_comparison("table1/FFT3D", {"makespan_rel_err": 0.05})
    bench.pytest_sessionfinish(session=None, exitstatus=0)
    summary = json.loads(summary_path.read_text())
    assert summary["fidelity_comparison"]["table1/FFT3D"] == {"makespan_rel_err": 0.05}
    assert "backend_comparison" not in summary
