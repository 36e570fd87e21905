"""Tests of the warm-store read path: the batched scenario lookup, the
statement counts of warm sweeps and reports, exact-case name prefixes and
the one-serialization scenario key."""

import hashlib
import json
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import build_report, table1_rows
from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import (
    CACHE_VERSION,
    Scenario,
    get_scenario,
    pairwise_scenario,
    scenario_hash,
    scenario_key,
    scenario_names,
    table1_scenario,
)
from repro.experiments.sweep import run_sweep
from repro.results import ResultStore


def _cell(index: int, name: str = "cell") -> Scenario:
    return Scenario(
        name=f"{name}/{index}",
        jobs=(AppSpec("UR", 8, {"scale": 0.2}),),
        config=SimulationConfig(system=tiny_system(), seed=index).with_routing("par"),
    )


def _metrics(index: int) -> dict:
    return {"makespan_ns": 1000.0 + index, "events_fired": index, "comm_time_ns/UR": 0.5 * index}


def _statements(store: ResultStore, body):
    """``(SQL statements body() executed on the store's connection, its result)``."""
    executed: list = []
    store._conn.set_trace_callback(executed.append)
    try:
        result = body()
    finally:
        store._conn.set_trace_callback(None)
    return executed, result


def _rewrite_scenario_json(path, text: str) -> None:
    """Overwrite the one stored run's scenario document behind the store's back."""
    conn = sqlite3.connect(path)
    conn.execute("UPDATE runs SET scenario_json = ?", (text,))
    conn.commit()
    conn.close()


# ------------------------------------------------------------ lookup parity
def test_get_many_matches_get_in_input_order_with_misses_and_duplicates():
    store = ResultStore()
    first, second, missing = _cell(1), _cell(2), _cell(3)
    store.record(first, _metrics(1), wall_seconds=1.5)
    store.record(second, _metrics(2))
    cells = [second, missing, first, second, missing]
    found = store.get_many(cells)
    assert [run and run.name for run in found] == ["cell/2", None, "cell/1", "cell/2", None]
    assert found == [store.get(cell) for cell in cells]
    assert found[2].metrics == _metrics(1) and found[2].wall_seconds == 1.5
    assert found[0].scenario == second.to_dict()
    assert store.get_many([]) == []


def test_stale_row_reads_as_miss_until_rerecorded(tmp_path):
    path = tmp_path / "r.sqlite"
    cell = _cell(1)
    with ResultStore(path) as store:
        store.record(cell, _metrics(1))
    doc = cell.to_dict()
    doc["sim"]["seed"] = 999
    _rewrite_scenario_json(path, json.dumps(doc, sort_keys=True, separators=(",", ":")))
    with ResultStore(path) as store:
        assert store.get_many([cell, cell]) == [None, None]
        assert store.get(cell) is None
        # Re-recording the cell replaces the stale row, and it hits again.
        assert store.record(cell, _metrics(1))
        [healed] = store.get_many([cell])
        assert healed is not None and healed.metrics == _metrics(1)
        assert healed.scenario == cell.to_dict()


def test_equivalent_but_not_byte_canonical_row_still_hits(tmp_path):
    path = tmp_path / "r.sqlite"
    cell = _cell(1)
    with ResultStore(path) as store:
        store.record(cell, _metrics(1))
    # Unsorted keys and whitespace: the same document in another spelling.
    text = json.dumps(cell.to_dict(), indent=1)
    assert text != cell.canonical_json()
    _rewrite_scenario_json(path, text)
    with ResultStore(path) as store:
        [hit] = store.get_many([cell])
        assert hit is not None and hit.metrics == _metrics(1)
        assert hit.scenario == cell.to_dict()
        assert store.get(cell) == hit
        # A row that lookups serve is no stale row: re-recording backfills
        # it instead of replacing it (and dropping the metrics it held).
        assert not store.record(cell, {"bytes_ejected": 64})
        assert store.get(cell).metrics == {**_metrics(1), "bytes_ejected": 64}


def test_get_many_reads_grids_over_500_cells_in_chunks():
    store = ResultStore()
    cells = [_cell(index) for index in range(1100)]
    for index, cell in enumerate(cells[:1050]):
        store.record(cell, _metrics(index))
    executed, found = _statements(store, lambda: store.get_many(cells))
    assert [run is not None for run in found] == [True] * 1050 + [False] * 50
    assert [run.metrics for run in found[:1050]] == [_metrics(index) for index in range(1050)]
    assert [run.name for run in found[:1050]] == [cell.name for cell in cells[:1050]]
    # 1,100 distinct hashes take three runs statements, metrics included.
    assert len(executed) == 3


# ------------------------------------------------------- statement counts
def test_warm_sweep_reads_the_grid_in_constant_statements():
    counts = {}
    for size in (4, 40):
        store = ResultStore()
        cells = [_cell(index) for index in range(size)]
        for index, cell in enumerate(cells):
            store.record(cell, _metrics(index))
        executed, results = _statements(store, lambda: run_sweep(cells, store=store))
        assert all(result.cached for result in results)
        assert [result.metrics for result in results] == [_metrics(i) for i in range(size)]
        counts[size] = len(executed)
    assert counts[4] == counts[40] == 1


def _comm(app: str, mean: float) -> dict:
    return {f"comm_time_ns/{app}": mean, f"comm_time_std_ns/{app}": mean / 10}


@pytest.fixture(scope="module")
def report_store():
    """Every family behind table1, table2, mixed and pairwise, under two
    routings, from hand-written metric rows (no simulation)."""
    store = ResultStore()
    tiny = SimulationConfig(system=tiny_system())
    mix = (AppSpec("FFT3D", 4), AppSpec("Halo3D", 8), AppSpec("UR", 4))
    for index, routing in enumerate(("par", "minimal")):
        config = tiny.with_routing(routing)
        for app in ("UR", "FFT3D", "LU"):
            store.record(
                table1_scenario(app, routing=routing),
                {
                    f"total_msg_bytes/{app}": 1000,
                    f"execution_time_ns/{app}": 250.0 + index,
                    f"injection_rate_gbps/{app}": 0.125,
                    f"peak_ingress_bytes/{app}": 64,
                },
            )
        store.record(
            Scenario(name="mixed/table2", jobs=mix, config=config),
            {k: v for spec in mix for k, v in _comm(spec.name, 3000.0 + index).items()},
        )
        for spec in mix:
            store.record(
                Scenario(name=f"mixed/solo/{spec.name}", jobs=(spec,), config=config),
                _comm(spec.name, 1000.0 + index),
            )
        for background in (None, "UR", "Halo3D"):
            pair = pairwise_scenario(
                "FFT3D", background, target_ranks=4, background_ranks=4, config=config
            )
            store.record(pair, _comm("FFT3D", 800.0 + 100.0 * index + len(background or "")))
    yield store
    store.close()


@pytest.mark.parametrize(
    "name, filters",
    [
        ("table1", {"routing": "par"}),
        ("table2", {"routing": "par"}),
        ("mixed", {"routing": "par"}),
        ("mixed", {}),
        ("pairwise/FFT3D+UR", {"routing": "par"}),
        ("pairwise/FFT3D+UR", {}),
        ("pairwise/FFT3D", {}),
    ],
)
def test_report_reads_its_runs_in_one_statement(report_store, name, filters):
    executed, text = _statements(report_store, lambda: build_report(report_store, name, **filters))
    assert "---" in text
    assert len(executed) == 1, executed


# ------------------------------------------------------------ name prefixes
def test_name_prefix_matches_case_exactly():
    store = ResultStore()
    ur = table1_scenario("UR")
    for scenario, value in ((ur, 1.0), (ur.with_updates(name="TABLE1/UR-copy"), 3.0)):
        store.record(
            scenario,
            {
                "total_msg_bytes/UR": value,
                "execution_time_ns/UR": value,
                "injection_rate_gbps/UR": value,
                "peak_ingress_bytes/UR": value,
            },
        )
    assert [run.name for run in store.runs(name_prefix="table1/")] == ["table1/UR"]
    assert [run.name for run in store.runs(name_prefix="TABLE1/")] == ["TABLE1/UR-copy"]
    [row] = table1_rows(store)
    assert row["total_msg_bytes"] == 1.0 and row["execution_time_ns"] == 1.0
    # LIKE's wildcards are literal characters of a prefix.
    store.record(_cell(1, name="a_b"), _metrics(1))
    store.record(_cell(2, name="axb"), _metrics(2))
    store.record(_cell(3, name="a%b"), _metrics(3))
    assert [run.name for run in store.runs(name_prefix="a_")] == ["a_b/1"]
    assert [run.name for run in store.runs(name_prefix="a%")] == ["a%b/3"]


# ------------------------------------------------------------- scenario key
def _reference_hash(scenario: Scenario) -> str:
    """The historical hash form: the two-key document serialized as a whole."""
    payload = {"version": CACHE_VERSION, "scenario": scenario.to_dict()}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _assert_key_matches_reference(scenario: Scenario) -> None:
    key, canonical = scenario_key(scenario)
    assert key == scenario_hash(scenario) == _reference_hash(scenario)
    assert canonical == json.dumps(scenario.to_dict(), sort_keys=True, separators=(",", ":"))


def test_scenario_key_matches_reference_form_on_every_preset():
    names = scenario_names()
    assert len(names) == 48
    for name in names:
        _assert_key_matches_reference(get_scenario(name))


@st.composite
def _scenarios(draw) -> Scenario:
    apps = draw(st.lists(st.sampled_from(["UR", "FFT3D", "Halo3D", "LU"]), min_size=1,
                         max_size=3, unique=True))
    jobs = tuple(
        AppSpec(
            app,
            draw(st.integers(1, 8)),
            draw(st.fixed_dictionaries({}, optional={
                "scale": st.floats(0.001, 8.0), "seed": st.integers(0, 2**31 - 1),
            })),
            draw(st.one_of(st.just(0.0), st.floats(0.0, 1e7))),
        )
        for app in apps
    )
    config = SimulationConfig(
        system=tiny_system().scaled(link_bandwidth_gbps=draw(st.floats(1.0, 400.0))),
        seed=draw(st.integers(0, 2**31 - 1)),
        message_overhead_ns=draw(st.floats(0.0, 1e4)),
        record_packets=draw(st.booleans()),
        warmup_ns=draw(st.sampled_from([0.0, 1500.5])),
    ).with_routing(draw(st.sampled_from(["minimal", "par", "ugal-g", "q-adaptive"])))
    return Scenario(
        name=draw(st.text(min_size=1, max_size=12).filter(str.strip)),
        jobs=jobs,
        config=config,
        placement=draw(st.sampled_from(["random", "contiguous"])),
    )


@settings(max_examples=60, deadline=None)
@given(scenario=_scenarios())
def test_scenario_key_matches_reference_form_on_generated_scenarios(scenario):
    _assert_key_matches_reference(scenario)
