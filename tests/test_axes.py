"""The axis table: every scenario axis is set and read back by one record.

The round-trip properties are the contract of :mod:`repro.experiments.axes`:
a store holding the cells a grid (or ``with_updates``) wrote with a value
returns exactly those cells when filtered by that value, however the value
is spelled, because the read side canonicalizes as the write side does.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import build_parser, main
from repro.config import SimulationConfig, tiny_system
from repro.experiments.axes import AXES, AXIS
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import Scenario, expand_grid, scenario_hash, table1_scenario
from repro.results import ResultStore, ensure_comparable, ensure_uniform
from repro.results import store as store_module

DOCS = Path(__file__).resolve().parent.parent / "docs" / "scenarios.md"

#: A co-run whose *second* job arrives at 1,000 ns: a filter on the first
#: job's arrival (the one ``start_time`` sets) must not see the second's.
BASE = Scenario(
    name="axes/base",
    jobs=(AppSpec("hotspot", 4, {"scale": 0.5}), AppSpec("UR", 4, {}, 1_000.0)),
    config=SimulationConfig(system=tiny_system()).with_routing("minimal"),
)


def _spellings(*names: str):
    """A name and its case variants, as the CLI or a caller might type it."""
    return st.sampled_from(names).flatmap(
        lambda name: st.sampled_from([name, name.upper(), name.title()])
    )


#: Per axis: (canonical values, the spelling of a value).  Each grid cell
#: and each filter draws its own spelling.
VALUES = {
    "routing": (["par", "minimal", "q-adaptive", "ugal-g"], lambda v: _spellings(v)),
    "placement": (["random", "contiguous"], lambda v: _spellings(v)),
    "seed": ([1, 2, 7, 40], st.just),
    "scale": ([0.25, 0.5, 1.0], st.just),
    "start_time": ([0.0, 500.0, 1_000.0, 20_000.0], st.just),
    "knobs": (
        [0.1, 0.25, 0.9],
        lambda v: _spellings("hotspot").map(lambda job: {job: {"hot_fraction": v}}),
    ),
    "offered_load": ([0.1, 0.4, 0.7], st.just),
    "fidelity": (["packet", "flow"], lambda v: _spellings(v)),
    "warmup_ns": ([0.0, 500.0, 2_000.0], st.just),
    "measurement_ns": ([10_000.0, 50_000.0], st.just),
}


def test_every_axis_has_round_trip_values():
    assert set(VALUES) == set(AXIS)


def _record(store: ResultStore, cells) -> None:
    for cell in cells:
        store.record(cell, {"makespan_ns": 1.0})


def _check_filters(store: ResultStore, data, applied) -> None:
    """``applied`` lists (axis, canonical value, cell): every filter on a
    value returns exactly the cells written with it."""
    for axis, canonical, _ in applied:
        wanted = {scenario_hash(cell) for a, v, cell in applied if a == axis and v == canonical}
        spelled = data.draw(VALUES[axis][1](canonical))
        got = {run.scenario_hash for run in store.runs(**{axis: spelled})}
        assert got == wanted, (axis, spelled)


@settings(max_examples=60, deadline=None)
@given(
    axes=st.lists(
        st.sampled_from([axis.name for axis in AXES if axis.grid]),
        min_size=1, max_size=3, unique=True,
    ),
    data=st.data(),
)
def test_every_grid_cell_is_found_by_the_value_it_was_written_with(axes, data):
    chosen = {
        axis: data.draw(st.lists(st.sampled_from(VALUES[axis][0]), min_size=1, max_size=3,
                                 unique=True))
        for axis in axes
    }
    spelled = {axis: [data.draw(VALUES[axis][1](v)) for v in values]
               for axis, values in chosen.items()}
    cells = expand_grid(BASE, **{AXIS[axis].grid: spelled[axis] for axis in axes})
    # expand_grid's product varies the last axis (in table order) fastest.
    order = [axis.name for axis in AXES if axis.name in chosen]
    combos = [()]
    for axis in order:
        combos = [combo + ((axis, v),) for combo in combos for v in chosen[axis]]
    assert len(cells) == len(combos)
    with ResultStore() as store:
        _record(store, cells)
        applied = [(axis, value, cell) for combo, cell in zip(combos, cells)
                   for axis, value in combo]
        _check_filters(store, data, applied)


@settings(max_examples=40, deadline=None)
@given(axis=st.sampled_from([axis.name for axis in AXES]), data=st.data())
def test_every_with_updates_value_is_found_by_that_value(axis, data):
    values = data.draw(st.lists(st.sampled_from(VALUES[axis][0]), min_size=1, max_size=3,
                                unique=True))
    keyword = AXIS[axis].keyword
    cells = [
        BASE.with_updates(name=f"axes/cell{index}", **{keyword: data.draw(VALUES[axis][1](v))})
        for index, v in enumerate(values)
    ]
    with ResultStore() as store:
        _record(store, cells)
        _check_filters(store, data, [(axis, v, cell) for v, cell in zip(values, cells)])


def test_store_filters_canonicalize_like_the_write_side(tmp_path, capsys):
    """``with_updates(routing="PAR", placement="Contiguous")`` is stored as
    par/contiguous, so filtering by the spelling it was written with finds it
    — in the API and through ``report --routing/--placement``."""
    scenario = table1_scenario("UR").with_updates(routing="PAR", placement="Contiguous")
    metrics = {
        "total_msg_bytes/UR": 1000, "execution_time_ns/UR": 250.0,
        "injection_rate_gbps/UR": 0.125, "peak_ingress_bytes/UR": 64,
    }
    path = tmp_path / "r.sqlite"
    with ResultStore(path) as store:
        store.record(scenario, metrics)
        assert len(store.runs(routing="PAR")) == 1
        assert len(store.runs(placement="Contiguous", fidelity="PACKET")) == 1
    argv = ["report", "table1", "--store", str(path)]
    assert main(argv + ["--placement", "Contiguous", "--routing", "PAR"]) == 0
    assert "UR" in capsys.readouterr().out
    assert main(["run", "table1/UR", "--placement", "Bogus", "--dump-scenario", "x"]) == 2
    assert main(argv + ["--placement", "Bogus"]) == 2
    assert "unknown placement policy 'Bogus'" in capsys.readouterr().err


def test_start_time_reads_back_the_first_job_it_sets():
    """A grid's unstaggered cell is unstaggered even when a later job arrives late."""
    cells = expand_grid(BASE, start_times=[0.0, 5_000.0])
    with ResultStore() as store:
        _record(store, cells)
        assert [run.name for run in store.runs(start_time=0.0)] == ["axes/base"]
        assert [run.name for run in store.runs(start_time=5_000.0)] == ["axes/base[t0=5000]"]
        assert store.runs(start_time=1_000.0) == []


def test_unknown_axes_are_type_errors():
    with pytest.raises(TypeError, match="system"):
        BASE.with_updates(system=tiny_system())
    with pytest.raises(TypeError, match="scales"):
        expand_grid(BASE, scales=[0.5])
    with pytest.raises(TypeError, match="job_kwargs"):
        ResultStore().runs(job_kwargs={})


def test_each_run_serializes_its_configuration_once(monkeypatch):
    """The uniformity checks compare a key built once per stored run, not
    once per check: re-checking the same runs serializes nothing."""
    pair = Scenario(name="axes/pair", jobs=BASE.jobs, config=BASE.config)
    with ResultStore() as store:
        for seed in (1, 2, 3):
            store.record(pair.with_updates(seed=seed), {"makespan_ns": 1.0})
            store.record(BASE.with_updates(seed=seed), {"makespan_ns": 1.0})
        runs = store.runs()
    calls = []
    dumps = json.dumps

    def counting(*args, **kwargs):
        calls.append(1)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(store_module.json, "dumps", counting)
    ensure_uniform(runs[:3], "axes/base")
    assert len(calls) <= 3 * (1 + len(BASE.jobs))  # per run: its setting and jobs
    for _ in range(5):
        ensure_uniform(runs[:3], "axes/base")
        ensure_comparable(runs, "axes/base vs axes/pair")
    assert len(calls) <= 6 * (1 + len(BASE.jobs))


def _options(command: str) -> set:
    (subcommands,) = build_parser()._subparsers._group_actions
    return set(subcommands.choices[command]._option_string_actions)


def test_docs_axes_table_lists_exactly_the_axes():
    """docs/scenarios.md's "Axes" table has one row per axis, and its
    keyword and option columns are the ones the code and the CLI take."""
    section = DOCS.read_text().split("\n## Axes\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert [row[0] for row in rows] == [axis.name for axis in AXES]
    sweep, report = _options("sweep"), _options("report")
    for (name, keyword, grid, _part, sweep_option, report_option, _default) in rows:
        assert keyword == AXIS[name].keyword
        assert grid == (AXIS[name].grid or "—")
        assert sweep_option == "—" or sweep_option in sweep
        assert report_option == (AXIS[name].flag or "—")
        assert report_option == "—" or report_option in report
