"""Tests of the declarative scenario API: round-trips, hashing, registry,
grid expansion, sweep equivalence and the scenario CLI."""

import dataclasses
import json

import pytest

from repro.cli import build_parser, main
from repro.config import RoutingConfig, SimulationConfig, tiny_system
from repro.experiments.configs import PAPER_TABLE2_JOB_SIZES, AppSpec
from repro.experiments.scenario import (
    CACHE_VERSION,
    Scenario,
    dump_scenarios,
    expand_grid,
    get_scenario,
    load_scenarios,
    loadcurve_scenario,
    mixed_scenario,
    pairwise_scenario,
    register_scenario,
    scenario_hash,
    scenario_names,
    table1_scenario,
)
from repro.experiments.sweep import run_sweep
from repro.results import flatten_run
from repro.workloads import UniformRandom, resolve_application


def _tiny_scenario(**overrides) -> Scenario:
    fields = dict(
        name="test/pair",
        jobs=(
            AppSpec("FFT3D", 8, {"scale": 0.3}),
            AppSpec("Halo3D", 8, {"scale": 0.3, "seed": 7, "iterations": 4}),
        ),
        config=SimulationConfig(system=tiny_system(), seed=3).with_routing("par"),
        placement="random",
    )
    fields.update(overrides)
    return Scenario(**fields)


# ------------------------------------------------------------------ round-trip
@pytest.mark.parametrize(
    "scenario",
    [
        _tiny_scenario(),
        _tiny_scenario(name="test/standalone", jobs=(AppSpec("UR", 4, {}),)),
        _tiny_scenario(placement="contiguous"),
        _tiny_scenario(
            config=SimulationConfig(
                system=tiny_system().scaled(link_bandwidth_gbps=25.0),
                seed=9,
                eager_threshold_bytes=2048,
                message_overhead_ns=150.0,
                stats_bin_ns=50_000.0,
                record_packets=False,
                max_time_ns=1e9,
                max_events=1_000_000,
            ).with_routing("q-adaptive", q_learning_rate=0.5)
        ),
    ],
)
def test_scenario_json_roundtrip_is_exact(scenario):
    assert Scenario.from_json(scenario.to_json()) == scenario
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    # ...and through a canonical (compact) encoding as well.
    assert Scenario.from_json(scenario.canonical_json()) == scenario


def test_roundtrip_preserves_every_config_field():
    scenario = _tiny_scenario()
    rebuilt = Scenario.from_dict(scenario.to_dict())
    for f in dataclasses.fields(type(scenario.config.system)):
        assert getattr(rebuilt.config.system, f.name) == getattr(scenario.config.system, f.name)
    for f in dataclasses.fields(RoutingConfig):
        assert getattr(rebuilt.config.routing, f.name) == getattr(scenario.config.routing, f.name)
    for f in dataclasses.fields(SimulationConfig):
        assert getattr(rebuilt.config, f.name) == getattr(scenario.config, f.name)
    assert rebuilt.jobs == scenario.jobs


def test_from_dict_rejects_unknown_keys_at_every_level():
    base = _tiny_scenario().to_dict()
    for mutate in [
        lambda d: d.update(extra=1),
        lambda d: d["system"].update(warp_drive=True),
        lambda d: d["routing"].update(tuning=1),
        lambda d: d["sim"].update(sneaky=0),
        lambda d: d["jobs"][0].update(priority=9),
    ]:
        data = json.loads(json.dumps(base))
        mutate(data)
        with pytest.raises(ValueError):
            Scenario.from_dict(data)


#: (section, field, value) of a mistyped scenario field; section None is the
#: top level.
MISTYPED_FIELDS = [
    ("sim", "seed", "x"),
    ("sim", "seed", True),
    ("sim", "record_packets", "no"),
    ("sim", "stats_bin_ns", "x"),
    ("sim", "max_events", "x"),
    ("sim", "max_time_ns", False),
    ("system", "global_latency_ns", "x"),
    ("system", "buffer_packets", "x"),
    ("system", "link_bandwidth_gbps", True),
    ("routing", "q_learning_rate", "x"),
    ("routing", "nonminimal_candidates", "x"),
    (None, "placement", 3),
]


@pytest.mark.parametrize(
    "section,key,value",
    MISTYPED_FIELDS,
    ids=[f"{section or 'top'}.{key}={value!r}" for section, key, value in MISTYPED_FIELDS],
)
def test_from_dict_rejects_mistyped_fields_naming_them(section, key, value):
    data = json.loads(_tiny_scenario().to_json())
    (data if section is None else data[section])[key] = value
    field_name = key if section is None else f"{section}.{key}"
    with pytest.raises(ValueError, match=f"'{field_name}'"):
        Scenario.from_dict(data)


def test_from_dict_keeps_an_int_given_for_a_float_as_is():
    data = json.loads(_tiny_scenario().to_json())
    data["system"]["global_latency_ns"] = 300
    data["sim"]["max_time_ns"] = 5_000_000
    scenario = Scenario.from_dict(data)
    assert type(scenario.config.system.global_latency_ns) is int
    assert scenario.to_dict() == data


def test_from_dict_requires_name_and_jobs_but_defaults_the_rest():
    with pytest.raises(ValueError):
        Scenario.from_dict({"jobs": [{"name": "UR", "num_ranks": 4}]})
    with pytest.raises(ValueError):
        Scenario.from_dict({"name": "x"})
    scenario = Scenario.from_dict({"name": "x", "jobs": [{"name": "UR", "num_ranks": 4}]})
    assert scenario.placement == "random"
    assert scenario.config == SimulationConfig()


def test_scenario_validates_names_against_registries_at_parse_time():
    with pytest.raises(ValueError):
        _tiny_scenario(jobs=(AppSpec("NotAnApp", 4, {}),))
    with pytest.raises(ValueError):
        _tiny_scenario(placement="spread")
    with pytest.raises(ValueError):  # routing typo caught by RoutingConfig itself
        _tiny_scenario(config=SimulationConfig(system=tiny_system()).with_routing("ugal-x"))
    with pytest.raises(ValueError):  # duplicate job names
        _tiny_scenario(jobs=(AppSpec("UR", 4, {}), AppSpec("UR", 4, {})))
    with pytest.raises(ValueError):  # empty job list
        _tiny_scenario(jobs=())


def _scenario_dict_with_scale(scale):
    data = json.loads(_tiny_scenario().to_json())
    data["jobs"][1]["kwargs"]["scale"] = scale
    return data


#: Ways of describing a job with a bad ``scale`` or ``offered_load``, and the
#: job the error must name.
BAD_VOLUME_DESCRIPTIONS = {
    "AppSpec scale=0": (lambda: AppSpec("UR", 4, {"scale": 0}), "UR"),
    "AppSpec scale=-1": (lambda: AppSpec("LU", 4, {"scale": -1.0}), "LU"),
    "AppSpec scale=nan": (lambda: AppSpec("UR", 4, {"scale": float("nan")}), "UR"),
    "AppSpec scale='big'": (lambda: AppSpec("UR", 4, {"scale": "big"}), "UR"),
    "with_updates scale=0": (lambda: _tiny_scenario().with_updates(scale=0), "FFT3D"),
    "from_dict scale=0": (lambda: Scenario.from_dict(_scenario_dict_with_scale(0)), "Halo3D"),
    "loadcurve offered_load=1.5": (
        lambda: loadcurve_scenario("shift", offered_load=1.5), "shift"
    ),
    "AppSpec offered_load=0": (lambda: AppSpec("hotspot", 8, {"offered_load": 0.0}), "hotspot"),
    "with_updates offered_load=2": (
        lambda: get_scenario("synthetic/shift").with_updates(offered_load=2.0), "shift"
    ),
}


@pytest.mark.parametrize(
    "describe,job", BAD_VOLUME_DESCRIPTIONS.values(), ids=list(BAD_VOLUME_DESCRIPTIONS)
)
def test_bad_scale_or_offered_load_is_rejected_where_the_job_is_described(describe, job):
    with pytest.raises(ValueError, match=rf"job '{job}': (scale|offered_load) must be"):
        describe()


def test_appspec_applies_the_workloads_own_scale_rule():
    with pytest.raises(ValueError) as built:
        UniformRandom(4, scale=0)
    with pytest.raises(ValueError) as described:
        AppSpec("UR", 4, {"scale": 0})
    assert str(described.value) == f"job 'UR': {built.value}"


def test_scenario_canonicalizes_job_and_placement_names():
    scenario = _tiny_scenario(jobs=(AppSpec("fft3d", 4, {}),), placement="Random")
    assert scenario.jobs[0].name == "FFT3D"
    assert scenario.placement == "random"


# --------------------------------------------------------------------- hashing
#: Pinned cache key of every registry preset.  These hashes are the sweep
#: cache and result-store keys: silent drift would orphan every stored run,
#: so any change here must be deliberate and come with a CACHE_VERSION bump
#: (or be a brand-new preset).  Regenerate a line with
#: `dragonfly-sim scenarios <name>` + scenario_hash, or the loop in this file.
GOLDEN_PRESET_HASHES = {
    "loadcurve/bit-complement": "319214eeeed763bac1ba5088",
    "loadcurve/bursty": "d57839b7218c0cf8d7354828",
    "loadcurve/hotspot": "e8d668bb32b282fc187ce440",
    "loadcurve/permutation": "251f057d9b9fa8cad7a0337d",
    "loadcurve/shift": "bc36be09c0fc9c4382e55517",
    "loadcurve/transpose": "28190ec2bd66dfbcf1531d4e",
    "mixed/solo/CosmoFlow": "a0cc57a4191d9d215f55ab69",
    "mixed/solo/FFT3D": "00fc603e3ad28fe009899c8f",
    "mixed/solo/LQCD": "b736b63b306c024e17feb7cb",
    "mixed/solo/LU": "011511cf437d0066923bb8d1",
    "mixed/solo/Stencil5D": "98114d5f3415d5e4223a0fae",
    "mixed/solo/UR": "de9cf7f5a871582db32852d9",
    "mixed/table2": "25bb9f805eb1e7fefa8e03fb",
    "ml/moe_alltoall": "494737d18152dfa902ae650f",
    "ml/pipeline_p2p": "03ac80a27de79cbc68e5ac73",
    "ml/ring_allreduce": "2037e934a347118160548d19",
    "pairwise/CosmoFlow": "fd7dff5929e22ba6368aa23e",
    "pairwise/CosmoFlow+Halo3D": "457af3e271ad3276f65e33c4",
    "pairwise/FFT3D": "349d93fdc952bb2822091299",
    "pairwise/FFT3D+Halo3D": "35cf80b4ebca0cdd9219e99d",
    "pairwise/FFT3D+UR": "53bb85180bc419f6640627bd",
    "pairwise/LQCD": "c1104bf18b3fc9e9f482bbd1",
    "pairwise/LQCD+Stencil5D": "a23cc1cf00fdcd0ad6924e31",
    "pairwise/UR": "6b54c9dadbbf67ddbfb86496",
    "pairwise/UR+bit-complement": "4311743960b135f34aec3b76",
    "pairwise/UR+bursty": "59b928e4f1eb5f5cb8674f4a",
    "pairwise/UR+hotspot": "74122e927c8810e491dc142e",
    "pairwise/UR+ml.moe_alltoall": "19779f14f6f9fc2713ac4da8",
    "pairwise/UR+ml.pipeline_p2p": "0a593daa8255514867c9b6fa",
    "pairwise/UR+ml.ring_allreduce": "fc76e16fc66b306542159635",
    "pairwise/UR+permutation": "cf1fb553e42fc4b344f2cacb",
    "pairwise/UR+shift": "c4ef9a56f3f5d2d9bcfaac5b",
    "pairwise/UR+transpose": "c40863e9b6d9fa1ddad4acf1",
    "synthetic/bit-complement": "9f338cb52db9d38a72792fd6",
    "synthetic/bursty": "cc2ec02d447528fbbb159470",
    "synthetic/hotspot": "cd8c2e93f0a875357ebd63b4",
    "synthetic/permutation": "9dea7b33d7ef9340b73a37e6",
    "synthetic/shift": "6412658cbe165156d3ebbeb7",
    "synthetic/transpose": "ba990fb6e737938f6a56083a",
    "table1/CosmoFlow": "0c41981f68d060ca0c90f0f7",
    "table1/DL": "2e68a3b60bbeafb745121b49",
    "table1/FFT3D": "8a763b7e12b096cf3030d085",
    "table1/Halo3D": "ed85f3fd626ce520909a89c8",
    "table1/LQCD": "a8280542b4c9623eafa82b3b",
    "table1/LU": "dcb1d23d61377cf9c282fd70",
    "table1/LULESH": "9315035801040ad8cf6cc440",
    "table1/Stencil5D": "d37160e09bf00cb475db3b57",
    "table1/UR": "2b3415b947e02e5b111492ab",
}


def test_every_registry_preset_hash_is_pinned():
    """Cache-key drift across the whole scenario library fails tier-1.

    A mismatch means stored sweeps and result-store rows for that preset
    would silently stop being found; an extra/missing name means the library
    itself changed.  Both must be conscious decisions, not side effects.
    """
    actual = {name: scenario_hash(get_scenario(name)) for name in scenario_names()}
    assert actual == GOLDEN_PRESET_HASHES


def test_scenario_hash_golden_value():
    """Golden cache key: fails when the canonical serialization (or any
    config default covered by it) changes, reminding you to bump
    CACHE_VERSION in repro.experiments.scenario."""
    golden = _tiny_scenario(name="golden/pairwise")
    assert CACHE_VERSION == 2
    assert scenario_hash(golden) == "8b866de7cf1585cd2065b74e"


def test_scenario_hash_tracks_content_not_identity():
    scenario = _tiny_scenario()
    assert scenario_hash(scenario) == scenario_hash(_tiny_scenario())
    assert scenario_hash(scenario) != scenario_hash(_tiny_scenario(name="other"))
    assert scenario_hash(scenario) != scenario_hash(
        _tiny_scenario(config=scenario.config.with_seed(4))
    )
    assert scenario_hash(scenario) != scenario_hash(
        _tiny_scenario(config=scenario.config.with_routing("minimal"))
    )
    assert scenario_hash(scenario) != scenario_hash(_tiny_scenario(placement="contiguous"))


# ------------------------------------------------------------ retired sim knobs
def test_backend_absent_from_every_preset_serialization():
    """No preset serializes a ``sim.backend`` key: the loader rejects it, so
    a leaked key would make the preset's own JSON unloadable."""
    for name in scenario_names():
        scenario = get_scenario(name)
        doc = scenario.to_dict()
        assert "backend" not in doc.get("sim", {}), name
        assert Scenario.from_dict(doc) == scenario, name


def test_scenario_carrying_a_backend_is_rejected():
    """``sim.backend`` named a second hot-core implementation that no longer
    exists; a document that still carries it fails loudly, like any unknown
    key, instead of being silently re-keyed."""
    doc = _tiny_scenario().to_dict()
    doc["sim"]["backend"] = "fast"
    with pytest.raises(ValueError, match=r"unknown keys \['backend'\] in scenario section 'sim'"):
        Scenario.from_dict(doc)


# -------------------------------------------------------------------- registry
def test_builtin_scenario_library():
    names = scenario_names()
    assert "mixed/table2" in names
    assert "pairwise/FFT3D+Halo3D" in names
    assert all(f"table1/{app}" in names for app in ("UR", "FFT3D", "LQCD"))
    scenario = get_scenario("pairwise/FFT3D+Halo3D")
    assert [spec.name for spec in scenario.jobs] == ["FFT3D", "Halo3D"]
    assert get_scenario("mixed/table2") == mixed_scenario()
    assert get_scenario("table1/UR") == table1_scenario("UR")
    with pytest.raises(ValueError):
        get_scenario("table9/UR")
    with pytest.raises(ValueError):  # duplicate registration rejected
        register_scenario("mixed/table2", mixed_scenario)


def test_get_scenario_resolves_any_pair_without_registering_it():
    """Every valid pair is reachable by name; the registry stays unchanged."""
    assert "pairwise/FFT3D+LU" not in scenario_names()
    assert get_scenario("pairwise/FFT3D+LU") == pairwise_scenario("FFT3D", "LU")
    assert get_scenario("pairwise/lulesh") == pairwise_scenario("LULESH", None)
    with pytest.raises(ValueError, match="unknown application"):
        get_scenario("pairwise/FFT3D+NotAnApp")
    with pytest.raises(ValueError, match="different applications"):
        get_scenario("pairwise/LU+LU")
    with pytest.raises(ValueError, match="no pairwise job size"):
        get_scenario("pairwise/trace")


# -------------------------------------------------------------- grid expansion
def test_expand_grid_covers_axes_with_deterministic_names():
    base = _tiny_scenario()
    grid = expand_grid(base, routings=["par", "minimal"], seeds=[1, 2])
    assert len(grid) == 4
    assert [s.name for s in grid] == [
        "test/pair[par,seed=1]",
        "test/pair[par,seed=2]",
        "test/pair[minimal,seed=1]",
        "test/pair[minimal,seed=2]",
    ]
    assert {s.config.routing.algorithm for s in grid} == {"par", "minimal"}
    assert {s.config.seed for s in grid} == {1, 2}
    # Omitted axes keep the base value; re-expansion is deterministic.
    assert all(s.placement == "random" for s in grid)
    assert expand_grid(base, routings=["par", "minimal"], seeds=[1, 2]) == grid
    # Alias routings canonicalize in both the config and the name.
    (aliased,) = expand_grid(base, routings=["ugal"])
    assert aliased.config.routing.algorithm == "ugal-g"
    assert aliased.name == "test/pair[ugal-g]"


# ------------------------------------------------------------------- execution
def test_scenario_run_executes_all_jobs():
    result = _tiny_scenario().run()
    assert result.completed
    assert set(result.jobs) == {"FFT3D", "Halo3D"}
    assert result.config is _tiny_scenario().config or result.config == _tiny_scenario().config


def test_swept_pairwise_grid_matches_serial_scenario_runs_bit_for_bit():
    base = pairwise_scenario(
        "FFT3D", "Halo3D", scale=0.25, target_ranks=6, background_ranks=6,
        config=SimulationConfig(system=tiny_system()),
    )
    grid = expand_grid(base, routings=["par", "minimal"], seeds=[1, 2])
    results = run_sweep(grid, workers=2)
    assert len(results) == 4
    for scenario, result in zip(grid, results):
        serial = scenario.run()
        # Exact float equality: the sweep runs the very same co-run.
        assert result.metrics == flatten_run(serial)
        assert result.metrics["comm_time_ns/FFT3D"] == float(
            serial.record("FFT3D").mean_comm_time
        )


def test_scenario_sweep_caches_by_scenario_hash(tmp_path):
    from repro.results import ResultStore

    store_path = tmp_path / "results.sqlite"
    grid = expand_grid(_tiny_scenario(), seeds=[1, 2])
    first = run_sweep(grid, workers=1, store=store_path)
    assert [r.cached for r in first] == [False, False]
    with ResultStore(store_path) as store:
        assert {run.scenario_hash for run in store.runs()} == {
            scenario_hash(s) for s in grid
        }
    second = run_sweep(grid, workers=1, store=store_path)
    assert [r.cached for r in second] == [True, True]
    for a, b in zip(first, second):
        assert a.metrics == b.metrics
    # Scenario rows carry the grid cell's identity.
    row = second[0].as_row()
    assert row["scenario"] == grid[0].name and row["jobs"] == "FFT3D+Halo3D"


# --------------------------------------------------------------------- file IO
def test_dump_and_load_scenario_files(tmp_path):
    single = tmp_path / "one.json"
    dump_scenarios(single, [_tiny_scenario()])
    assert isinstance(json.loads(single.read_text()), dict)  # single object
    assert load_scenarios(single) == [_tiny_scenario()]

    many = tmp_path / "many.json"
    grid = expand_grid(_tiny_scenario(), seeds=[1, 2])
    dump_scenarios(many, grid)
    assert load_scenarios(many) == grid
    with pytest.raises(ValueError):
        dump_scenarios(tmp_path / "none.json", [])


# ----------------------------------------------------------- staggered arrivals
def test_start_time_round_trips_and_is_omitted_when_zero():
    staggered = _tiny_scenario(
        jobs=(
            AppSpec("FFT3D", 8, {"scale": 0.3}, 25_000.0),
            AppSpec("Halo3D", 8, {"scale": 0.3, "seed": 7}),
        )
    )
    rebuilt = Scenario.from_json(staggered.to_json())
    assert rebuilt == staggered
    assert rebuilt.jobs[0].start_time == 25_000.0
    doc = staggered.to_dict()
    # Zero-start jobs keep the historical three-key form (hash preservation).
    assert "start_time" not in doc["jobs"][1]
    assert doc["jobs"][0]["start_time"] == 25_000.0


def test_start_time_changes_hash_only_when_nonzero():
    explicit_zero = _tiny_scenario(
        jobs=(AppSpec("FFT3D", 8, {"scale": 0.3}, 0.0), _tiny_scenario().jobs[1])
    )
    assert scenario_hash(explicit_zero) == scenario_hash(_tiny_scenario())
    staggered = _tiny_scenario(
        jobs=(AppSpec("FFT3D", 8, {"scale": 0.3}, 1.0), _tiny_scenario().jobs[1])
    )
    assert scenario_hash(staggered) != scenario_hash(_tiny_scenario())


def test_staggered_scenario_runs_and_delays_the_job():
    staggered = _tiny_scenario().with_updates(start_time=40_000.0, scale=0.2)
    assert staggered.jobs[0].start_time == 40_000.0
    result = staggered.run()
    assert result.completed
    target = result.record("FFT3D")
    background = result.record("Halo3D")
    assert target.start_time == 40_000.0
    assert background.start_time == 0.0


def test_expand_grid_start_times_and_job_knobs_axes():
    base = pairwise_scenario(
        "UR", "hotspot", target_ranks=4, background_ranks=4,
        config=SimulationConfig(system=tiny_system()),
    )
    grid = expand_grid(
        base,
        start_times=[0.0, 10_000.0],
        job_knobs=[{"hotspot": {"hot_fraction": 0.1}}, {"hotspot": {"hot_fraction": 0.5}}],
    )
    assert len(grid) == 4
    # An explicit t0=0 is the base experiment: no name part, so its cells
    # share the cache keys of the unstaggered grid.
    assert [s.name for s in grid] == [
        "pairwise/UR+hotspot[hotspot(hot_fraction=0.1)]",
        "pairwise/UR+hotspot[hotspot(hot_fraction=0.5)]",
        "pairwise/UR+hotspot[t0=10000,hotspot(hot_fraction=0.1)]",
        "pairwise/UR+hotspot[t0=10000,hotspot(hot_fraction=0.5)]",
    ]
    (zero_cell,) = [s for s in expand_grid(base, start_times=[0.0])]
    assert zero_cell.name == base.name
    assert scenario_hash(zero_cell) == scenario_hash(base)
    assert {s.jobs[0].start_time for s in grid} == {0.0, 10_000.0}
    assert {s.jobs[1].kwargs["hot_fraction"] for s in grid} == {0.1, 0.5}
    # Non-overridden kwargs of the knob-targeted job survive the merge.
    assert all(s.jobs[1].kwargs["seed"] == 7 for s in grid)
    with pytest.raises(ValueError, match="no job named"):
        expand_grid(base, job_knobs=[{"LULESH": {"scale": 1.0}}])


def test_synthetic_presets_registered_and_runnable():
    names = scenario_names()
    for pattern in ("permutation", "shift", "bit-complement", "transpose", "hotspot", "bursty"):
        assert f"synthetic/{pattern}" in names
        assert f"pairwise/UR+{pattern}" in names
    assert "pairwise/UR" in names
    scenario = get_scenario("pairwise/UR+hotspot")
    assert [spec.name for spec in scenario.jobs] == ["UR", "hotspot"]


# ------------------------------------------------------------------ satellites
def test_appspec_validates_at_construction():
    """Bad job descriptions fail when described, naming the offending job."""
    with pytest.raises(ValueError, match="positive rank count"):
        AppSpec("UR", 0)
    with pytest.raises(ValueError, match="num_ranks must be an integer"):
        AppSpec("UR", 2.5)
    with pytest.raises(ValueError, match="unknown application"):
        AppSpec("NotAnApp", 4)
    with pytest.raises(ValueError, match="name must be a string"):
        AppSpec(5, 4)
    with pytest.raises(ValueError, match="does not accept kwargs \\['warp_speed'\\]"):
        AppSpec("UR", 4, {"warp_speed": 9})
    with pytest.raises(ValueError, match="hot_fraction"):
        AppSpec("UR", 4, {"hot_fraction": 0.5})  # a hotspot knob on UR
    with pytest.raises(ValueError, match="finite and non-negative"):
        AppSpec("UR", 4, {}, -1.0)
    with pytest.raises(ValueError, match="finite and non-negative"):
        AppSpec("UR", 4, {}, float("nan"))
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        AppSpec("permutation", 4, {"seed": -1})
    # Valid knobs pass, and names canonicalize like RoutingConfig aliases.
    spec = AppSpec("HOTSPOT", 4, {"hot_fraction": 0.5, "scale": 0.2}, 5.0)
    assert spec.name == "hotspot" and spec.start_time == 5.0


def test_scenario_parse_errors_name_the_job_index():
    doc = _tiny_scenario().to_dict()
    doc["jobs"][1]["num_ranks"] = 0
    with pytest.raises(ValueError, match="jobs\\[1\\].*positive rank count"):
        Scenario.from_dict(doc)
    doc = _tiny_scenario().to_dict()
    doc["jobs"][0]["kwargs"]["bogus_knob"] = 1
    with pytest.raises(ValueError, match="jobs\\[0\\].*bogus_knob"):
        Scenario.from_dict(doc)
    doc = _tiny_scenario().to_dict()
    doc["jobs"][0]["start_time"] = -5.0
    with pytest.raises(ValueError, match="jobs\\[0\\]"):
        Scenario.from_dict(doc)


def test_routing_config_validates_and_canonicalizes_algorithm():
    assert RoutingConfig(algorithm="ugal").algorithm == "ugal-g"
    assert RoutingConfig(algorithm="ugalg ").algorithm == "ugal-g"  # alias + whitespace
    assert RoutingConfig(algorithm=" Q-Adaptive ").algorithm == "q-adaptive"
    with pytest.raises(ValueError):
        RoutingConfig(algorithm="q-adaptve")  # a genuine typo
    with pytest.raises(ValueError):
        SimulationConfig().with_routing("shortest-path")


def test_resolve_application_mirrors_other_registries():
    assert resolve_application("fft3d") == "FFT3D"
    assert resolve_application(" UR ") == "UR"
    with pytest.raises(ValueError):
        resolve_application("NotAnApp")


def test_run_result_keys_are_canonical():
    """Lowercase spec names key canonically, and the accessors resolve the
    caller's original spelling."""
    config = SimulationConfig(system=tiny_system(), seed=3).with_routing("par")
    spec = AppSpec("ur", 5, {"scale": 0.2})
    by_name = Scenario("test/ur", (spec,), config).run()
    assert set(by_name.jobs) == {"UR"}
    assert set(by_name.placements) == {"UR"}
    assert by_name.record("ur").mean_comm_time == by_name.record("UR").mean_comm_time
    assert by_name.application("ur") is by_name.application("UR")
    with pytest.raises(ValueError):
        by_name.record("NotAnApp")


def test_with_updates_scale_overrides_every_job():
    scenario = _tiny_scenario().with_updates(scale=0.5)
    assert all(spec.kwargs["scale"] == 0.5 for spec in scenario.jobs)
    # Non-scale kwargs survive the override.
    assert scenario.jobs[1].kwargs["iterations"] == 4
    # The original scenario is untouched.
    assert all(spec.kwargs["scale"] == 0.3 for spec in _tiny_scenario().jobs)


# ------------------------------------------------------------------------- CLI
def test_cli_accepts_seed_and_scale_after_subcommand():
    parser = build_parser()
    args = parser.parse_args(["run", "table1/UR", "--seed", "3", "--scale", "0.5"])
    assert args.seed == 3 and args.scale == 0.5
    args = parser.parse_args(["--seed", "4", "run", "table1/UR"])
    assert args.seed == 4
    # Unset options stay absent (SUPPRESS) so subcommand defaults can't
    # clobber a value given before the subcommand.
    args = parser.parse_args(["run", "table1/UR"])
    assert not hasattr(args, "seed")


def test_cli_run_and_scenarios_subcommands(tmp_path, capsys):
    path = tmp_path / "pair.json"
    dump_scenarios(path, [_tiny_scenario()])

    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "test/pair" in out and "FFT3D+Halo3D" in out

    assert main(["run", str(path), "--routing", "minimal", "--seed", "5"]) == 0
    assert "minimal" in capsys.readouterr().out

    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "mixed/table2" in out and "pairwise/FFT3D+Halo3D" in out

    assert main(["scenarios", "table1/UR"]) == 0
    described = json.loads(capsys.readouterr().out)
    assert Scenario.from_dict(described) == table1_scenario("UR")


@pytest.mark.parametrize(
    "argv",
    [["run"], ["sweep", "--scenario"], ["trace", "record"]],
    ids=["run", "sweep", "trace-record"],
)
def test_cli_reports_an_unreadable_scenario_file_by_path(tmp_path, capsys, argv):
    missing = tmp_path / "missing.json"
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"name": "x",\n')
    for path, reason in [(missing, "No such file"), (malformed, "Expecting")]:
        assert main([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {reason}"), err


def test_cli_dump_scenario_captures_invocations_without_simulating(tmp_path, capsys):
    path = tmp_path / "pairwise.json"
    assert main(
        ["sweep", "--scenario", "pairwise/FFT3D+Halo3D", "--routings", "par", "minimal",
         "--seed", "2", "--dump-scenario", str(path)]
    ) == 0
    capsys.readouterr()
    scenarios = load_scenarios(path)
    assert [s.config.routing.algorithm for s in scenarios] == ["par", "minimal"]
    assert all(s.config.seed == 2 for s in scenarios)
    assert all([spec.name for spec in s.jobs] == ["FFT3D", "Halo3D"] for s in scenarios)

    table1 = tmp_path / "table1.json"
    assert main(["sweep", "--scenario", "table1/*", "--dump-scenario", str(table1)]) == 0
    capsys.readouterr()
    assert len(load_scenarios(table1)) == 9

    mixed = tmp_path / "mixed.json"
    assert main(["run", "mixed/table2", "--dump-scenario", str(mixed)]) == 0
    capsys.readouterr()
    (mixed_sc,) = load_scenarios(mixed)
    assert mixed_sc == mixed_scenario()

    swept = tmp_path / "sweep.json"
    assert main(
        ["sweep", "--scenario", str(path), "--routings", "par", "--seeds", "1", "2",
         "--dump-scenario", str(swept)]
    ) == 0
    capsys.readouterr()
    assert len(load_scenarios(swept)) == 4  # 2 base scenarios x 2 seeds


def test_cli_sweep_scenario_keeps_unswept_axes_and_applies_scale(tmp_path, capsys):
    base = _tiny_scenario(placement="contiguous", config=_tiny_scenario().config.with_seed(42))
    path = tmp_path / "base.json"
    dump_scenarios(path, [base])
    out_path = tmp_path / "expanded.json"
    # Only --routings is given: placement/seed must keep the file's values,
    # and --scale must reach every job.
    assert main(
        ["sweep", "--scenario", str(path), "--routings", "par", "minimal",
         "--scale", "0.1", "--dump-scenario", str(out_path)]
    ) == 0
    capsys.readouterr()
    expanded = load_scenarios(out_path)
    assert len(expanded) == 2
    assert all(s.placement == "contiguous" for s in expanded)
    assert all(s.config.seed == 42 for s in expanded)
    assert all(spec.kwargs["scale"] == 0.1 for s in expanded for spec in s.jobs)


def test_cli_run_applies_scale_override(tmp_path, capsys):
    path = tmp_path / "pair.json"
    dump_scenarios(path, [_tiny_scenario()])
    out_path = tmp_path / "scaled.json"
    assert main(
        ["run", str(path), "--scale", "0.5", "--dump-scenario", str(out_path)]
    ) == 0
    capsys.readouterr()
    (scaled,) = load_scenarios(out_path)
    assert all(spec.kwargs["scale"] == 0.5 for spec in scaled.jobs)


def test_cli_sweep_runs_scenario_grid_with_caching(tmp_path, capsys):
    path = tmp_path / "pair.json"
    dump_scenarios(path, [_tiny_scenario()])
    argv = [
        "sweep", "--scenario", str(path), "--routings", "par", "minimal",
        "--workers", "1", "--store", str(tmp_path / "results.sqlite"),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    # Only the axis the user passed (--routings) is expanded in the name;
    # placement and seed keep the base scenario's values.
    assert "test/pair[par]" in out and "test/pair[minimal]" in out
    assert main(argv) == 0  # second run: all cells served from cache
    out = capsys.readouterr().out
    assert "True" in out.split("cached")[-1] or "True" in out


def test_cli_sweep_mixed_family_applies_scale_to_every_job(tmp_path, capsys):
    """``sweep --scenario 'mixed/*' --scale`` covers the mix and its solos."""
    path = tmp_path / "mixed.json"
    assert main(
        ["sweep", "--scenario", "mixed/*", "--scale", "0.1", "--dump-scenario", str(path)]
    ) == 0
    capsys.readouterr()
    scenarios = load_scenarios(path)
    assert sorted(s.name for s in scenarios) == sorted(
        ["mixed/table2"] + [f"mixed/solo/{app}" for app in PAPER_TABLE2_JOB_SIZES]
    )
    assert all(spec.kwargs["scale"] == 0.1 for s in scenarios for spec in s.jobs)
    assert scenarios[-1] == mixed_scenario(scale=0.1)


def test_cli_glob_matching_nothing_exits_2_naming_the_library(tmp_path, capsys):
    for argv in (
        ["sweep", "--scenario", "table9/*", "--dump-scenario", str(tmp_path / "x.json")],
        ["run", "pairwise/Nope*"],
        ["trace", "record", "nothing/*", "-o", str(tmp_path)],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "no scenario in the library matches" in err and "dragonfly-sim scenarios" in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["scenarios", "bogus"],
        ["run", "table1/UR", "--dump-scenario", "{tmp}/missing/x.json"],
        ["sweep", "--scenario", "table1/UR", "--dump-scenario", "{tmp}/missing/x.json"],
        ["trace", "record", "table1/UR", "--scale", "0.05", "-o", "{tmp}/file"],
        ["sweep", "--scenario", "table1/UR", "--scale", "0.05", "--store", "{tmp}/file/x.sqlite"],
    ],
    ids=["unknown-scenario", "run-dump-dir", "sweep-dump-dir", "trace-output-is-a-file",
         "sweep-store-under-a-file"],
)
def test_cli_bad_input_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, argv):
    """Bad input is one ``error:`` line and exit 2, never a traceback, and
    ``trace record`` checks its output directory before it simulates."""
    import repro.traces

    def simulate(scenario):
        raise AssertionError(f"simulated {scenario.name} before checking its output")

    monkeypatch.setattr(repro.traces, "record_scenario", simulate)
    (tmp_path / "file").write_text("not a directory\n")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert sorted(path.name for path in tmp_path.iterdir()) == ["file"]


def test_cli_keeps_the_traceback_of_a_defect_inside_a_run(monkeypatch):
    """Only input errors become exit 2: a ValueError raised while simulating
    is a defect, and reaches the caller with its traceback."""

    def broken(self):
        raise ValueError("defect inside the simulator")

    monkeypatch.setattr(Scenario, "run", broken)
    with pytest.raises(ValueError, match="defect inside the simulator"):
        main(["run", "table1/UR", "--scale", "0.05"])


def test_cli_trace_record_refuses_a_family(tmp_path, capsys):
    assert main(["trace", "record", "table1/*", "-o", str(tmp_path)]) == 2
    assert "records one at a time" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "table1/UR", "--scale", "0"],
        ["sweep", "--scenario", "table1/UR", "--scale", "0", "--store", ""],
        ["sweep", "--scenario", "synthetic/shift", "--offered-loads", "1.5", "--store", ""],
        ["trace", "record", "table1/UR", "--scale", "-1", "-o", "{tmp}"],
    ],
    ids=["run", "sweep-scale", "sweep-offered-load", "trace-record"],
)
def test_cli_rejects_a_bad_scale_or_offered_load_before_simulating(tmp_path, capsys, argv):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: job '"), captured.err
    assert "must be" in captured.err and not captured.out
    assert not list(tmp_path.iterdir())
