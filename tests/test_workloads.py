"""Tests of the nine applications: structure, metrics and end-to-end runs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimulationConfig, tiny_system
from repro.core.engine import Simulator
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import Scenario
from repro.mpi.engine import MpiEngine
from repro.network.network import DragonflyNetwork
from repro.workloads import (
    APPLICATIONS,
    FFT3D,
    LQCD,
    LU,
    LULESH,
    Halo3D,
    Stencil5D,
    UniformRandom,
    balanced_grid,
    create_application,
    grid_coords,
    grid_rank,
)

# Every registered application except "trace", which is the one workload
# with a mandatory constructor kwarg (the trace to replay) and is covered by
# tests/test_traces.py instead.
ALL_APPS = sorted(set(APPLICATIONS) - {"trace"})


# -------------------------------------------------------------- grid helpers
@settings(max_examples=50, deadline=None)
@given(
    num_ranks=st.integers(min_value=1, max_value=600),
    dims=st.integers(min_value=1, max_value=5),
)
def test_property_balanced_grid_covers_all_ranks(num_ranks, dims):
    shape = balanced_grid(num_ranks, dims)
    assert len(shape) == dims
    assert int(np.prod(shape)) == num_ranks
    assert all(extent >= 1 for extent in shape)
    assert shape == sorted(shape, reverse=True)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_property_grid_coords_round_trip(data):
    dims = data.draw(st.integers(min_value=1, max_value=4))
    shape = [data.draw(st.integers(min_value=1, max_value=5)) for _ in range(dims)]
    total = int(np.prod(shape))
    rank = data.draw(st.integers(min_value=0, max_value=total - 1))
    assert grid_rank(grid_coords(rank, shape), shape) == rank


# ---------------------------------------------------------------- factories
def test_registry_creates_every_application():
    for name in ALL_APPS:
        app = create_application(name, 8)
        assert app.num_ranks == 8
        assert app.peak_ingress_bytes() > 0
        assert app.message_volume_per_rank() > 0
        assert app.describe()["name"] == app.name


def test_registry_is_case_insensitive_and_validates():
    assert create_application("halo3d", 8).name == "Halo3D"
    with pytest.raises(ValueError):
        create_application("NotAnApp", 8)
    with pytest.raises(ValueError):
        create_application("UR", 0)


def test_scale_factor_multiplies_message_sizes():
    base = create_application("Halo3D", 27)
    doubled = create_application("Halo3D", 27, scale=2.0)
    assert doubled.peak_ingress_bytes() == pytest.approx(2 * base.peak_ingress_bytes(), rel=0.01)


# ----------------------------------------------------------- pattern checks
def test_stencil_neighbor_structure_is_symmetric():
    app = Halo3D(27)
    assert app.shape == [3, 3, 3]
    for rank in range(app.num_ranks):
        for neighbor, dim, direction in app.neighbors_of(rank):
            reverse = [(n, d, s) for n, d, s in app.neighbors_of(neighbor) if n == rank]
            assert reverse, f"neighbor relation {rank}->{neighbor} not symmetric"


def test_stencil_peak_counts_actual_neighbors():
    app = LQCD(16)  # 2x2x2x2 grid: one neighbour per dimension
    assert app.max_neighbors() == 4
    assert app.peak_ingress_bytes() == 4 * app.scaled(app.message_bytes)
    large = Stencil5D(32)  # 2^5 grid
    assert large.max_neighbors() == 5


def test_lu_wavefront_has_corner_sources_and_sinks():
    app = LU(25)
    assert app.shape == [5, 5]
    upstream_0, downstream_0 = app._neighbors(0)
    assert upstream_0 == [] and len(downstream_0) == 2
    upstream_last, downstream_last = app._neighbors(24)
    assert len(upstream_last) == 2 and downstream_last == []


def test_fft3d_groups_partition_the_rank_space():
    app = FFT3D(24)
    rows, cols = app.shape
    seen = set()
    for rank in range(app.num_ranks):
        row = app._row_group(rank)
        col = app._col_group(rank)
        assert rank in row and rank in col
        assert len(row) == cols and len(col) == rows
        seen.update(row)
    assert seen == set(range(app.num_ranks))


def test_lulesh_has_face_edge_corner_neighbors():
    app = LULESH(27)
    kinds = {kind for _, kind, _ in app._stencil_neighbors(13)}  # centre rank of 3x3x3
    assert kinds == {"face", "edge", "corner"}
    assert len(app._stencil_neighbors(13)) == 26


def test_uniform_random_permutation_is_shared_and_uniform():
    app = UniformRandom(16, seed=3)
    perm_a, inverse_a = app._permutation(5)
    perm_b, _ = app._permutation(5)
    assert np.array_equal(perm_a, perm_b)
    assert sorted(perm_a.tolist()) == list(range(16))
    # The memoized inverse really is the inverse permutation.
    assert np.array_equal(perm_a[inverse_a], np.arange(16))
    assert not np.array_equal(app._permutation(5)[0], app._permutation(6)[0])


def test_intensity_ordering_of_analytic_peaks():
    """The Table I peak-ingress ordering must hold for the bench rank counts.

    Table I covers the paper's nine proxy applications (the BENCH_RANKS
    keys); the synthetic traffic patterns are deliberately outside it.
    """
    from repro.experiments.configs import BENCH_RANKS

    peaks = {
        name: create_application(name, BENCH_RANKS[name]).peak_ingress_bytes()
        for name in BENCH_RANKS
    }
    assert peaks["Stencil5D"] == max(peaks.values())
    assert peaks["UR"] == min(peaks.values())
    assert peaks["LQCD"] > peaks["DL"] > peaks["CosmoFlow"] > peaks["LULESH"]
    assert peaks["LULESH"] > peaks["Halo3D"] > peaks["FFT3D"] > peaks["LU"] > peaks["UR"]


# ------------------------------------------------------- synthetic patterns
def test_synthetic_catalog_is_fully_wired():
    """Adding a pattern to the registry without the experiment-layer tables
    (ranks, background boost, presets) must fail loudly here, not as a
    missing preset at some later call site."""
    from repro.experiments.configs import (
        BACKGROUND_ITERATION_BOOST,
        PAIRWISE_RANKS,
        SYNTHETIC_RANKS,
    )
    from repro.experiments.scenario import scenario_names
    from repro.workloads import SYNTHETIC_PATTERNS

    assert set(SYNTHETIC_RANKS) == set(SYNTHETIC_PATTERNS)
    assert set(SYNTHETIC_PATTERNS) <= set(BACKGROUND_ITERATION_BOOST)
    assert set(SYNTHETIC_PATTERNS) <= set(PAIRWISE_RANKS)
    names = scenario_names()
    for pattern in SYNTHETIC_PATTERNS:
        assert f"synthetic/{pattern}" in names
        assert f"pairwise/UR+{pattern}" in names


def test_synthetic_destination_maps_are_shared_and_deterministic():
    from repro.workloads import SYNTHETIC_PATTERNS

    for name, cls in SYNTHETIC_PATTERNS.items():
        app = cls(16, seed=3)
        same = cls(16, seed=3)
        other_seed = cls(16, seed=4)
        for iteration in (0, 1):
            dests = app.destinations(iteration)
            assert dests.shape == (16,)
            assert np.array_equal(dests, same.destinations(iteration)), name
            assert ((dests >= 0) & (dests < 16)).all(), name
        if name in ("permutation", "shift", "bursty", "hotspot"):
            assert not all(
                np.array_equal(app.destinations(i), other_seed.destinations(i))
                for i in range(4)
            ), f"{name} ignores its seed"


def test_synthetic_streams_are_decorrelated_between_patterns_and_ur():
    """Same application seed, different pattern (or UR) -> different random
    destination streams; a permutation-drawing background must not silently
    synchronize with a co-running UR target."""
    from repro.workloads import Bursty, Hotspot, UniformRandom

    ur = UniformRandom(16, seed=0)
    bursty = Bursty(16, seed=0, duty_cycle=1.0)
    assert not all(
        np.array_equal(ur._permutation(i)[0], bursty.destinations(i)) for i in range(4)
    )
    hotspot = Hotspot(16, seed=0)
    assert not all(
        np.array_equal(bursty.destinations(i), hotspot.destinations(i)) for i in range(4)
    )


def test_permutation_is_fixed_across_iterations_and_a_derangement():
    from repro.workloads import Permutation

    app = Permutation(32, seed=1)
    first = app.destinations(0)
    assert np.array_equal(first, app.destinations(7))
    assert sorted(first.tolist()) == list(range(32))
    # No fixed points, for any seed: every rank participates all run long.
    for seed in range(25):
        dests = Permutation(32, seed=seed).destinations(0)
        assert (dests != np.arange(32)).all(), f"seed {seed} left a rank silent"
        assert sorted(dests.tolist()) == list(range(32))
    assert (Permutation(2).destinations(0) == [1, 0]).all()


def test_shift_knob_fixes_the_offset():
    from repro.workloads import Shift

    fixed = Shift(16, shift=3)
    assert np.array_equal(fixed.destinations(0), (np.arange(16) + 3) % 16)
    assert np.array_equal(fixed.destinations(0), fixed.destinations(9))
    with pytest.raises(ValueError):
        Shift(16, shift=16)  # ≡ 0 mod n: every rank would target itself
    random_shift = Shift(16, seed=2)
    offsets = {
        int((random_shift.destinations(i)[0]) % 16) for i in range(8)
    }
    assert len(offsets) > 1  # the shift really is redrawn per iteration


def test_bit_patterns_cover_power_of_two_and_ragged_counts():
    from repro.workloads import BitComplement, Transpose

    complement = BitComplement(32).destinations(0)
    assert sorted(complement.tolist()) == list(range(32))  # exact on 2^k
    assert complement[0] == 31 and complement[31] == 0
    transpose = Transpose(16).destinations(0)
    # 16 ranks = 4x4 grid: (r, c) -> (c, r).
    assert transpose[1] == 4 and transpose[4] == 1 and transpose[5] == 5
    for cls in (BitComplement, Transpose):
        ragged = cls(12).destinations(0)
        assert ((ragged >= 0) & (ragged < 12)).all()


def test_hotspot_concentrates_traffic_on_hot_ranks():
    from repro.workloads import Hotspot

    app = Hotspot(32, hot_fraction=0.8, num_hot=2, seed=5)
    dests = np.concatenate([app.destinations(i) for i in range(10)])
    hot_share = (dests < 2).mean()
    assert hot_share > 0.5  # 0.8 directed + 2/32 of the uniform remainder
    uniform = Hotspot(32, hot_fraction=0.05, num_hot=2, seed=5)
    dests = np.concatenate([uniform.destinations(i) for i in range(10)])
    assert (dests < 2).mean() < hot_share / 2
    with pytest.raises(ValueError):
        Hotspot(8, hot_fraction=0.0)
    with pytest.raises(ValueError):
        Hotspot(8, num_hot=9)


def test_bursty_duty_cycle_gates_iterations():
    from repro.workloads import Bursty

    app = Bursty(8, duty_cycle=0.25, burst_length=2, iterations=16)
    on = [i for i in range(16) if app.sends_in(i)]
    assert on == [0, 1, 8, 9]  # period = burst_length / duty_cycle = 8
    assert app.send_iterations() == 4
    # Analytic volume counts only ON iterations.
    assert app.message_volume_per_rank() == app.scaled(app.message_bytes) * 4
    always_on = Bursty(8, duty_cycle=1.0, burst_length=2, iterations=16)
    assert always_on.send_iterations() == 16
    # Non-divisible combinations round the period UP: the effective duty
    # cycle never exceeds the requested one (duty 0.8, burst 2 -> period 3,
    # not the always-on period 2 that round-half-even would give).
    skewed = Bursty(8, duty_cycle=0.8, burst_length=2, iterations=12)
    assert [i for i in range(6) if skewed.sends_in(i)] == [0, 1, 3, 4]
    assert skewed.send_iterations() / skewed.iterations <= 0.8
    with pytest.raises(ValueError):
        Bursty(8, duty_cycle=1.5)
    with pytest.raises(ValueError):
        Bursty(8, burst_length=0)


def test_pattern_metrics_expose_numeric_knobs():
    from repro.workloads import Bursty, Hotspot, Shift

    assert Hotspot(8, hot_fraction=0.3, num_hot=2).pattern_metrics() == {
        "send_iterations": 30.0,
        "hot_fraction": 0.3,
        "num_hot": 2.0,
    }
    bursty = Bursty(8, duty_cycle=0.5, burst_length=4, iterations=8).pattern_metrics()
    assert bursty["duty_cycle"] == 0.5 and bursty["burst_length"] == 4.0
    assert "shift" not in Shift(8).pattern_metrics()
    assert Shift(8, shift=3).pattern_metrics()["shift"] == 3.0


# --------------------------------------------------------------- end-to-end
@pytest.mark.parametrize("name", ALL_APPS)
def test_every_application_runs_to_completion(name):
    """Each application, at tiny scale, must run and send its analytic volume."""
    config = SimulationConfig(system=tiny_system(), seed=2).with_routing("par")
    spec = AppSpec(name, 8, {"scale": 0.2, "seed": 1})
    result = Scenario(f"test/{name}", (spec,), config).run()
    record = result.record(name)
    assert result.completed
    assert record.finished
    assert record.total_bytes_sent > 0
    assert record.mean_comm_time > 0
    assert result.network.quiescent()
    # Iteration records were produced by every rank.
    assert len(record.iterations) >= record.num_ranks


def test_application_volume_close_to_analytic_estimate():
    config = SimulationConfig(system=tiny_system(), seed=2).with_routing("par")
    spec = AppSpec("Halo3D", 8, {"scale": 0.25})
    result = Scenario("test/Halo3D", (spec,), config).run()
    app = result.application("Halo3D")
    measured = result.record("Halo3D").total_bytes_sent
    # The analytic estimate assumes interior ranks everywhere, so it is an
    # upper bound; measured volume must be within it but the same order.
    assert measured <= app.total_message_volume() * 1.05
    assert measured >= 0.3 * app.total_message_volume()
