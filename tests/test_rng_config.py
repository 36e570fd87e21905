"""Tests for deterministic RNG streams and configuration dataclasses."""

import dataclasses

import pytest

from repro.config import (
    RoutingConfig,
    SimulationConfig,
    SystemConfig,
    paper_system,
    small_system,
    tiny_system,
)
from repro.core.rng import RngRegistry, component_seed


# ------------------------------------------------------------------- rng
def test_component_seed_is_stable_and_distinct():
    assert component_seed(1, "routing") == component_seed(1, "routing")
    assert component_seed(1, "routing") != component_seed(1, "placement")
    assert component_seed(1, "routing") != component_seed(2, "routing")


def test_registry_reuses_streams_and_is_deterministic():
    reg_a, reg_b = RngRegistry(42), RngRegistry(42)
    assert reg_a.get("x") is reg_a.get("x")
    assert reg_a.get("x").integers(1 << 30) == reg_b.get("x").integers(1 << 30)
    assert "x" in reg_a and len(reg_a) == 1


def test_registry_spawn_creates_independent_namespace():
    parent = RngRegistry(7)
    child = parent.spawn("app:0")
    assert child.experiment_seed != parent.experiment_seed
    assert child.get("traffic").integers(100) == RngRegistry(component_seed(7, "app:0")).get(
        "traffic"
    ).integers(100)


# ---------------------------------------------------------------- system
def test_paper_system_matches_published_shape():
    system = paper_system()
    assert system.num_groups == 33
    assert system.num_routers == 264
    assert system.num_nodes == 1056
    assert system.global_links_per_router == 4
    assert system.flits_per_packet == 4
    # 200 Gb/s == 25 bytes/ns; a 512 B packet serializes in 20.48 ns.
    assert system.link_bandwidth_bytes_per_ns == pytest.approx(25.0)
    assert system.packet_serialization_ns == pytest.approx(20.48)


@pytest.mark.parametrize("factory", [paper_system, small_system, tiny_system])
def test_global_link_budget_is_consistent(factory):
    system = factory()
    # a * h == g - 1: every group pair is connected by exactly one link.
    assert system.routers_per_group * system.global_links_per_router == system.num_groups - 1


def test_invalid_system_shapes_rejected():
    with pytest.raises(ValueError):
        SystemConfig(num_groups=10, routers_per_group=4)  # (g-1) not divisible by a
    with pytest.raises(ValueError):
        SystemConfig(num_groups=1)
    with pytest.raises(ValueError):
        SystemConfig(packet_size_bytes=500, flit_size_bytes=128)
    with pytest.raises(ValueError):
        SystemConfig(num_vcs=1)
    with pytest.raises(ValueError, match="at least one packet"):
        SystemConfig(buffer_packets=0)


def test_system_config_is_frozen_and_scalable():
    system = small_system()
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.num_groups = 3  # type: ignore[misc]
    slower = system.scaled(link_bandwidth_gbps=50.0)
    assert slower.link_bandwidth_gbps == 50.0
    assert slower.num_groups == system.num_groups


# --------------------------------------------------------------- routing
def test_routing_config_validation():
    with pytest.raises(ValueError):
        RoutingConfig(minimal_candidates=0)
    with pytest.raises(ValueError):
        RoutingConfig(q_learning_rate=0.0)
    with pytest.raises(ValueError):
        RoutingConfig(q_exploration=1.5)


def test_simulation_config_with_helpers():
    config = SimulationConfig(system=tiny_system())
    q_config = config.with_routing("q-adaptive", q_learning_rate=0.5)
    assert q_config.routing.algorithm == "q-adaptive"
    assert q_config.routing.q_learning_rate == 0.5
    assert config.routing.algorithm == "ugal-g"  # original untouched
    assert config.with_seed(9).seed == 9
    assert config.with_system(small_system()).system.num_nodes == 72
