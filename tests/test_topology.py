"""Tests of the Dragonfly topology wiring and path helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig, paper_system, small_system, tiny_system
from repro.network.topology import DragonflyTopology, PortKind


@pytest.fixture(params=[tiny_system(), small_system(), paper_system()], ids=["tiny", "small", "paper"])
def topo(request):
    return DragonflyTopology(request.param)


def test_port_ranges_partition_all_ports(topo):
    ports = list(topo.terminal_ports()) + list(topo.local_ports()) + list(topo.global_ports())
    assert ports == list(range(topo.ports_per_router))
    assert all(topo.port_kind(p) == PortKind.TERMINAL for p in topo.terminal_ports())
    assert all(topo.port_kind(p) == PortKind.LOCAL for p in topo.local_ports())
    assert all(topo.port_kind(p) == PortKind.GLOBAL for p in topo.global_ports())


def test_node_router_round_trip(topo):
    for node in range(0, topo.num_nodes, 7):
        router = topo.router_of_node(node)
        port = topo.terminal_port_of_node(node)
        assert topo.node_at(router, port) == node
        assert topo.group_of_node(node) == topo.group_of_router(router)


def test_local_links_are_symmetric(topo):
    group = 1
    routers = list(topo.routers_of_group(group))
    for a in routers:
        for b in routers:
            if a == b:
                continue
            port_ab = topo.local_port_to(a, b)
            assert topo.local_peer(a, port_ab) == b
            # The reverse port leads back.
            port_ba = topo.local_port_to(b, a)
            assert topo.local_peer(b, port_ba) == a


def test_global_links_are_symmetric_and_unique(topo):
    seen = {}
    for router in range(topo.num_routers):
        for port in topo.global_ports():
            peer_router, peer_port = topo.global_peer(router, port)
            back_router, back_port = topo.global_peer(peer_router, peer_port)
            assert (back_router, back_port) == (router, port)
            src_group = topo.group_of_router(router)
            dst_group = topo.group_of_router(peer_router)
            assert src_group != dst_group
            # Exactly one link per ordered group pair.
            assert (src_group, dst_group) not in seen
            seen[(src_group, dst_group)] = (router, port)
    assert len(seen) == topo.num_groups * (topo.num_groups - 1)


def test_gateway_router_carries_link_to_destination_group(topo):
    for src_group in range(topo.num_groups):
        for dst_group in range(topo.num_groups):
            if src_group == dst_group:
                continue
            router, port = topo.gateway_router(src_group, dst_group)
            assert topo.group_of_router(router) == src_group
            assert topo.group_reached_by_global_port(router, port) == dst_group


def test_minimal_path_is_at_most_three_hops(topo):
    nodes = [0, topo.num_nodes // 3, topo.num_nodes // 2, topo.num_nodes - 1]
    for src in nodes:
        for dst in nodes:
            hops = topo.minimal_hops(src, dst)
            if src == dst:
                assert hops == 0
            else:
                assert 1 <= hops <= 3
            path = topo.minimal_router_path(topo.router_of_node(src), topo.router_of_node(dst))
            # Consecutive routers on the path must be physically connected.
            for here, there in zip(path, path[1:]):
                if topo.group_of_router(here) == topo.group_of_router(there):
                    topo.local_port_to(here, there)  # raises if not adjacent
                else:
                    gw, _ = topo.gateway_router(
                        topo.group_of_router(here), topo.group_of_router(there)
                    )
                    assert gw == here


def test_neighbor_endpoint_consistency(topo):
    router = topo.num_routers // 2
    for port in range(topo.ports_per_router):
        endpoint = topo.neighbor(router, port)
        if endpoint.is_node:
            assert topo.router_of_node(endpoint.node) == router
        else:
            reverse = topo.neighbor(endpoint.router, endpoint.port)
            assert not reverse.is_node
            assert reverse.router == router and reverse.port == port


def test_zero_load_latency_monotone_with_distance(topo):
    config = topo.config
    same_router = topo.zero_load_latency(0, 1) if topo.nodes_per_router > 1 else 0.0
    other_group_node = topo.num_nodes - 1
    far = topo.zero_load_latency(0, other_group_node)
    assert far > same_router
    assert far >= config.global_latency_ns


def test_out_of_range_lookups_raise(topo):
    with pytest.raises(ValueError):
        topo.router_of_node(topo.num_nodes)
    with pytest.raises(ValueError):
        topo.group_of_router(-1)
    with pytest.raises(ValueError):
        topo.port_kind(topo.ports_per_router)
    with pytest.raises(ValueError):
        topo.local_port_to(0, 0)
    with pytest.raises(ValueError):
        topo.gateway_router(0, 0)
    with pytest.raises(ValueError, match="router -1 out of range"):
        topo.minimal_router_path(-1, 0)
    with pytest.raises(ValueError, match=f"router {topo.num_routers} out of range"):
        topo.minimal_router_path(0, topo.num_routers)


# ----------------------------------------------------------- property tests
@st.composite
def dragonfly_shapes(draw):
    routers = draw(st.integers(min_value=1, max_value=6))
    height = draw(st.integers(min_value=1, max_value=4))
    nodes = draw(st.integers(min_value=1, max_value=4))
    groups = routers * height + 1
    return SystemConfig(
        num_groups=groups, routers_per_group=routers, nodes_per_router=nodes
    )


@settings(max_examples=25, deadline=None)
@given(shape=dragonfly_shapes(), data=st.data())
def test_property_every_global_port_round_trips(shape, data):
    topo = DragonflyTopology(shape)
    router = data.draw(st.integers(min_value=0, max_value=topo.num_routers - 1))
    port = data.draw(st.sampled_from(list(topo.global_ports())))
    peer_router, peer_port = topo.global_peer(router, port)
    assert topo.global_peer(peer_router, peer_port) == (router, port)


@settings(max_examples=25, deadline=None)
@given(shape=dragonfly_shapes(), data=st.data())
def test_property_minimal_hops_bounded(shape, data):
    topo = DragonflyTopology(shape)
    src = data.draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    dst = data.draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    assert 0 <= topo.minimal_hops(src, dst) <= 3


@settings(max_examples=25, deadline=None)
@given(shape=dragonfly_shapes(), data=st.data())
def test_property_minimal_path_follows_physical_links(shape, data):
    """Each hop of a minimal path is a local link, or the global link whose
    far end is the next router, and at most one hop is global."""
    topo = DragonflyTopology(shape)
    routers = st.integers(min_value=0, max_value=topo.num_routers - 1)
    src, dst = data.draw(routers), data.draw(routers)
    path = topo.minimal_router_path(src, dst)
    assert path[0] == src and path[-1] == dst and len(path) <= 4
    global_hops = 0
    for here, there in zip(path, path[1:]):
        group = topo.group_of_router(there)
        if topo.group_of_router(here) == group:
            topo.local_port_to(here, there)  # raises if not adjacent
        else:
            global_hops += 1
            port = topo.global_port_to_group(here, group)
            assert topo.global_peer(here, port)[0] == there
    assert global_hops <= 1
