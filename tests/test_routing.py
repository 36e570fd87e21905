"""Unit tests of the routing algorithms (decision logic and Q-learning)."""

import numpy as np
import pytest

from repro.config import RoutingConfig, SimulationConfig, SystemConfig, tiny_system
from repro.core.engine import Simulator
from repro.network.network import DragonflyNetwork
from repro.network.packet import Message, PathClass
from repro.routing import create_routing
from repro.routing.qtable import QTable


def _network(routing="minimal", **routing_kwargs):
    config = SimulationConfig(system=tiny_system(), seed=1).with_routing(routing, **routing_kwargs)
    return DragonflyNetwork(Simulator(), config)


def _packet_between(network, src_node, dst_node, size=512):
    message = Message(src_node, dst_node, size)
    return message.segment(512, 128)[0]


def test_create_routing_accepts_aliases_and_rejects_unknown():
    network = _network()
    rng = np.random.default_rng(0)
    assert create_routing("Q-ADP", network, RoutingConfig(), rng).name == "q-adaptive"
    assert create_routing("ugal", network, RoutingConfig(), rng).name == "ugal-g"
    with pytest.raises(ValueError):
        create_routing("ecmp", network, RoutingConfig(), rng)


def test_minimal_port_follows_lgl_path():
    network = _network("minimal")
    topo = network.topology
    routing = network.routing
    # Destination in another group: the source router should head to the gateway.
    src_router = network.routers[0]
    dst_node = topo.num_nodes - 1
    dst_group = topo.group_of_node(dst_node)
    port = routing.minimal_port(src_router, dst_node)
    gateway, gport = topo.gateway_router(src_router.group, dst_group)
    if gateway == src_router.router_id:
        assert port == gport
    else:
        assert topo.local_peer(src_router.router_id, port) == gateway


def test_minimal_routing_marks_packets_minimal():
    network = _network("minimal")
    router = network.routers[0]
    packet = _packet_between(network, 0, network.num_nodes - 1)
    port, vc = network.routing.route(router, packet)
    assert packet.path_class == PathClass.MINIMAL
    assert vc == 1  # first router-to-router hop uses VC 1


def test_valiant_routing_always_detours_inter_group_packets():
    network = _network("valiant")
    router = network.routers[0]
    packet = _packet_between(network, 0, network.num_nodes - 1)
    network.routing.route(router, packet)
    assert packet.path_class == PathClass.NONMINIMAL
    assert packet.intermediate_group not in (
        network.topology.group_of_node(0),
        network.topology.group_of_node(network.num_nodes - 1),
    )


def test_ugal_prefers_minimal_when_queues_are_empty():
    network = _network("ugal-g", ugal_bias=0.0)
    router = network.routers[0]
    packet = _packet_between(network, 0, network.num_nodes - 1)
    network.routing.route(router, packet)
    # With zero occupancy everywhere the minimal path always wins.
    assert packet.path_class == PathClass.MINIMAL


def test_ugal_diverts_when_minimal_port_is_congested():
    network = _network("ugal-g")
    topo = network.topology
    router = network.routers[0]
    packet = _packet_between(network, 0, network.num_nodes - 1)
    min_port = network.routing.minimal_port(router, packet.dst_node)
    # Artificially exhaust the minimal port's credits to fake deep congestion.
    credits = router.credits[min_port]
    for vc in range(credits.num_vcs):
        while credits.has_credit(vc):
            credits.consume(vc)
    network.routing.route(router, packet)
    assert packet.path_class == PathClass.NONMINIMAL


def test_ugal_n_assigns_intermediate_router():
    network = _network("ugal-n")
    router = network.routers[0]
    packet = _packet_between(network, 0, network.num_nodes - 1)
    min_port = network.routing.minimal_port(router, packet.dst_node)
    credits = router.credits[min_port]
    for vc in range(credits.num_vcs):
        while credits.has_credit(vc):
            credits.consume(vc)
    network.routing.route(router, packet)
    assert packet.path_class == PathClass.NONMINIMAL
    assert packet.intermediate_router is not None
    assert (
        network.topology.group_of_router(packet.intermediate_router)
        == packet.intermediate_group
    )


def test_par_revises_minimal_decision_in_source_group():
    network = _network("par")
    topo = network.topology
    source_router = network.routers[0]
    packet = _packet_between(network, 0, network.num_nodes - 1)
    network.routing.route(source_router, packet)
    assert packet.path_class == PathClass.MINIMAL
    assert not packet.minimal_decision_final
    # The packet reaches the source-group gateway, which sees congestion.
    dst_group = topo.group_of_node(packet.dst_node)
    gateway_id, gateway_port = topo.gateway_router(0, dst_group)
    gateway = network.routers[gateway_id]
    credits = gateway.credits[gateway_port]
    for vc in range(credits.num_vcs):
        while credits.has_credit(vc):
            credits.consume(vc)
    packet.hop_count = 1
    network.routing.route(gateway, packet)
    assert packet.path_class == PathClass.NONMINIMAL
    assert packet.minimal_decision_final


def test_qtable_update_moves_towards_sample():
    table = QTable(0, lambda dest: [100.0] * 3)
    assert table.get(2, ("g", 1)) == pytest.approx(100.0)
    value = table.update(2, ("g", 1), 200.0, learning_rate=0.5)
    assert value == pytest.approx(150.0)
    assert table.updates == 1
    assert table.row(("g", 1)) == [100.0, 100.0, 150.0]
    assert table.snapshot()[(2, ("g", 1))] == 150.0
    assert table.known_entries() == 3


def test_qadaptive_learns_from_feedback_during_traffic():
    config = SimulationConfig(system=tiny_system(), seed=2).with_routing("q-adaptive")
    sim = Simulator()
    network = DragonflyNetwork(sim, config)
    rng = np.random.default_rng(1)
    for _ in range(150):
        src, dst = rng.integers(network.num_nodes, size=2)
        if src == dst:
            continue
        network.send_message(Message(int(src), int(dst), 2048, create_time=sim.now))
    sim.run()
    routing = network.routing
    assert routing.feedback_count > 0
    assert routing.total_table_entries() > 0
    # Learned estimates must stay finite and non-negative.
    for table in routing._tables.values():
        for value in table.snapshot().values():
            assert np.isfinite(value) and value >= 0


def _toy_qadaptive_network():
    """Hand-built 3-group, 2-router-per-group system (one local + one global
    port per router), small enough to enumerate every viable port by hand."""
    system = SystemConfig(num_groups=3, routers_per_group=2, nodes_per_router=1)
    config = SimulationConfig(system=system, seed=1).with_routing("q-adaptive")
    sim = Simulator()
    return sim, DragonflyNetwork(sim, config)


def test_qadaptive_estimate_is_min_over_all_viable_ports():
    # Regression: the feedback estimate scored only the packet's forward port;
    # the paper's Boyan-Littman update takes the minimum of
    # queue_weight * queue_delay + Q over *every* viable output port.
    _, network = _toy_qadaptive_network()
    routing = network.routing
    topo = network.topology
    router = network.routers[0]
    dst_node = list(topo.nodes_of_group(1))[0]
    packet = _packet_between(network, 0, dst_node)
    dest = ("g", 1)

    local_port = list(topo.local_ports())[0]
    global_port = list(topo.global_ports())[0]
    # The minimal (forward) port for group 1 from router 0 is its global port;
    # make it expensive so only a min over all ports finds the cheap local one.
    table = routing.table_for(router)
    table.update(global_port, dest, 5_000.0, learning_rate=1.0)
    table.update(local_port, dest, 100.0, learning_rate=1.0)

    assert routing.forward_port(router, packet) == global_port
    qw = network.config.routing.q_queue_weight
    expected = min(
        qw * router.queue_delay_estimate(port) + table.get(port, dest)
        for port in (local_port, global_port)
    )
    estimate = routing.estimate_remaining(router, packet)
    assert estimate == pytest.approx(expected)
    assert estimate == pytest.approx(100.0)


def test_qadaptive_feedback_sample_uses_min_over_ports_estimate():
    sim, network = _toy_qadaptive_network()
    routing = network.routing
    topo = network.topology
    sender = network.routers[0]
    local_port = list(topo.local_ports())[0]
    receiver = network.routers[topo.local_peer(0, local_port)]
    link = sender.out_links[local_port]
    assert link.dst is receiver

    dst_node = list(topo.nodes_of_group(1))[0]
    packet = _packet_between(network, 0, dst_node)
    dest = ("g", 1)
    packet.request_time = sim.now  # the hop completed instantaneously

    alpha = network.config.routing.q_learning_rate
    old = routing.table_for(sender).get(local_port, dest)
    expected_sample = routing.estimate_remaining(receiver, packet)

    routing.on_packet_received(receiver, link.dst_port, packet)
    sim.run()
    assert routing.feedback_count == 1
    new = routing.table_for(sender).get(local_port, dest)
    assert new == pytest.approx((1 - alpha) * old + alpha * expected_sample)
    assert routing.table_for(sender).updates == 1

    # The sample is checked where it is made: a negative one is a timing bug.
    packet.request_time = sim.now + 1e6
    with pytest.raises(ValueError, match="cannot be negative"):
        routing.on_packet_received(receiver, link.dst_port, packet)


def test_qadaptive_intra_group_estimate_only_considers_local_ports():
    _, network = _toy_qadaptive_network()
    routing = network.routing
    topo = network.topology
    router = network.routers[0]
    peer_node = list(topo.nodes_of_group(0))[1]  # hosted by the other router of group 0
    packet = _packet_between(network, 0, peer_node)
    dest = ("r", topo.router_of_node(peer_node))

    local_port = list(topo.local_ports())[0]
    global_port = list(topo.global_ports())[0]
    table = routing.table_for(router)
    # Even an absurdly cheap global-port entry must not leak into an
    # intra-group estimate: leaving the group is not a viable path to a
    # router of the local group.
    table.update(global_port, dest, 0.0, learning_rate=1.0)
    table.update(local_port, dest, 250.0, learning_rate=1.0)
    assert routing.estimate_remaining(router, packet) == pytest.approx(250.0)


def test_qadaptive_exploration_rate_respected():
    network = _network("q-adaptive", q_exploration=0.0)
    router = network.routers[0]
    packet = _packet_between(network, 0, network.num_nodes - 1)
    network.routing.route(router, packet)
    # With empty queues and optimistic-but-accurate initial estimates the
    # greedy choice is the minimal path.
    assert packet.path_class == PathClass.MINIMAL
