"""Integration tests of the wired network: delivery, credits, stats, routing."""

import numpy as np
import pytest

from repro.config import SimulationConfig, tiny_system
from repro.core.engine import Simulator
from repro.network.network import DragonflyNetwork
from repro.network.packet import Message
from repro.routing import ALGORITHMS

ALL_ROUTINGS = sorted(ALGORITHMS)


def _run_traffic(routing, num_messages=120, size=2048, seed=0, system=None):
    config = SimulationConfig(system=system or tiny_system(), seed=3).with_routing(routing)
    sim = Simulator()
    network = DragonflyNetwork(sim, config)
    rng = np.random.default_rng(seed)
    delivered = []
    network.on_message_delivered = delivered.append
    sent = 0
    for _ in range(num_messages):
        src, dst = rng.integers(network.num_nodes, size=2)
        if src == dst:
            continue
        message = Message(int(src), int(dst), size, app_id=0, create_time=sim.now)
        network.send_message(message)
        sent += 1
    sim.run()
    return network, delivered, sent


@pytest.mark.parametrize("routing", ALL_ROUTINGS)
def test_every_message_is_delivered_and_network_drains(routing):
    network, delivered, sent = _run_traffic(routing)
    assert len(delivered) == sent
    assert network.quiescent()
    assert all(message.complete for message in delivered)
    assert network.stats.total_packets_injected == network.stats.total_packets_ejected


@pytest.mark.parametrize("routing", ALL_ROUTINGS)
def test_packet_latency_exceeds_zero_load_bound(routing):
    network, delivered, _ = _run_traffic(routing, num_messages=40)
    topo = network.topology
    for record in network.stats.packet_records:
        # No packet can beat the propagation+serialization lower bound.
        lower = topo.zero_load_latency(record.src_node, record.dst_node)
        assert record.latency >= 0.5 * lower  # generous slack for terminal accounting
        assert record.hops >= 1


def test_credits_fully_restored_after_drain(tiny_config):
    network, _, _ = _run_traffic("par")
    for router in network.routers:
        for port in range(network.topology.ports_per_router):
            credits = router.credits[port]
            assert credits.used == 0, f"router {router.router_id} port {port} leaked credits"
            assert not router.out_requests[port]
        assert router.buffered_packets == 0
    for nic in network.nics:
        assert nic.pending_packets == 0
        assert nic.credits.used == 0


def test_minimal_routing_uses_at_most_three_router_hops():
    network, delivered, _ = _run_traffic("minimal", num_messages=60)
    for record in network.stats.packet_records:
        assert record.hops <= 4  # 3 router-router hops + ejection


def test_valiant_routing_takes_longer_paths_than_minimal():
    net_min, _, _ = _run_traffic("minimal", num_messages=80)
    net_val, _, _ = _run_traffic("valiant", num_messages=80)
    hops_min = np.mean([r.hops for r in net_min.stats.packet_records])
    hops_val = np.mean([r.hops for r in net_val.stats.packet_records])
    assert hops_val > hops_min


def test_deterministic_given_same_seed():
    net_a, delivered_a, _ = _run_traffic("q-adaptive", num_messages=60, seed=4)
    net_b, delivered_b, _ = _run_traffic("q-adaptive", num_messages=60, seed=4)
    assert net_a.sim.now == pytest.approx(net_b.sim.now)
    lat_a = sorted(r.latency for r in net_a.stats.packet_records)
    lat_b = sorted(r.latency for r in net_b.stats.packet_records)
    assert lat_a == pytest.approx(lat_b)


def test_stats_series_account_for_all_delivered_bytes():
    network, delivered, _ = _run_traffic("ugal-g", num_messages=100)
    total = sum(message.size_bytes for message in delivered)
    assert network.stats.total_bytes_ejected == total
    assert network.stats.system_ejected_bytes.total() == pytest.approx(total)


def test_stall_recorded_for_packets_requested_at_time_zero():
    # Regression: `packet.request_time or sim.now` treated the legitimate
    # timestamp 0.0 as unset, silently zeroing the stall of any packet routed
    # at t=0.  Two packets contending for one output port at t=0 must charge
    # the loser's wait to the port.
    config = SimulationConfig(system=tiny_system(), seed=1).with_routing("minimal")
    sim = Simulator()
    network = DragonflyNetwork(sim, config)
    router = network.routers[0]
    dst = network.topology.nodes_per_router  # first node of router 1, same group
    first = Message(0, dst, 512).segment(512, 128)[0]
    second = Message(1, dst, 512).segment(512, 128)[0]
    # Hand the packets straight to the router as if the NICs had injected
    # them at t=0 (consuming the matching injection credits).
    network.nics[0].credits.consume(0)
    network.nics[1].credits.consume(0)
    router.receive_packet(0, first)   # granted immediately: the link was idle
    router.receive_packet(1, second)  # blocked at t=0 behind the busy link
    sim.run()
    assert network.stats.total_packets_ejected == 2
    assert network.stats.port_stall.total() > 0


@pytest.mark.parametrize("bound", ["none", "window", "watchdog"])
def test_clock_ends_on_the_trailing_credit_return(bound):
    # Between two nodes of one router, the last logical event of a
    # one-message run is the credit the destination NIC returns to the
    # router: a reserved slot nobody waits on.  The clock must end exactly
    # where it ends when that credit is an event, with or without a bound.
    config = SimulationConfig(system=tiny_system(), seed=1).with_routing("minimal")
    probe = DragonflyNetwork(Simulator(), config)
    probe.send_message(Message(0, 1, 2048))
    probe.sim.run()
    last_eject = max(record.eject_time for record in probe.stats.packet_records)
    last = last_eject + config.system.terminal_latency_ns
    assert probe.sim.now == probe.sim.last_event_time == last

    until, expected = {
        "none": (None, (last, last)),
        "window": (last + 1_000.0, (last + 1_000.0, last)),
        "watchdog": (last - 1.0, (last - 1.0, last - 1.0)),
    }[bound]
    sim = Simulator()
    network = DragonflyNetwork(sim, config)
    network.send_message(Message(0, 1, 2048))
    sim.run(until=until)
    assert (sim.now, sim.last_event_time) == expected
    assert network.stats.total_packets_ejected == 4


def test_wiring_covers_every_port():
    config = SimulationConfig(system=tiny_system()).with_routing("minimal")
    network = DragonflyNetwork(Simulator(), config)
    for router in network.routers:
        assert all(link is not None for link in router.out_links)
        assert all(link is not None for link in router.in_links)
    assert all(nic.out_link is not None and nic.in_link is not None for nic in network.nics)


def test_send_message_rejects_wrong_source():
    config = SimulationConfig(system=tiny_system()).with_routing("minimal")
    network = DragonflyNetwork(Simulator(), config)
    message = Message(3, 5, 128)
    with pytest.raises(ValueError):
        network.nics[0].send_message(message)
