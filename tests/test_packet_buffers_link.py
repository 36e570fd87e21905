"""Tests for packets, router FIFOs, credit trackers and the link model."""

import re

import pytest

from repro.config import SimulationConfig, tiny_system
from repro.core.engine import Simulator
from repro.network.buffers import CreditTracker
from repro.network.link import Link, LinkKind
from repro.network.packet import Message, MessageKind, Packet
from repro.network.router import Router
from repro.network.topology import DragonflyTopology


# ----------------------------------------------------------------- packets
def test_message_segmentation_covers_every_byte():
    message = Message(0, 1, 1300, app_id=2, tag=9)
    packets = message.segment(512, 128)
    assert [p.size_bytes for p in packets] == [512, 512, 276]
    assert message.num_packets == 3
    assert sum(p.size_bytes for p in packets) == 1300
    # The 276-byte tail still needs 3 flits of 128 bytes.
    assert packets[-1].num_flits == 3
    assert all(p.app_id == 2 for p in packets)


def test_message_completion_tracking():
    message = Message(0, 1, 1024, create_time=10.0)
    packets = message.segment(512, 128)
    assert not message.complete
    for packet in packets:
        message.packets_received += 1
    assert message.complete
    message.deliver_time = 60.0
    assert message.latency == pytest.approx(50.0)


def test_invalid_messages_rejected():
    with pytest.raises(ValueError):
        Message(0, 0, 100)
    with pytest.raises(ValueError):
        Message(0, 1, 0)


def test_packet_latency_requires_both_timestamps():
    message = Message(0, 1, 100)
    packet = message.segment(512, 128)[0]
    assert packet.latency is None
    packet.inject_time, packet.eject_time = 5.0, 30.0
    assert packet.latency == pytest.approx(25.0)


# ----------------------------------------------------------------- credits
def test_credit_tracker_consume_release_cycle():
    credits = CreditTracker(Simulator(), num_vcs=3, initial_credits=2)
    assert credits.available(1) == 2
    credits.consume(1)
    credits.consume(1)
    assert not credits.has_credit(1)
    assert credits.used == 2
    with pytest.raises(RuntimeError):
        credits.consume(1)
    credits.release(1)
    assert credits.has_credit(1)
    credits.release(1)
    with pytest.raises(RuntimeError):
        credits.release(1)


def test_credit_tracker_applies_reserved_credit_once_its_key_is_reached():
    sim = Simulator()
    credits = CreditTracker(sim, num_vcs=2, initial_credits=1)
    credits.consume(1)
    seen = []

    def probe(label):
        seen.append((label, sim.now, credits.available(1), credits.used))

    sim.schedule_at(10.0, probe, "earlier seq")
    credits.reserve(10.0, sim.reserve(10.0), 1)
    sim.schedule_at(10.0, probe, "later seq")
    sim.schedule_at(5.0, probe, "earlier time")
    sim.run()
    assert seen == [
        ("earlier time", 5.0, 0, 1),
        ("earlier seq", 10.0, 0, 1),
        ("later seq", 10.0, 1, 0),
    ]


def test_credit_tracker_overflow_raises_when_a_reserved_credit_lands():
    sim = Simulator()
    credits = CreditTracker(sim, num_vcs=1, initial_credits=1)
    credits.reserve(0.0, sim.reserve(0.0), 0)  # the buffer slot was never used
    sim.run()
    with pytest.raises(RuntimeError, match="credit overflow"):
        credits.has_credit(0)


# -------------------------------------------------------------------- link
class _Sink:
    """Minimal downstream/upstream stub used to test the link in isolation.

    As an upstream it holds the credits for the link's downstream buffer and
    a list of requests waiting for the link; it records when the link wakes
    it, and applies the credit it is handed as a router or NIC does.
    """

    def __init__(self, sim, num_vcs=5, depth=2):
        self.sim = sim
        self.tracker = CreditTracker(sim, num_vcs, depth)
        self.waiting = []
        self.received = []
        self.freed = []
        self.credits = []

    def output_state(self, port):
        return self.tracker, self.waiting

    def receive_packet(self, port, packet):
        self.received.append((port, packet))

    def link_free(self, port):
        self.freed.append((self.sim.now, port))

    def credit_returned(self, port, vc):
        self.tracker.release(vc)
        self.credits.append((self.sim.now, port, vc))


def _local_link(sim, src, dst):
    return Link(sim, src, 3, dst, 1, LinkKind.LOCAL, bandwidth_bytes_per_ns=25.0,
                latency_ns=30.0, flit_size=128, link_id=("R", 0, 3))


def _packet():
    return Message(0, 1, 512).segment(512, 128)[0]


def test_link_serialization_and_delivery_timing():
    sim = Simulator()
    src, dst = _Sink(sim), _Sink(sim)
    link = _local_link(sim, src, dst)
    packet = _packet()
    link.transmit(packet)
    assert link.busy
    with pytest.raises(RuntimeError, match="is busy; arbitration bug upstream"):
        link.transmit(packet)
    sim.run()
    # 512 B at 25 B/ns -> 20.48 ns serialization, then 30 ns propagation.
    assert not link.busy
    assert src.freed == []  # nothing waited on the link: no wake-up
    assert dst.received == [(1, packet)]
    assert sim.now == pytest.approx(20.48 + 30.0)
    assert link.bytes_carried == 512
    assert link.utilization(sim.now) == pytest.approx(20.48 / 50.48)


def test_link_wakes_upstream_when_free_only_if_it_asked():
    sim = Simulator()
    src, dst = _Sink(sim), _Sink(sim)
    link = _local_link(sim, src, dst)
    src.waiting.append("request")  # waiting at send time: woken at the end
    link.transmit(_packet())
    sim.run()
    assert src.freed == [(pytest.approx(20.48), 3)]

    src.freed.clear()
    src.waiting.clear()
    link.transmit(_packet())
    start = sim.now
    busy_seen = []

    def ask():
        busy_seen.append(link.busy)
        src.waiting.append("late request")
        link.wake_when_free()
        link.wake_when_free()  # idempotent

    sim.schedule(10.0, ask)
    sim.run()
    assert busy_seen == [True]
    assert src.freed == [(pytest.approx(start + 20.48), 3)]


def test_link_busy_flips_at_the_free_slot_key():
    sim = Simulator()
    src, dst = _Sink(sim), _Sink(sim)
    link = _local_link(sim, src, dst)
    free_at = 20.48
    seen = []
    # The probe scheduled before the packet is sent shares the free slot's
    # time but holds an earlier key; the one scheduled after holds a later.
    sim.schedule_at(free_at, lambda: seen.append(("earlier seq", link.busy)))
    link.transmit(_packet())
    sim.schedule_at(free_at, lambda: seen.append(("later seq", link.busy)))
    sim.run()
    assert seen == [("earlier seq", True), ("later seq", False)]


def test_link_credit_is_visible_at_t_plus_latency_without_waking_upstream():
    sim = Simulator()
    src, dst = _Sink(sim), _Sink(sim)
    link = Link(sim, src, 0, dst, 0, LinkKind.GLOBAL, 25.0, 300.0, 128)
    src.tracker.consume(4)
    link.return_credit(4)
    seen = []

    def probe():
        seen.append((sim.now, src.tracker.available(4)))

    sim.schedule(299.0, probe)
    sim.schedule(300.0, probe)
    sim.run()
    assert seen == [(299.0, 1), (300.0, 2)]
    assert src.credits == []  # nothing waited: no credit event
    assert sim.now == pytest.approx(300.0)  # the drain still reaches the slot


def test_link_credit_wakes_upstream_stalled_on_credits():
    sim = Simulator()
    src, dst = _Sink(sim), _Sink(sim)
    link = Link(sim, src, 0, dst, 0, LinkKind.GLOBAL, 25.0, 300.0, 128)
    src.tracker.consume(4)
    src.tracker.consume(4)
    src.waiting.append("request")  # link idle, request waiting: stalled
    link.return_credit(4)
    sim.run()
    assert src.credits == [(300.0, 0, 4)]
    assert src.tracker.available(4) == 1


def test_link_hands_in_flight_credits_to_upstream_that_asks():
    sim = Simulator()
    src, dst = _Sink(sim), _Sink(sim)
    link = Link(sim, src, 0, dst, 0, LinkKind.GLOBAL, 25.0, 300.0, 128)
    for vc in (1, 2, 2):
        src.tracker.consume(vc)
    link.return_credit(1)

    def later():
        link.return_credit(2)
        link.return_credit(2)

    def ask():
        src.waiting.append("request")
        link.wake_on_credits()

    sim.schedule(100.0, later)
    sim.schedule(350.0, ask)  # after the first credit landed
    sim.run()
    assert src.credits == [(400.0, 0, 2), (400.0, 0, 2)]
    assert [src.tracker.available(vc) for vc in (1, 2)] == [2, 2]


def test_link_rejects_invalid_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, _Sink(sim), 0, _Sink(sim), 0, LinkKind.LOCAL, 0.0, 30.0, 128)
    with pytest.raises(ValueError):
        Link(sim, _Sink(sim), 0, _Sink(sim), 0, LinkKind.LOCAL, 25.0, -1.0, 128)


# ------------------------------------------------ router FIFOs and guards
def _router(buffer_packets=2):
    """Router 0 of the tiny system, unwired, with ``buffer_packets``-deep FIFOs."""
    config = SimulationConfig(system=tiny_system().scaled(buffer_packets=buffer_packets))
    topology = DragonflyTopology(config.system)
    sim = Simulator()
    return sim, topology, Router(sim, topology, config, router_id=0)


def _packets_to(topology, router_id, count):
    """``count`` packets bound for a node attached to ``router_id``."""
    dst = next(n for n in range(topology.num_nodes) if topology.router_of_node(n) == router_id)
    src = next(n for n in range(topology.num_nodes) if topology.router_of_node(n) != router_id)
    return Message(src, dst, 512 * count).segment(512, 128)


def test_router_fifo_order_and_capacity():
    sim, topology, router = _router(buffer_packets=2)
    packets = _packets_to(topology, 0, 3)
    in_port = 4  # a router-to-router port; the output is the terminal port
    router.receive_packet(in_port, packets[0])
    router.receive_packet(in_port, packets[1])
    queue = router.queues[in_port][0]
    assert list(queue) == packets[:2]
    assert not router.queues[in_port][1]
    assert router.buffered_packets == 2
    # Only the head is routed: it alone requests its output port.
    out_port = topology.terminal_port_of_node_table[packets[0].dst_node]
    assert packets[0].out_port == out_port and packets[1].out_port is None
    assert list(router.out_requests[out_port]) == [(in_port, 0)]

    with pytest.raises(OverflowError, match=re.escape(
        "VC 0 buffer overflow (capacity 2); credit flow control violated"
    )):
        router.receive_packet(in_port, packets[2])

    # Wire the output: the head leaves, and the next packet becomes head.
    sink = _Sink(sim)
    link = Link(sim, router, out_port, sink, 0, LinkKind.TERMINAL, 25.0, 10.0, 128)
    router.attach_output_link(out_port, link)
    router.link_free(out_port)
    assert list(queue) == [packets[1]]
    assert packets[0].hop_count == 1 and link.busy
    assert list(router.out_requests[out_port]) == [(in_port, 0)]
    sim.run()
    assert [packet for _, packet in sink.received] == packets[:2]
    assert router.buffered_packets == 0


def test_arbitration_skips_a_head_without_credit_and_moves_it_to_the_back():
    sim, topology, router = _router()
    blocked, first, second = _packets_to(topology, 0, 3)
    out_port = topology.terminal_port_of_node_table[blocked.dst_node]
    # Three inputs request one unwired output, in this order.
    for in_port, packet in zip((2, 3, 4), (blocked, first, second)):
        router.receive_packet(in_port, packet)
    assert list(router.out_requests[out_port]) == [(2, 0), (3, 0), (4, 0)]
    # The first head wants a VC with no credit left downstream.
    blocked.next_vc = 1
    credits = router.credits[out_port]
    while credits.has_credit(1):
        credits.consume(1)

    sink = _Sink(sim)
    link = Link(sim, router, out_port, sink, 0, LinkKind.TERMINAL, 25.0, 10.0, 128)
    router.attach_output_link(out_port, link)
    router.link_free(out_port)
    assert not sink.received and link.busy
    assert list(router.out_requests[out_port]) == [(4, 0), (2, 0)]
    sim.run()
    assert [packet for _, packet in sink.received] == [first, second]
    assert list(router.out_requests[out_port]) == [(2, 0)]
    assert list(router.queues[2][0]) == [blocked]


def test_fifos_are_made_on_first_packet(tiny_network):
    """A (port, VC) that never receives keeps no FIFO; the buffered count
    and ``quiescent`` read right over made, emptied and unmade FIFOs."""
    sim, network = tiny_network
    router = network.routers[0]
    assert all(queue is None for port in router.queues for queue in port)
    assert router.buffered_packets == 0 and network.quiescent()

    first, second = _packets_to(network.topology, 0, 2)
    out_port = network.topology.terminal_port_of_node_table[first.dst_node]
    credits = router.credits[out_port]
    while credits.has_credit(0):
        credits.consume(0)  # both heads wait for the terminal credit
    second.vc = 1
    router.receive_packet(4, first)
    router.receive_packet(5, second)
    made = {(port, vc) for port, vcs in enumerate(router.queues)
            for vc, queue in enumerate(vcs) if queue is not None}
    assert made == {(4, 0), (5, 1)}
    assert router.queues[4][0] == [first] and router.queues[5][1] == [second]
    assert router.buffered_packets == 2 and not network.quiescent()

    router.credit_returned(out_port, 0)  # the first head leaves
    assert router.queues[4][0] == [] and router.buffered_packets == 1
    assert not network.quiescent()
    sim.run()  # the ejected packet's credit lets the second one leave
    assert router.queues[5][1] == [] and router.queues[4][1] is None
    assert router.buffered_packets == 0 and network.quiescent()


def test_grant_without_credit_raises_underflow():
    sim, topology, router = _router()
    packet = _packets_to(topology, 0, 1)[0]
    out_port = topology.terminal_port_of_node_table[packet.dst_node]
    credits = router.credits[out_port]
    while credits.has_credit(0):
        credits.consume(0)
    router.receive_packet(4, packet)  # unwired output: the request waits
    link = Link(sim, router, out_port, _Sink(sim), 0, LinkKind.TERMINAL, 25.0, 10.0, 128)
    router.attach_output_link(out_port, link)
    router.link_free(out_port)  # no credit: arbitration does not grant
    assert list(router.queues[4][0]) == [packet]
    with pytest.raises(RuntimeError, match="credit underflow on VC 0"):
        router._grant(4, 0, packet, link, credits)
