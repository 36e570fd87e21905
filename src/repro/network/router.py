"""Input-queued Dragonfly router with credit flow control and stall accounting.

The router model mirrors the paper's SST/Merlin configuration:

* one input buffer per (port, VC), ``buffer_packets`` deep;
* one output link per port, serializing one packet at a time;
* credit-based flow control towards every downstream buffer;
* round-robin arbitration among input (port, VC) pairs contending for the
  same output port;
* virtual channels assigned by hop index, which makes the VC order strictly
  increasing along any allowed path and therefore deadlock-free;
* per-output-port *stall time*: the cumulative time head packets spent
  blocked waiting for the output link or for downstream credits.  This is the
  network-level interference metric of Fig. 11.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.config import SimulationConfig
from repro.core.engine import Simulator
from repro.network.buffers import CreditTracker, VcInputBuffer
from repro.network.link import Link
from repro.network.packet import Packet
from repro.network.topology import DragonflyTopology, PortKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routing.base import RoutingAlgorithm
    from repro.stats.collector import StatsCollector

__all__ = ["Router"]


class Router:
    """One Dragonfly router.

    Parameters
    ----------
    sim, topology, config:
        Shared simulation infrastructure.
    router_id:
        Global router id (0 .. num_routers-1).
    routing:
        The routing algorithm driving output-port selection.  May be ``None``
        during wiring and set afterwards via :attr:`routing`.
    stats:
        Optional statistics collector.
    """

    __slots__ = (
        "sim",
        "topology",
        "config",
        "router_id",
        "group",
        "routing",
        "stats",
        "num_ports",
        "num_vcs",
        "in_buffers",
        "in_links",
        "out_links",
        "credits",
        "out_requests",
        "packets_forwarded",
        "_router_of_node",
        "_terminal_port_of_node",
        "_serialization_ns",
    )

    def __init__(
        self,
        sim: Simulator,
        topology: DragonflyTopology,
        config: SimulationConfig,
        router_id: int,
        routing: Optional["RoutingAlgorithm"] = None,
        stats: Optional["StatsCollector"] = None,
    ):
        self.sim = sim
        self.topology = topology
        self.config = config
        self.router_id = router_id
        self.group = topology.group_of_router(router_id)
        self.routing = routing
        self.stats = stats

        system = config.system
        self.num_ports = topology.ports_per_router
        self.num_vcs = system.num_vcs
        # Hot-path lookups bound once: per-packet routing indexes these
        # directly instead of going through the checked topology methods.
        self._router_of_node = topology.router_of_node_table
        self._terminal_port_of_node = topology.terminal_port_of_node_table
        self._serialization_ns = system.packet_serialization_ns

        self.in_buffers: List[VcInputBuffer] = [
            VcInputBuffer(self.num_vcs, system.buffer_packets) for _ in range(self.num_ports)
        ]
        #: Link delivering packets *into* each input port (None until wired).
        self.in_links: List[Optional[Link]] = [None] * self.num_ports
        #: Link carrying packets *out of* each output port (None until wired).
        self.out_links: List[Optional[Link]] = [None] * self.num_ports
        #: Credits available on the downstream buffer of each output port.
        self.credits: List[CreditTracker] = [
            CreditTracker(sim, self.num_vcs, system.buffer_packets)
            for _ in range(self.num_ports)
        ]
        #: (input port, vc) pairs whose head packet wants each output port.
        self.out_requests: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(self.num_ports)
        ]
        self.packets_forwarded = 0

    # ------------------------------------------------------------- wiring
    def attach_output_link(self, port: int, link: Link) -> None:
        """Install the link carrying traffic out of ``port``."""
        if self.out_links[port] is not None:
            raise RuntimeError(f"router {self.router_id} port {port} already has an output link")
        self.out_links[port] = link

    def attach_input_link(self, port: int, link: Link) -> None:
        """Install the link delivering traffic into ``port``."""
        if self.in_links[port] is not None:
            raise RuntimeError(f"router {self.router_id} port {port} already has an input link")
        self.in_links[port] = link

    def output_state(self, port: int) -> Tuple[CreditTracker, Deque[Tuple[int, int]]]:
        """Credits and waiting requests of output ``port`` (for its link)."""
        return self.credits[port], self.out_requests[port]

    # ---------------------------------------------------------- congestion
    def output_occupancy(self, port: int) -> int:
        """Congestion estimate of an output port, in packets.

        The estimate combines the occupancy of the downstream input buffer
        (credits consumed) with the number of local head packets waiting for
        the port.  This is the queue-occupancy signal used by the adaptive
        routing family.
        """
        return self.credits[port].used + len(self.out_requests[port])

    def queue_delay_estimate(self, port: int) -> float:
        """Estimated queueing delay (ns) a packet would see at ``port``."""
        return self.output_occupancy(port) * self._serialization_ns

    # ------------------------------------------------------------- receive
    # reprolint: hot
    def receive_packet(self, in_port: int, packet: Packet) -> None:
        """A packet arrived on ``in_port`` (called by the upstream link)."""
        if packet.trace is not None:
            packet.trace.append(self.router_id)
        if self.routing is not None:
            self.routing.on_packet_received(self, in_port, packet)
        vc = packet.vc
        buffer = self.in_buffers[in_port]
        buffer.push(vc, packet)
        if buffer.occupancy(vc) == 1:
            self._route_head(in_port, vc)

    # -------------------------------------------------------------- routing
    # reprolint: hot
    def _route_head(self, in_port: int, vc: int) -> None:
        """Compute the output port for the new head packet of (in_port, vc)."""
        packet = self.in_buffers[in_port].head(vc)
        assert packet is not None, "route_head called on empty queue"
        dst_router = self._router_of_node[packet.dst_node]
        if dst_router == self.router_id:
            out_port = self._terminal_port_of_node[packet.dst_node]
            next_vc = 0
        else:
            # Note: sending a packet back out of the port it arrived on is
            # legal (UGALn/PAR detours can revisit the intermediate group's
            # entry router), so no U-turn check is applied here.
            out_port, next_vc = self.routing.route(self, packet)
        packet.out_port = out_port
        packet.next_vc = next_vc
        packet.request_time = self.sim.now
        self.out_requests[out_port].append((in_port, vc))
        self._try_output(out_port)

    # ---------------------------------------------------------- arbitration
    # reprolint: hot
    def _try_output(self, out_port: int) -> None:
        """Grant the output port to a waiting head packet if possible.

        When no grant is possible, ask the link to wake this port again at
        the next change that could allow one.
        """
        requests = self.out_requests[out_port]
        link = self.out_links[out_port]
        if not requests or link is None:
            return
        if link.busy:
            link.wake_when_free()
            return
        credits = self.credits[out_port]
        in_buffers = self.in_buffers
        for _ in range(len(requests)):
            in_port, vc = requests[0]
            packet = in_buffers[in_port].head(vc)
            assert packet is not None and packet.out_port == out_port
            if credits.has_credit(packet.next_vc):
                requests.popleft()
                self._grant(in_port, vc, out_port, packet)
                return
            # Head-of-line packet cannot advance on its VC: rotate so other
            # inputs contending for this port still make progress.
            requests.rotate(-1)
        link.wake_on_credits()

    # reprolint: hot
    def _grant(self, in_port: int, vc: int, out_port: int, packet: Packet) -> None:
        """Move a head packet from its input buffer onto the output link."""
        popped = self.in_buffers[in_port].pop(vc)
        assert popped is packet
        self.credits[out_port].consume(packet.next_vc)

        # request_time == 0.0 is a legitimate timestamp (packets routed at
        # t=0), so test against None rather than falsiness.
        request_time = packet.request_time
        stall = self.sim.now - request_time if request_time is not None else 0.0
        stats = self.stats
        if stats is not None:
            stats.record_port_stall(self, out_port, stall, packet.app_id)
            stats.record_hop(self, in_port, out_port, packet)

        packet.vc = packet.next_vc
        packet.hop_count += 1
        packet.out_port = None
        packet.next_vc = None
        self.packets_forwarded += 1

        # Free the slot in our own input buffer: return a credit upstream.
        in_link = self.in_links[in_port]
        if in_link is not None:
            in_link.return_credit(vc)

        self.out_links[out_port].transmit(packet)

        # The next packet on this (port, VC) becomes head and gets routed now.
        if self.in_buffers[in_port].occupancy(vc) > 0:
            self._route_head(in_port, vc)

    # ------------------------------------------------------------ callbacks
    def link_free(self, out_port: int) -> None:
        """Output link finished serializing: try to grant the next packet."""
        self._try_output(out_port)

    def credit_returned(self, out_port: int, vc: int) -> None:
        """A credit for (out_port, vc) arrived while a request waits on it."""
        self.credits[out_port].release(vc)
        self._try_output(out_port)

    # ------------------------------------------------------------------ misc
    @property
    def buffered_packets(self) -> int:
        """Packets currently waiting in this router's input buffers."""
        return sum(buf.total_packets for buf in self.in_buffers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Router(id={self.router_id}, group={self.group}, buffered={self.buffered_packets})"
