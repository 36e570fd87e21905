"""Input-queued Dragonfly router with credit flow control and stall accounting.

The router model mirrors the paper's SST/Merlin configuration:

* one input FIFO per (port, VC), ``buffer_packets`` deep, made on its first
  packet;
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

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.config import SimulationConfig
from repro.core.engine import Simulator
from repro.network.buffers import CreditTracker
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
        "queues",
        "in_links",
        "out_links",
        "credits",
        "out_requests",
        "_router_of_node",
        "_terminal_port_of_node",
        "_serialization_ns",
        "_capacity",
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
        self._capacity = system.buffer_packets

        #: Input FIFOs: ``queues[port][vc]``, each ``buffer_packets`` deep,
        #: ``None`` until the first packet arrives on that (port, VC): most
        #: never receive one.  Lists, not deques: as fast this short, and
        #: 56 B empty against 760 B.
        self.queues: List[List[Optional[List[Packet]]]] = [
            [None] * self.num_vcs for _ in range(self.num_ports)
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
        self.out_requests: List[List[Tuple[int, int]]] = [[] for _ in range(self.num_ports)]

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

    def output_state(self, port: int) -> Tuple[CreditTracker, List[Tuple[int, int]]]:
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
        credits = self.credits[port]
        if credits._due <= self.sim.now:
            credits._settle()
        return credits._used + len(self.out_requests[port])

    def queue_delay_estimate(self, port: int) -> float:
        """Estimated queueing delay (ns) a packet would see at ``port``."""
        return self.output_occupancy(port) * self._serialization_ns

    # ------------------------------------------------------------- receive
    # reprolint: hot
    def receive_packet(self, in_port: int, packet: Packet) -> None:
        """A packet arrived on ``in_port`` (called by the upstream link).

        The first call of a hop's chain ``receive_packet → _route_head →
        _try_output → _grant``; each passes on the packet, link and tracker.
        """
        if packet.trace is not None:
            packet.trace.append(self.router_id)
        routing = self.routing
        if routing is not None:
            routing.on_packet_received(self, in_port, packet)
        vc = packet.vc
        queue = self.queues[in_port][vc]
        if not queue:
            if queue is None:
                self.queues[in_port][vc] = [packet]
            else:
                queue.append(packet)
            self._route_head(in_port, vc, packet)
            return
        capacity = self._capacity
        if len(queue) >= capacity:
            # The upstream sent without a credit: a flow-control bug, so an
            # error rather than a silent drop.
            raise OverflowError(
                f"VC {vc} buffer overflow (capacity {capacity}); "
                "credit flow control violated"
            )
        queue.append(packet)

    # -------------------------------------------------------------- routing
    # reprolint: hot
    def _route_head(self, in_port: int, vc: int, packet: Packet) -> None:
        """Compute the output port of ``packet``, the new head of (in_port, vc)."""
        dst_node = packet.dst_node
        if self._router_of_node[dst_node] == self.router_id:
            out_port = self._terminal_port_of_node[dst_node]
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
        the next change that could allow one.  This is also the link's
        ``link_free`` callback.
        """
        requests = self.out_requests[out_port]
        link = self.out_links[out_port]
        if not requests or link is None:
            return
        sim = self.sim
        now = sim.now
        # Link.busy, inlined.
        free = link._free_time
        if free > now or (free == now and link._free_seq > sim.now_seq):
            link.wake_when_free()
            return
        credits = self.credits[out_port]
        if credits._due <= now:
            credits._settle()
        available = credits._credits
        queues = self.queues
        for _ in range(len(requests)):
            in_port, vc = requests[0]
            packet = queues[in_port][vc][0]
            if available[packet.next_vc] > 0:
                del requests[0]
                self._grant(in_port, vc, packet, link, credits)
                return
            # Head-of-line packet cannot advance on its VC: move it to the
            # back so other inputs contending for this port still progress.
            requests.append(requests.pop(0))
        link.wake_on_credits()

    link_free = _try_output

    # reprolint: hot
    def _grant(
        self, in_port: int, vc: int, packet: Packet, link: Link, credits: CreditTracker
    ) -> None:
        """Move ``packet``, head of (in_port, vc), onto the output ``link``.

        ``credits`` is the tracker of the link's downstream buffer, already
        settled at the current key.
        """
        next_vc = packet.next_vc
        available = credits._credits
        if available[next_vc] <= 0:
            raise RuntimeError(f"credit underflow on VC {next_vc}")
        available[next_vc] -= 1
        credits._used += 1
        queue = self.queues[in_port][vc]
        del queue[0]

        stats = self.stats
        if stats is not None:
            stall = self.sim.now - packet.request_time
            if stall > 0:
                stats.record_port_stall(self, packet.out_port, stall, packet.app_id)

        packet.vc = next_vc
        packet.hop_count += 1
        packet.out_port = None
        packet.next_vc = None

        # Free the slot in our own input buffer: return a credit upstream.
        in_link = self.in_links[in_port]
        if in_link is not None:
            in_link.return_credit(vc)

        link.transmit(packet)

        # The next packet on this (port, VC) becomes head and gets routed now.
        if queue:
            self._route_head(in_port, vc, queue[0])

    # ------------------------------------------------------------ callbacks
    def credit_returned(self, out_port: int, vc: int) -> None:
        """A credit for (out_port, vc) arrived while a request waits on it."""
        self.credits[out_port].release(vc)
        self._try_output(out_port)

    # ------------------------------------------------------------------ misc
    @property
    def buffered_packets(self) -> int:
        """Packets currently waiting in this router's input buffers."""
        return sum(len(queue) for port in self.queues for queue in port if queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Router(id={self.router_id}, group={self.group}, buffered={self.buffered_packets})"
