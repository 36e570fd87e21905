"""Network interface controller (NIC) of a compute node.

The NIC sits between the MPI engine and the router: it segments messages into
packets, injects them subject to credits on the terminal link, reassembles
arriving packets into messages and notifies the network when a message is
fully delivered.  Ejection is modelled as instantaneous consumption (the
terminal link serialization is the ejection bottleneck), so ejection credits
are returned as soon as a packet arrives.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional, Tuple

from repro.config import SimulationConfig
from repro.core.engine import Simulator
from repro.network.buffers import CreditTracker
from repro.network.link import Link
from repro.network.packet import Message, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stats.collector import StatsCollector

__all__ = ["Nic"]


class Nic:
    """Injection/ejection endpoint of one compute node."""

    __slots__ = (
        "sim",
        "config",
        "node_id",
        "stats",
        "out_link",
        "in_link",
        "credits",
        "injection_queue",
        "on_message_delivered",
        "bytes_injected",
        "bytes_ejected",
        "packets_injected",
        "packets_ejected",
    )

    def __init__(
        self,
        sim: Simulator,
        config: SimulationConfig,
        node_id: int,
        stats: Optional["StatsCollector"] = None,
    ):
        self.sim = sim
        self.config = config
        self.node_id = node_id
        self.stats = stats

        #: Link into the router's terminal input port (set during wiring).
        self.out_link: Optional[Link] = None
        #: Link from the router's terminal output port (set during wiring).
        self.in_link: Optional[Link] = None
        #: Credits for the router-side terminal input buffer.
        self.credits = CreditTracker(sim, config.system.num_vcs, config.system.buffer_packets)
        #: Packets segmented from messages, waiting to enter the network.  A
        #: deque, unlike the router FIFOs: a message makes it unbounded.
        self.injection_queue: Deque[Packet] = deque()
        #: Called with a fully-reassembled :class:`Message` on delivery.
        self.on_message_delivered: Optional[Callable[[Message], None]] = None

        self.bytes_injected = 0
        self.bytes_ejected = 0
        self.packets_injected = 0
        self.packets_ejected = 0

    # ------------------------------------------------------------- sending
    def send_message(self, message: Message) -> None:
        """Segment ``message`` into packets and queue them for injection."""
        if message.src_node != self.node_id:
            raise ValueError(
                f"message source {message.src_node} does not match NIC node {self.node_id}"
            )
        system = self.config.system
        packets = message.segment(system.packet_size_bytes, system.flit_size_bytes)
        message.inject_start_time = self.sim.now
        self.injection_queue.extend(packets)
        self._try_inject()

    def output_state(self, port: int) -> Tuple[CreditTracker, Deque[Packet]]:
        """Credits and waiting packets of the injection port (for its link)."""
        return self.credits, self.injection_queue

    # reprolint: hot
    def _try_inject(self) -> None:
        """Inject the next queued packet if the terminal link and credits allow.

        Otherwise ask the link to wake the NIC at the next change that could.
        """
        queue = self.injection_queue
        if not queue:
            return
        link = self.out_link
        if link is None:
            raise RuntimeError(f"NIC {self.node_id} is not wired to a router")
        if link.busy:
            link.wake_when_free()
            return
        credits = self.credits
        # All packets enter the network on VC 0; the VC index then follows the
        # hop count, which keeps VC order strictly increasing along any path.
        if not credits.has_credit(0):
            link.wake_on_credits()
            return
        packet = queue.popleft()
        credits.consume(0)
        packet.vc = 0
        now = self.sim.now
        packet.inject_time = now
        self.bytes_injected += packet.size_bytes
        self.packets_injected += 1
        if self.stats is not None:
            self.stats.record_packet_injected(self, packet)
        message = packet.message
        if packet.seq == message.num_packets - 1:
            message.inject_end_time = now
        link.transmit(packet)

    # ----------------------------------------------------------- callbacks
    def link_free(self, port: int) -> None:
        """Terminal link finished serializing the previous packet."""
        self._try_inject()

    def credit_returned(self, port: int, vc: int) -> None:
        """A credit arrived from the router while packets wait to inject."""
        self.credits.release(vc)
        self._try_inject()

    # ------------------------------------------------------------ receiving
    def receive_packet(self, port: int, packet: Packet) -> None:
        """A packet reached this node (called by the router-to-NIC link)."""
        packet.eject_time = self.sim.now
        self.bytes_ejected += packet.size_bytes
        self.packets_ejected += 1
        if self.stats is not None:
            self.stats.record_packet_ejected(self, packet)
        # Ejection consumes the packet immediately; free the router's slot.
        if self.in_link is not None:
            self.in_link.return_credit(packet.vc)

        message = packet.message
        message.packets_received += 1
        if message.complete:
            message.deliver_time = self.sim.now
            if self.stats is not None:
                self.stats.record_message_delivered(message)
            if self.on_message_delivered is not None:
                self.on_message_delivered(message)

    # ------------------------------------------------------------------ misc
    @property
    def pending_packets(self) -> int:
        """Packets still waiting in the injection queue."""
        return len(self.injection_queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Nic(node={self.node_id}, pending={len(self.injection_queue)})"
