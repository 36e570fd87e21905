"""Unidirectional link model: serialization, propagation and credit return.

A :class:`Link` connects one output port of an upstream entity (router or NIC)
to one input port of a downstream entity.  It serializes one packet at a time
at the configured bandwidth (flit-quantized), then delivers the packet after
the propagation latency.  Credits returned by the downstream entity travel
back over the same link with the same latency.

Events per hop: the delivery is always a calendar event.  The end of
serialization ("link free") and the returning credit are *reserved slots*
(see :mod:`repro.core.engine`): each takes its ``(time, seq)`` key when the
packet is sent or the credit returned, but reaches the calendar only if the
upstream entity has a request waiting on the port.  Everybody else reads
the link's busy state and the upstream's credit count lazily against the
simulator's current key.  The upstream therefore sees each change at
exactly the key it would have seen it as an event.  It is woken at that key
only when it asked:

* the link is busy and it has a request waiting — :meth:`Link.wake_when_free`;
* the link is free, it has a request waiting and no credit to send it —
  :meth:`Link.wake_on_credits`.

A credit returned while the link is free and a request waits is pushed
straight away.  A link freed while a request waits is too.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Dict, Optional, Protocol, Sized, Tuple

from repro.core.engine import Simulator
from repro.core.events import EventKind
from repro.network.buffers import CreditTracker
from repro.network.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stats.collector import StatsCollector

__all__ = ["Link", "LinkKind", "Upstream"]

# Bound once: transmit() runs for every packet on every hop.
_SERIALIZED = EventKind.LINK_SERIALIZED
_DELIVERY = EventKind.LINK_DELIVERY
_CREDIT = EventKind.CREDIT_RETURN
_NEVER = float("-inf")


class LinkKind(enum.IntEnum):
    """Physical class of a link, used for latency selection and statistics."""

    TERMINAL = 0
    LOCAL = 1
    GLOBAL = 2


class Upstream(Protocol):
    """What a link needs from the entity that sends over it."""

    def output_state(self, port: int) -> Tuple[CreditTracker, Sized]:
        """Credits for the downstream buffer of ``port`` and the requests
        waiting to leave through it (non-empty = somebody is waiting)."""

    def link_free(self, port: int) -> None:
        """The link on ``port`` finished serializing; a request is waiting."""

    def credit_returned(self, port: int, vc: int) -> None:
        """Apply one credit for (``port``, ``vc``); a request is waiting."""


class Link:
    """One direction of a physical link.

    Parameters
    ----------
    sim:
        The discrete-event engine.
    src, src_port:
        Upstream entity (see :class:`Upstream`) and its output port index.
    dst, dst_port:
        Downstream entity (must expose ``receive_packet(port, packet)``) and
        its input port index.
    kind:
        Terminal, local or global — selects latency and statistics bucket.
    bandwidth_bytes_per_ns, latency_ns, flit_size:
        Physical parameters.
    stats:
        Optional statistics collector.  The link counts its own traffic and
        registers with the collector's ``link_traffic`` view on its first
        packet of each application.
    link_id:
        Stable identifier used by the statistics layer.
    """

    __slots__ = (
        "sim",
        "src",
        "src_port",
        "dst",
        "dst_port",
        "kind",
        "bandwidth",
        "latency",
        "flit_size",
        "stats",
        "link_id",
        "credits",
        "waiting",
        "busy_time",
        "bytes_carried",
        "bytes_by_app",
        "_free_time",
        "_free_seq",
        "_free_armed",
        "_port_args",
    )

    def __init__(
        self,
        sim: Simulator,
        src: Upstream,
        src_port: int,
        dst: Any,
        dst_port: int,
        kind: LinkKind,
        bandwidth_bytes_per_ns: float,
        latency_ns: float,
        flit_size: int,
        stats: Optional["StatsCollector"] = None,
        link_id: Optional[tuple] = None,
    ):
        if bandwidth_bytes_per_ns <= 0:
            raise ValueError("link bandwidth must be positive")
        if latency_ns < 0:
            raise ValueError("link latency must be non-negative")
        self.sim = sim
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.kind = kind
        self.bandwidth = bandwidth_bytes_per_ns
        self.latency = latency_ns
        self.flit_size = flit_size
        self.stats = stats
        self.link_id = link_id
        #: The upstream's credits for our downstream buffer, and its requests
        #: waiting for this link.
        self.credits, self.waiting = src.output_state(src_port)

        #: Cumulative time this link spent serializing packets (ns).
        self.busy_time = 0.0
        #: Cumulative payload bytes carried.
        self.bytes_carried = 0
        #: The same bytes per application id (None until the first packet).
        self.bytes_by_app: Optional[Dict[int, int]] = None
        # Reserved slot at which the current serialization ends, and whether
        # it has been pushed to the calendar.
        self._free_time = _NEVER
        self._free_seq = -1
        self._free_armed = True
        self._port_args = (src_port,)

    # ----------------------------------------------------------------- send
    @property
    def busy(self) -> bool:
        """Whether a packet is still serializing at the current key."""
        # Not Simulator.reached(free slot), inlined: NICs ask on every injection.
        sim = self.sim
        free = self._free_time
        now = sim.now
        return free > now or (free == now and self._free_seq > sim.now_seq)

    # reprolint: hot
    def transmit(self, packet: Packet) -> None:
        """Start serializing ``packet``.  The link must be idle."""
        sim = self.sim
        now = sim.now
        free = self._free_time
        if free > now or (free == now and self._free_seq > sim.now_seq):
            raise RuntimeError(f"link {self.link_id} is busy; arbitration bug upstream")
        # Flit-quantized serialization time.
        ser = (packet.num_flits * self.flit_size) / self.bandwidth
        self.busy_time += ser
        size = packet.size_bytes
        self.bytes_carried += size
        app_id = packet.app_id
        bytes_by_app = self.bytes_by_app
        if bytes_by_app is not None and app_id in bytes_by_app:
            bytes_by_app[app_id] += size
        else:
            self._first_packet_of(app_id, size)
        free = now + ser
        seq = sim.reserve(free)
        self._free_time = free
        self._free_seq = seq
        self._free_armed = armed = bool(self.waiting)
        if armed:
            sim.push_reserved(free, seq, self.src.link_free, self._port_args, _SERIALIZED)
        sim.push(
            now + (ser + self.latency),
            self.dst.receive_packet,
            (self.dst_port, packet),
            _DELIVERY,
        )

    def _first_packet_of(self, app_id: int, size: int) -> None:
        """Count the first ``size`` bytes of ``app_id``; register with ``stats.link_traffic``."""
        if self.bytes_by_app is None:
            self.bytes_by_app = {}
        self.bytes_by_app[app_id] = size
        if self.stats is not None and self.link_id is not None:
            self.stats.link_traffic.register(self, app_id)

    def wake_when_free(self) -> None:
        """Call the upstream's ``link_free`` when the current packet is sent."""
        if not self._free_armed:
            self._free_armed = True
            self.sim.push_reserved(
                self._free_time, self._free_seq, self.src.link_free, self._port_args,
                _SERIALIZED,
            )

    # -------------------------------------------------------------- credits
    # reprolint: hot
    def return_credit(self, vc: int) -> None:
        """Send one credit back to the upstream entity (takes ``latency`` ns)."""
        sim = self.sim
        now = sim.now
        time = now + self.latency
        seq = sim.reserve(time)
        free = self._free_time
        if self.waiting and (free < now or (free == now and self._free_seq <= sim.now_seq)):
            # The link is free (not busy, inlined) and the upstream is
            # stalled on credits right now: wake it.
            sim.push_reserved(time, seq, self.src.credit_returned, (self.src_port, vc), _CREDIT)
        else:
            self.credits.reserve(time, seq, vc)

    def wake_on_credits(self) -> None:
        """Call the upstream's ``credit_returned`` for every credit in flight."""
        push = self.sim.push_reserved
        credit_returned = self.src.credit_returned
        port = self.src_port
        for time, seq, vc in self.credits.take_pending():
            push(time, seq, credit_returned, (port, vc), _CREDIT)

    # ------------------------------------------------------------------ misc
    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of ``elapsed_ns`` this link spent serializing packets."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link(id={self.link_id}, kind={self.kind.name}, busy={self.busy})"
