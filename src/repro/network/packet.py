"""Message, packet and flit accounting.

The MPI layer hands :class:`Message` objects to the NIC, which segments them
into :class:`Packet` objects.  Packets are the unit of simulation: they carry
flit counts so links can compute flit-accurate serialization times, but
individual flits are not simulated as events.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, List, Optional

__all__ = ["Message", "MessageKind", "Packet", "PathClass"]

_packet_ids = itertools.count()
_message_ids = itertools.count()


class MessageKind(enum.IntEnum):
    """Role of a message in the MPI protocol."""

    DATA = 0
    #: Rendezvous request-to-send control message.
    RTS = 1
    #: Rendezvous clear-to-send control message.
    CTS = 2
    #: MPI-level acknowledgement (used by synchronous sends).
    ACK = 3


class PathClass(enum.IntEnum):
    """Whether a packet is travelling on a minimal or non-minimal path."""

    UNDECIDED = 0
    MINIMAL = 1
    NONMINIMAL = 2


class Message:
    """An application-level message travelling between two nodes.

    A message is purely a bookkeeping object: the NIC segments it into
    packets at the source and reassembles it (by counting arrived packets) at
    the destination.
    """

    __slots__ = (
        "msg_id",
        "app_id",
        "src_node",
        "dst_node",
        "size_bytes",
        "tag",
        "kind",
        "num_packets",
        "packets_received",
        "create_time",
        "inject_start_time",
        "inject_end_time",
        "deliver_time",
        "payload",
    )

    def __init__(
        self,
        src_node: int,
        dst_node: int,
        size_bytes: int,
        app_id: int = 0,
        tag: int = 0,
        kind: MessageKind = MessageKind.DATA,
        create_time: float = 0.0,
        payload: Any = None,
    ):
        if size_bytes <= 0:
            raise ValueError(f"message size must be positive, got {size_bytes}")
        if src_node == dst_node:
            raise ValueError("messages to self are handled by the MPI layer, not the network")
        self.msg_id: int = next(_message_ids)
        self.app_id = app_id
        self.src_node = src_node
        self.dst_node = dst_node
        self.size_bytes = int(size_bytes)
        self.tag = tag
        self.kind = kind
        self.num_packets = 0
        self.packets_received = 0
        self.create_time = create_time
        self.inject_start_time: Optional[float] = None
        self.inject_end_time: Optional[float] = None
        self.deliver_time: Optional[float] = None
        #: The MPI layer's protocol value (its envelope), opaque to the
        #: network and never serialized.
        self.payload = payload

    @property
    def complete(self) -> bool:
        """Whether every packet of this message has reached the destination."""
        return self.num_packets > 0 and self.packets_received >= self.num_packets

    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency (creation to full delivery), if delivered."""
        if self.deliver_time is None:
            return None
        return self.deliver_time - self.create_time

    def segment(self, packet_size: int, flit_size: int) -> List["Packet"]:
        """Split the message into maximum-size packets (last one may be short)."""
        packets: List[Packet] = []
        remaining = self.size_bytes
        seq = 0
        while remaining > 0:
            chunk = min(packet_size, remaining)
            packets.append(Packet(self, seq, chunk, flit_size))
            remaining -= chunk
            seq += 1
        self.num_packets = len(packets)
        return packets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(id={self.msg_id}, app={self.app_id}, {self.src_node}->{self.dst_node}, "
            f"{self.size_bytes}B, kind={self.kind.name})"
        )


class Packet:
    """A network packet: the unit of routing, buffering and arbitration."""

    __slots__ = (
        "pid",
        "message",
        "seq",
        "size_bytes",
        "num_flits",
        "app_id",
        "src_node",
        "dst_node",
        "vc",
        "hop_count",
        "path_class",
        "intermediate_group",
        "intermediate_router",
        "visited_intermediate",
        "minimal_decision_final",
        "create_time",
        "inject_time",
        "eject_time",
        "out_port",
        "next_vc",
        "request_time",
        "trace",
    )

    def __init__(self, message: Message, seq: int, size_bytes: int, flit_size: int):
        self.pid: int = next(_packet_ids)
        self.message = message
        self.seq = seq
        self.size_bytes = int(size_bytes)
        # Short tail packets still occupy at least one flit.
        self.num_flits = max(1, -(-self.size_bytes // flit_size))
        self.app_id = message.app_id
        self.src_node = message.src_node
        self.dst_node = message.dst_node

        # Routing state -------------------------------------------------
        self.vc = 0
        self.hop_count = 0
        self.path_class = PathClass.UNDECIDED
        self.intermediate_group: Optional[int] = None
        self.intermediate_router: Optional[int] = None
        self.visited_intermediate = False
        #: PAR allows source-group routers to revise a minimal decision once;
        #: this flag is set when the decision can no longer change.
        self.minimal_decision_final = False

        # Timing --------------------------------------------------------
        self.create_time = message.create_time
        self.inject_time: Optional[float] = None
        self.eject_time: Optional[float] = None

        # Per-router scratch space (current routing grant request) -------
        self.out_port: Optional[int] = None
        self.next_vc: Optional[int] = None
        self.request_time: Optional[float] = None

        #: Optional list of router ids visited (populated only when tracing).
        self.trace: Optional[list] = None

    @property
    def latency(self) -> Optional[float]:
        """Injection-to-ejection latency of this packet in ns."""
        if self.eject_time is None or self.inject_time is None:
            return None
        return self.eject_time - self.inject_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(pid={self.pid}, msg={self.message.msg_id}, seq={self.seq}, "
            f"{self.src_node}->{self.dst_node}, vc={self.vc}, hops={self.hop_count})"
        )
