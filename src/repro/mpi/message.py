"""MPI requests, envelopes and matching queues."""

from __future__ import annotations

from typing import Callable, List, Optional

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Envelope",
    "MailBox",
    "MpiRequest",
    "RecvRequest",
    "Rendezvous",
    "SendRequest",
]

#: Wildcard source rank for receives.
ANY_SOURCE = -1
#: Wildcard tag for receives.
ANY_TAG = -1


class Envelope:
    """Matching envelope of a point-to-point message.

    An eager message carries a plain envelope; a rendezvous carries a
    :class:`Rendezvous`.
    """

    __slots__ = ("src_rank", "dst_rank", "tag", "size_bytes")

    def __init__(self, src_rank: int, dst_rank: int, tag: int, size_bytes: int):
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.tag = tag
        self.size_bytes = size_bytes

    def matches(self, src_rank: int, tag: int) -> bool:
        """Whether this envelope satisfies a receive posted for (src, tag)."""
        src_ok = src_rank == ANY_SOURCE or src_rank == self.src_rank
        tag_ok = tag == ANY_TAG or tag == self.tag
        return src_ok and tag_ok

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(src={self.src_rank}, dst={self.dst_rank}, "
            f"tag={self.tag}, size={self.size_bytes})"
        )


class Rendezvous(Envelope):
    """Envelope of one rendezvous exchange, carried by its RTS, CTS and data.

    It holds the two requests the exchange completes, so neither side keeps
    a table of exchanges in flight.
    """

    __slots__ = ("send_request", "recv_request")

    def __init__(
        self, src_rank: int, dst_rank: int, tag: int, size_bytes: int, send_request: "SendRequest"
    ):
        super().__init__(src_rank, dst_rank, tag, size_bytes)
        self.send_request = send_request
        #: The matched receive, set when the CTS is sent.
        self.recv_request: Optional["RecvRequest"] = None


class MpiRequest:
    """Handle to an in-flight non-blocking operation."""

    __slots__ = ("rank", "completed", "completion_time", "waiter")

    def __init__(self, rank: int):
        self.rank = rank
        self.completed = False
        self.completion_time: Optional[float] = None
        #: Called with the request when it completes: the one rank program
        #: blocked on it, set by the engine's wait.
        self.waiter: Optional[Callable[["MpiRequest"], None]] = None

    def complete(self, time: float) -> None:
        """Mark the request complete and notify its waiter (idempotent)."""
        if self.completed:
            return
        self.completed = True
        self.completion_time = time
        if self.waiter is not None:
            self.waiter(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rank={self.rank}, done={self.completed})"


class SendRequest(MpiRequest):
    """Request handle of an isend."""

    __slots__ = ("dst_rank", "tag", "size_bytes")

    def __init__(self, rank: int, dst_rank: int, tag: int, size_bytes: int):
        super().__init__(rank)
        self.dst_rank = dst_rank
        self.tag = tag
        self.size_bytes = size_bytes


class RecvRequest(MpiRequest):
    """Request handle of an irecv."""

    __slots__ = ("src_rank", "tag", "matched_envelope")

    def __init__(self, rank: int, src_rank: int, tag: int):
        super().__init__(rank)
        self.src_rank = src_rank
        self.tag = tag
        self.matched_envelope: Optional[Envelope] = None


class MailBox:
    """Per-rank matching state: posted receives and unexpected arrivals.

    ``unexpected`` holds envelopes of messages (eager data or rendezvous RTS)
    that arrived before a matching receive was posted; the envelope's type
    says which protocol step runs once it is matched.  Each queue is created
    on its first entry: many ranks only ever post, or only ever find their
    receives posted.
    """

    __slots__ = ("posted", "unexpected")

    def __init__(self) -> None:
        self.posted: Optional[List[RecvRequest]] = None
        self.unexpected: Optional[List[Envelope]] = None

    def post(self, request: RecvRequest) -> Optional[Envelope]:
        """Post a receive; returns the first unexpected envelope it matches."""
        unexpected = self.unexpected
        if unexpected:
            for index, envelope in enumerate(unexpected):
                if envelope.matches(request.src_rank, request.tag):
                    del unexpected[index]
                    return envelope
        if self.posted is None:
            self.posted = [request]
        else:
            self.posted.append(request)
        return None

    def match_arrival(self, envelope: Envelope) -> Optional[RecvRequest]:
        """Match an arriving envelope against posted receives (FIFO order)."""
        posted = self.posted
        if posted:
            for index, request in enumerate(posted):
                if envelope.matches(request.src_rank, request.tag):
                    del posted[index]
                    return request
        return None

    def store_unexpected(self, envelope: Envelope) -> None:
        """Queue an arrival that found no posted receive."""
        if self.unexpected is None:
            self.unexpected = [envelope]
        else:
            self.unexpected.append(envelope)

    @property
    def pending(self) -> int:
        """Posted receives not yet matched (used by drain checks in tests)."""
        return len(self.posted) if self.posted else 0
