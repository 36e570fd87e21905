"""Credit bookkeeping.

Routers are input-queued: each input port owns one FIFO per virtual channel
(VC), a list the router itself makes on its first packet (``Router.queues``).
Credit-based flow control mirrors those buffers on the *downstream* side of
every link: the upstream entity holds a credit counter per (output port, VC)
initialized to the downstream buffer depth, decrements it when it forwards a
packet and increments it when the downstream entity frees the slot.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.engine import Simulator

__all__ = ["CreditTracker"]

_INF = float("inf")


class CreditTracker:
    """Per-output-port credit counters (one per VC on the downstream buffer).

    A credit on its way back from the downstream entity is a *reserved slot*
    (see :mod:`repro.core.engine`): :meth:`reserve` files it under the key
    ``(time, seq)`` it was given when the downstream freed the buffer slot,
    and every read applies the credits whose key the simulator's current key
    has reached.  The count a reader sees is therefore exactly the count it
    would see had each credit arrived as its own event.
    """

    __slots__ = ("sim", "num_vcs", "initial", "_credits", "_used", "_pending", "_due")

    def __init__(self, sim: Simulator, num_vcs: int, initial_credits: int):
        self.sim = sim
        self.num_vcs = num_vcs
        self.initial = initial_credits
        self._credits = [initial_credits] * num_vcs
        self._used = 0
        #: Credits in flight, in key order: ``(time, seq, vc)`` reserved
        #: slots, at most one port's credits.  Allocated on first use — most
        #: trackers of a large system never see a credit in flight at once.
        self._pending: Optional[List[Tuple[float, int, int]]] = None
        #: Time of the earliest in-flight credit (infinity when none).
        self._due = _INF

    # reprolint: hot
    def _settle(self) -> None:
        """Apply every in-flight credit whose slot the current key has reached."""
        pending = self._pending
        sim = self.sim
        now = sim.now
        credits = self._credits
        due = _INF
        while pending:
            time, seq, vc = pending[0]
            if time > now or (time == now and seq > sim.now_seq):
                due = time
                break
            if credits[vc] >= self.initial:
                self.release(vc)  # raises the overflow error
            del pending[0]
            credits[vc] += 1
            self._used -= 1
        self._due = due

    def available(self, vc: int) -> int:
        """Remaining credits for VC ``vc``."""
        if self._due <= self.sim.now:
            self._settle()
        return self._credits[vc]

    def has_credit(self, vc: int) -> bool:
        """Whether at least one credit is available on VC ``vc``."""
        if self._due <= self.sim.now:
            self._settle()
        return self._credits[vc] > 0

    def consume(self, vc: int) -> None:
        """Spend one credit.  Raises if none are available (flow-control bug)."""
        if self._due <= self.sim.now:
            self._settle()
        if self._credits[vc] <= 0:
            raise RuntimeError(f"credit underflow on VC {vc}")
        self._credits[vc] -= 1
        self._used += 1

    def release(self, vc: int) -> None:
        """Return one credit now.  Raises if this would exceed the buffer depth."""
        if self._credits[vc] >= self.initial:
            raise RuntimeError(
                f"credit overflow on VC {vc}: more credits returned than the "
                "downstream buffer can hold"
            )
        self._credits[vc] += 1
        self._used -= 1

    def reserve(self, time: float, seq: int, vc: int) -> None:
        """File one in-flight credit for VC ``vc``, visible from key ``(time, seq)``.

        Keys must arrive in increasing order, as they do from one link.
        """
        pending = self._pending
        if pending is None:
            pending = self._pending = []
        if not pending:
            self._due = time
        pending.append((time, seq, vc))

    def take_pending(self) -> List[Tuple[float, int, int]]:
        """Remove and return the in-flight credits not yet reached, in key order.

        The caller takes over delivering them (as real calendar events).
        """
        pending = self._pending
        if not pending:
            return []
        self._settle()
        taken = list(pending)
        pending.clear()
        self._due = _INF
        return taken

    @property
    def used(self) -> int:
        """Total credits currently outstanding across all VCs.

        This equals the number of packets occupying (or in flight towards) the
        downstream input buffer and is the congestion signal used by adaptive
        routing.  Maintained incrementally — adaptive routing reads it for
        every candidate port of every routed packet.
        """
        if self._due <= self.sim.now:
            self._settle()
        return self._used

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CreditTracker(initial={self.initial}, credits={self._credits})"
