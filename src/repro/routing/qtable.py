"""Two-level Q-table held by every router under Q-adaptive routing.

The table stores, per output port, the estimated remaining delivery time (in
nanoseconds) towards

* every destination *group* (the inter-group level), and
* every destination *router of the local group* (the intra-group level).

Each destination key owns one *row*: a typed float64 array (``array("d")``)
indexed by output port; this class takes any mutable float sequence.  Rows
are created lazily and initialized with an optimistic zero-load estimate
provided by the caller, so the very first packets follow minimal paths and
exploration starts from a sensible prior — matching the paper's setup where
Q-adaptive starts "without any pre-trained information".  A routing decision
for one destination is then one dict lookup plus a loop over that row.
"""

from __future__ import annotations

from typing import Callable, Dict, MutableSequence, Tuple

__all__ = ["QTable"]

#: Destination key: ("g", group_id) for inter-group, ("r", router_id) intra-group.
DestKey = Tuple[str, int]


class QTable:
    """Per-router table mapping (output port, destination key) to a Q-value."""

    __slots__ = ("router_id", "rows", "_new_row", "updates")

    def __init__(
        self, router_id: int, new_row: Callable[[DestKey], MutableSequence[float]]
    ):
        self.router_id = router_id
        #: Destination key -> Q-value per output port.
        self.rows: Dict[DestKey, MutableSequence[float]] = {}
        self._new_row = new_row
        #: Number of learning updates applied (observability / tests).
        self.updates = 0

    def row(self, dest: DestKey) -> MutableSequence[float]:
        """The Q-values towards ``dest``, indexed by output port."""
        row = self.rows.get(dest)
        if row is None:
            row = self.rows[dest] = self._new_row(dest)
        return row

    def get(self, port: int, dest: DestKey) -> float:
        """Current Q-value for forwarding towards ``dest`` through ``port``."""
        return self.row(dest)[port]

    def update(self, port: int, dest: DestKey, sample: float, learning_rate: float) -> float:
        """Blend a new delivery-time ``sample`` into the estimate.

        Standard exponential moving average update
        ``Q ← (1 - α) Q + α · sample``; returns the new value.  The caller
        guarantees ``sample >= 0`` and ``0 < learning_rate <= 1``
        (``RoutingConfig`` validates the rate).
        """
        row = self.row(dest)
        new = (1.0 - learning_rate) * row[port] + learning_rate * sample
        row[port] = new
        self.updates += 1
        return new

    def known_entries(self) -> int:
        """Number of materialized (port, destination) entries."""
        return sum(len(row) for row in self.rows.values())

    def snapshot(self) -> Dict[Tuple[int, DestKey], float]:
        """Copy of the current table contents (for inspection and tests)."""
        return {
            (port, dest): value
            for dest, row in self.rows.items()
            for port, value in enumerate(row)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QTable(router={self.router_id}, rows={len(self.rows)}, "
            f"updates={self.updates})"
        )
