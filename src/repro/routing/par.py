"""PAR: Progressive Adaptive Routing.

PAR behaves like UGALn at the source router, but a packet initially sent on
the minimal path may be *re-evaluated once* by a downstream router while it is
still inside its source group.  If that router observes local congestion on
the packet's minimal output port, it diverts the packet onto a non-minimal
path from that point on (Jiang, Kim, Dally — ISCA'09).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.network.router import Router

from repro.network.packet import Packet, PathClass
from repro.routing.base import RoutingAlgorithm
from repro.routing.ugal import UgalNRouting

__all__ = ["ParRouting"]


class ParRouting(UgalNRouting):
    """Progressive adaptive routing (UGALn + in-source-group revision)."""

    name = "par"

    def decide_at_source(self, router: "Router", packet: Packet) -> None:
        super().decide_at_source(router, packet)
        # Unlike plain UGAL, a minimal decision stays revisable while the
        # packet remains in its source group.
        if packet.path_class == PathClass.MINIMAL:
            dst_group = self.topology.group_of_node_table[packet.dst_node]
            packet.minimal_decision_final = dst_group == router.group

    def _maybe_revise(self, router: "Router", packet: Packet) -> None:
        """Re-evaluate a revisable minimal decision at a source-group router."""
        src_group = self.topology.group_of_node_table[packet.src_node]
        if router.group != src_group:
            # The packet already left its source group: the decision is locked.
            packet.minimal_decision_final = True
            return

        min_port = self.minimal_port(router, packet.dst_node)
        q_min = router.output_occupancy(min_port)
        groups = self.sample_intermediate_groups(
            router, packet, self.config.nonminimal_candidates
        )
        if groups:
            best_group, _, q_nonmin = self.best_nonminimal(router, packet, groups)
            if q_min > self.config.nonminimal_weight * q_nonmin + self.config.ugal_bias:
                packet.path_class = PathClass.NONMINIMAL
                packet.intermediate_group = best_group
                packet.intermediate_router = self.pick_intermediate_router(best_group)
        # PAR allows a single revision: whatever was decided here is final.
        packet.minimal_decision_final = True

    def route(self, router: "Router", packet: Packet) -> Tuple[int, int]:
        if packet.path_class == PathClass.UNDECIDED:
            self.decide_at_source(router, packet)
        elif packet.path_class == PathClass.MINIMAL and not packet.minimal_decision_final:
            self._maybe_revise(router, packet)
        port = self.forward_port(router, packet)
        return port, self.next_vc(router, packet)
