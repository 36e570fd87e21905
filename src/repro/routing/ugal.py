"""UGAL: Universal Globally-Adaptive Load-balanced routing.

UGAL makes a *one-time* decision at the source router: compare the queue
occupancy of the best minimal path against the best of a few sampled
non-minimal (Valiant) paths and pick the cheaper one, weighting the
non-minimal estimate by the hop-count ratio (≈2).  The two deployed variants
differ only in what happens inside the intermediate group:

* **UGALg** forwards minimally towards the destination group as soon as the
  packet reaches the intermediate group;
* **UGALn** first visits a random router inside the intermediate group, which
  spreads load over that group's local links at the cost of extra hops.

The paper configures both with zero bias towards the minimal path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.network.router import Router

from repro.network.packet import Packet, PathClass
from repro.routing.base import RoutingAlgorithm

__all__ = ["UgalGRouting", "UgalNRouting"]


class _UgalBase(RoutingAlgorithm):
    """Shared source-decision logic of UGALg and UGALn."""

    #: Whether the non-minimal leg visits a random router in the intermediate
    #: group (UGALn) or goes straight for the exit gateway (UGALg).
    visit_intermediate_router = False

    def decide_at_source(self, router: "Router", packet: Packet) -> None:
        """Make the one-time minimal/non-minimal decision for ``packet``."""
        topo = self.topology
        dst_group = topo.group_of_node_table[packet.dst_node]
        if dst_group == router.group:
            packet.path_class = PathClass.MINIMAL
            packet.minimal_decision_final = True
            return

        min_port = self.minimal_port(router, packet.dst_node)
        q_min = router.output_occupancy(min_port)

        groups = self.sample_intermediate_groups(
            router, packet, self.config.nonminimal_candidates
        )
        if not groups:
            packet.path_class = PathClass.MINIMAL
            packet.minimal_decision_final = True
            return
        best_group, _, q_nonmin = self.best_nonminimal(router, packet, groups)

        # Minimal wins unless its queue is more than `nonminimal_weight` times
        # deeper than the best non-minimal candidate (paper: factor 2, bias 0).
        if q_min <= self.config.nonminimal_weight * q_nonmin + self.config.ugal_bias:
            packet.path_class = PathClass.MINIMAL
        else:
            packet.path_class = PathClass.NONMINIMAL
            packet.intermediate_group = best_group
            if self.visit_intermediate_router:
                packet.intermediate_router = self.pick_intermediate_router(best_group)
        packet.minimal_decision_final = True

    def route(self, router: "Router", packet: Packet) -> Tuple[int, int]:
        if packet.path_class == PathClass.UNDECIDED:
            self.decide_at_source(router, packet)
        port = self.forward_port(router, packet)
        return port, self.next_vc(router, packet)


class UgalGRouting(_UgalBase):
    """UGALg: one-time source decision, minimal inside the intermediate group."""

    name = "ugal-g"
    visit_intermediate_router = False


class UgalNRouting(_UgalBase):
    """UGALn: one-time source decision, random router visit in the intermediate group."""

    name = "ugal-n"
    visit_intermediate_router = True
