"""Routing algorithm interface and shared path helpers.

Every algorithm answers one question per router visit: *which output port and
virtual channel should the head packet use?*  The shared helpers implement
the canonical Dragonfly forwarding rules (minimal l-g-l paths, group-level
Valiant detours, UGALn intermediate-router visits); concrete algorithms only
differ in how the minimal/non-minimal decision is made.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.config import RoutingConfig
from repro.network.packet import Packet, PathClass
from repro.network.topology import DragonflyTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import DragonflyNetwork
    from repro.network.router import Router

__all__ = ["RoutingAlgorithm"]


class RoutingAlgorithm(abc.ABC):
    """Base class of every routing algorithm.

    One instance routes for the entire network; per-router state (e.g. the
    Q-adaptive tables) is keyed by router id inside the instance.
    """

    #: Human-readable algorithm name (overridden by subclasses).
    name = "base"

    def __init__(self, network: "DragonflyNetwork", config: RoutingConfig, rng: np.random.Generator):
        self.network = network
        self.topology: DragonflyTopology = network.topology
        self.config = config
        self.rng = rng
        #: (src_group, dst_group) -> list of allowed intermediate groups.
        self._intermediate_groups: dict = {}

    # ----------------------------------------------------------- interface
    @abc.abstractmethod
    def route(self, router: "Router", packet: Packet) -> Tuple[int, int]:
        """Return ``(output port, next VC)`` for ``packet`` at ``router``.

        Only called when the packet's destination node is *not* attached to
        ``router`` (local ejection is handled by the router itself).
        """

    def on_packet_received(self, router: "Router", in_port: int, packet: Packet) -> None:
        """Hook invoked when a packet arrives at a router (before routing).

        The default implementation does nothing; Q-adaptive uses it to send
        feedback to the upstream router.
        """

    # ------------------------------------------------------------- VC rule
    def next_vc(self, router: "Router", packet: Packet) -> int:
        """VC the packet will occupy in the next router's input buffer.

        The VC index follows the hop count, so it strictly increases along
        any allowed path — the classical Dragonfly deadlock-avoidance scheme.
        """
        return min(packet.hop_count + 1, router.num_vcs - 1)

    # --------------------------------------------------------- path helpers
    def minimal_port(self, router: "Router", dst_node: int) -> int:
        """Output port of ``router`` on the minimal path towards ``dst_node``."""
        topo = self.topology
        dst_router = topo.router_of_node_table[dst_node]
        if dst_router == router.router_id:
            return topo.terminal_port_of_node_table[dst_node]
        return topo.minimal_port_table[router.router_id][dst_router]

    def port_toward_group(self, router: "Router", target_group: int) -> int:
        """Output port on the minimal path towards any router of ``target_group``."""
        port = self.topology.group_port_table[router.router_id][target_group]
        if port < 0:
            raise ValueError("already in the target group")
        return port

    def forward_port(self, router: "Router", packet: Packet) -> int:
        """Output port following the packet's already-decided path.

        Implements the standard forwarding rules:

        * minimal packets follow the unique l-g-l path;
        * non-minimal packets first head to their intermediate group (and,
          for UGALn/PAR, to a specific router inside it), then continue
          minimally towards the destination.
        """
        topo = self.topology
        if packet.path_class == PathClass.NONMINIMAL and not packet.visited_intermediate:
            intermediate = packet.intermediate_group
            assert intermediate is not None, "non-minimal packet without intermediate group"
            if router.group == intermediate:
                target_router = packet.intermediate_router
                if target_router is None or target_router == router.router_id:
                    packet.visited_intermediate = True
                    return self.minimal_port(router, packet.dst_node)
                return topo.minimal_port_table[router.router_id][target_router]
            return self.port_toward_group(router, intermediate)
        return self.minimal_port(router, packet.dst_node)

    # ------------------------------------------------------ candidate sets
    def sample_intermediate_groups(self, router: "Router", packet: Packet, count: int) -> List[int]:
        """Sample candidate intermediate groups (excluding source and destination)."""
        dst_group = self.topology.group_of_node_table[packet.dst_node]
        key = (router.group, dst_group)
        candidates = self._intermediate_groups.get(key)
        if candidates is None:
            excluded = {router.group, dst_group}
            candidates = [g for g in range(self.topology.num_groups) if g not in excluded]
            self._intermediate_groups[key] = candidates
        n = len(candidates)
        if n == 0 or count <= 0:
            return []
        if count >= n:
            return list(candidates)
        # Partial Fisher-Yates over a scratch copy: one RNG call per sample
        # instead of Generator.choice's full-permutation machinery.  This is
        # called once per adaptively-routed packet, so the cheap path matters.
        pool = list(candidates)
        draws = self.rng.random(count)
        picks = []
        for i in range(count):
            j = i + int(draws[i] * (n - i))
            pool[i], pool[j] = pool[j], pool[i]
            picks.append(pool[i])
        return picks

    def pick_intermediate_router(self, group: int) -> int:
        """Random router inside ``group`` (used by UGALn, PAR and Valiant-node)."""
        local = int(self.rng.integers(self.topology.routers_per_group))
        return self.topology.router_in_group(group, local)

    def best_nonminimal(
        self, router: "Router", packet: Packet, groups: Sequence[int]
    ) -> Tuple[int, int, int]:
        """Lowest-occupancy non-minimal candidate.

        Returns ``(intermediate_group, first_hop_port, occupancy)``; raises
        ``ValueError`` when ``groups`` is empty.
        """
        if not groups:
            raise ValueError("no non-minimal candidates to evaluate")
        best: Tuple[int, int, int] | None = None
        for group in groups:
            port = self.port_toward_group(router, group)
            occ = router.output_occupancy(port)
            if best is None or occ < best[2]:
                best = (group, port, occ)
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
