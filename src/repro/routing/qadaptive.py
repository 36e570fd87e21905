"""Q-adaptive routing: reinforcement-learning path selection on Dragonfly.

The algorithm follows the description in the paper (Section II-B, Fig. 2) and
its reference (Kang et al., HPDC'21):

1. every router keeps a light-weight **two-level Q-table** whose entries
   estimate the remaining delivery time towards each destination group
   (inter-group level) or towards each router of its own group (intra-group
   level), per output port;
2. when a router receives a packet from a neighbouring router it sends back a
   **feedback signal** — its own best estimate of the remaining delivery time
   for that packet's destination — after one reverse-link latency; the
   upstream router folds the measured hop delay plus that estimate into the
   Q-value of the port it used (Boyan–Littman Q-routing update);
3. at the source router the packet chooses between the minimal port and a few
   sampled non-minimal first hops by **minimizing queue delay + Q**, with a
   small ε-greedy exploration term.  Downstream routers follow the chosen
   path like the UGAL family does.

The decisive difference from adaptive routing is therefore *what the decision
is based on*: learned end-to-end delivery-time estimates (which reflect
congestion anywhere along the path) instead of local queue occupancy only.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Callable, Dict, List, MutableSequence, Tuple

import numpy as np

from repro.config import RoutingConfig
from repro.core.events import EventKind
from repro.network.packet import Packet, PathClass
from repro.network.router import Router as _Router
from repro.routing.base import RoutingAlgorithm
from repro.routing.qtable import DestKey, QTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.network import DragonflyNetwork
    from repro.network.router import Router

__all__ = ["QAdaptiveRouting"]

_FEEDBACK = EventKind.ROUTING_FEEDBACK


class QAdaptiveRouting(RoutingAlgorithm):
    """Distributed Q-routing over the Dragonfly candidate paths."""

    name = "q-adaptive"

    def __init__(self, network: "DragonflyNetwork", config: RoutingConfig, rng: np.random.Generator):
        super().__init__(network, config, rng)
        self._tables: Dict[int, QTable] = {}
        #: Total feedback signals applied (observability / tests).
        self.feedback_count = 0
        self._learning_rate = config.q_learning_rate
        system = network.config.system
        self._serialization_ns = system.packet_serialization_ns
        #: Remaining time once the packet sits at its destination router.
        self._terminal_remaining = (
            system.packet_serialization_ns + system.terminal_latency_ns
        )
        # Ports a packet may leave a router through, by destination level.
        # Intra-group ("r") destinations stay inside the group, so only local
        # ports are viable; inter-group ("g") destinations may take any
        # router-to-router port (local hop towards a gateway or global hop).
        topo = self.topology
        self._local_ports = tuple(topo.local_ports())
        self._router_ports = tuple(topo.local_ports()) + tuple(topo.global_ports())

    # --------------------------------------------------------------- tables
    def table_for(self, router: "Router") -> QTable:
        """The Q-table of ``router`` (created on first use)."""
        table = self._tables.get(router.router_id)
        if table is None:
            table = QTable(router.router_id, self._row_factory(router))
            self._tables[router.router_id] = table
        return table

    def _row_factory(self, router: "Router") -> Callable[[DestKey], MutableSequence[float]]:
        """Optimistic zero-load initial rows for a router's table.

        Remaining time ≈ hop over the port + minimal remainder from the
        neighbour, assuming an uncongested network.  The per-port facts (hop
        latency, next router, next group) are computed once per router.
        Each row is an ``array("d")``: 8 B per port where a list holds a
        24 B float object per port, and the same float64 values.
        """
        topo = self.topology
        config = self.network.config.system
        local, global_, terminal = (
            config.local_latency_ns,
            config.global_latency_ns,
            config.terminal_latency_ns,
        )
        far = local + global_ + local
        serialization = config.packet_serialization_ns
        # (hop latency, next router, next group); next router -1 = a node.
        facts: List[Tuple[float, int, int]] = []
        for port in range(topo.ports_per_router):
            neighbor = topo.neighbor(router.router_id, port)
            next_router = -1 if neighbor.is_node else neighbor.router
            next_group = -1 if neighbor.is_node else topo.group_of_router(next_router)
            facts.append((topo.link_latency(port) + serialization, next_router, next_group))

        def new_row(dest: DestKey) -> MutableSequence[float]:
            level, target = dest
            row = array("d")
            for hop, next_router, next_group in facts:
                if next_router < 0:
                    row.append(hop)
                elif level == "r":
                    row.append(hop + (0.0 if next_router == target else local) + terminal)
                else:
                    row.append(hop + (local if next_group == target else far) + terminal)
            return row

        return new_row

    # ------------------------------------------------------------ decisions
    def _dest_key(self, router: "Router", packet: Packet) -> DestKey:
        topo = self.topology
        dst_router = topo.router_of_node_table[packet.dst_node]
        dst_group = topo.group_of_router_table[dst_router]
        if dst_group == router.group:
            return ("r", dst_router)
        return ("g", dst_group)

    def _candidates(self, router: "Router", packet: Packet) -> List[Tuple[int, int, int | None]]:
        """Candidate first hops: ``(port, PathClass, intermediate_group)``."""
        candidates: List[Tuple[int, int, int | None]] = []
        min_port = self.minimal_port(router, packet.dst_node)
        candidates.append((min_port, PathClass.MINIMAL, None))
        dst_group = self.topology.group_of_node_table[packet.dst_node]
        if dst_group != router.group:
            for group in self.sample_intermediate_groups(
                router, packet, self.config.nonminimal_candidates
            ):
                port = self.port_toward_group(router, group)
                candidates.append((port, PathClass.NONMINIMAL, group))
        return candidates

    def decide_at_source(self, router: "Router", packet: Packet) -> None:
        """Pick minimal vs non-minimal using learned delivery-time estimates."""
        row = self.table_for(router).row(self._dest_key(router, packet))
        candidates = self._candidates(router, packet)

        if len(candidates) > 1 and self.rng.random() < self.config.q_exploration:
            choice = candidates[int(self.rng.integers(len(candidates)))]
        else:
            # queue_weight * Router.queue_delay_estimate(port) + Q, inlined.
            weight = self.config.q_queue_weight
            serialization = self._serialization_ns
            credits = router.credits
            requests = router.out_requests
            now = router.sim.now
            best_score = float("inf")
            choice = candidates[0]
            for candidate in candidates:
                port = candidate[0]
                tracker = credits[port]
                if tracker._due <= now:
                    tracker._settle()
                occupancy = tracker._used + len(requests[port])
                score = weight * (occupancy * serialization) + row[port]
                if score < best_score:
                    best_score = score
                    choice = candidate

        _, path_class, intermediate = choice
        packet.path_class = PathClass(path_class)
        packet.intermediate_group = intermediate
        packet.minimal_decision_final = True

    def route(self, router: "Router", packet: Packet) -> Tuple[int, int]:
        if packet.path_class == PathClass.UNDECIDED:
            self.decide_at_source(router, packet)
        port = self.forward_port(router, packet)
        return port, self.next_vc(router, packet)

    # ------------------------------------------------------------- learning
    def estimate_remaining(self, router: "Router", packet: Packet) -> float:
        """This router's best estimate of the packet's remaining delivery time.

        Per the Boyan–Littman Q-routing update (and the paper's "router's own
        best estimate" feedback rule) this is the *minimum* of
        ``queue_weight * queue_delay + Q`` over every viable output port — not
        just the port the packet happens to take next.
        """
        topo = self.topology
        dst_router = topo.router_of_node_table[packet.dst_node]
        return self._estimate(router, dst_router, topo.group_of_router_table[dst_router])

    # reprolint: hot
    def _estimate(self, router: "Router", dst_router: int, dst_group: int) -> float:
        """:meth:`estimate_remaining` towards ``dst_router`` in ``dst_group``."""
        if dst_router == router.router_id:
            # Only the terminal hop remains.
            return self._terminal_remaining
        if dst_group == router.group:
            row = self.table_for(router).row(("r", dst_router))
            ports = self._local_ports
        else:
            row = self.table_for(router).row(("g", dst_group))
            ports = self._router_ports
        # Router.output_occupancy(port), inlined.
        weight_ns = self.config.q_queue_weight * self._serialization_ns
        credits = router.credits
        requests = router.out_requests
        now = router.sim.now
        best = float("inf")
        for port in ports:
            tracker = credits[port]
            if tracker._due <= now:
                tracker._settle()
            score = weight_ns * (tracker._used + len(requests[port])) + row[port]
            if score < best:
                best = score
        return best

    # reprolint: hot
    def on_packet_received(self, router: "Router", in_port: int, packet: Packet) -> None:
        """Send the delivery-time feedback for this hop back to the sender."""
        in_link = router.in_links[in_port]
        if in_link is None:
            return
        sender = in_link.src
        # Feedback only flows between routers; NIC injections carry no Q-value.
        if not isinstance(sender, _Router):
            return
        request_time = packet.request_time
        if request_time is None:
            return
        topo = self.topology
        dst_router = topo.router_of_node_table[packet.dst_node]
        dst_group = topo.group_of_router_table[dst_router]
        sim = router.sim
        now = sim.now
        sample = (now - request_time) + self._estimate(router, dst_router, dst_group)
        if sample < 0:
            raise ValueError("a delivery-time sample cannot be negative")
        # The sender's key for this destination (see _dest_key).
        dest = ("r", dst_router) if dst_group == sender.group else ("g", dst_group)
        table = self.table_for(sender)
        sim.push(
            now + in_link.latency,
            self._apply_feedback,
            (table, table.row(dest), in_link.src_port, sample),
            _FEEDBACK,
        )

    def _apply_feedback(
        self, table: QTable, row: MutableSequence[float], port: int, sample: float
    ) -> None:
        """Fold ``sample`` into ``row[port]`` of ``table`` (see :meth:`QTable.update`)."""
        rate = self._learning_rate
        row[port] = (1.0 - rate) * row[port] + rate * sample
        table.updates += 1
        self.feedback_count += 1

    # ------------------------------------------------------------------ misc
    def total_table_entries(self) -> int:
        """Materialized table entries across all routers (observability)."""
        return sum(t.known_entries() for t in self._tables.values())
