"""Flow-level network: messages as fluid flows over the Dragonfly topology.

:class:`FlowNetwork` and :class:`repro.network.network.DragonflyNetwork`
both implement the engine-facing :class:`repro.flow.Network` protocol and
record into one :class:`repro.stats.collector.StatsCollector`, so
:class:`repro.mpi.engine.MpiEngine` — and with it every workload's
``program()`` — runs unchanged at flow fidelity.

The model
---------

Every message becomes one *flow* along a fixed router path chosen at send
time.  A flow occupies three kinds of directed resources, each with the
link bandwidth of the system config as capacity:

* the source node's injection (terminal) link,
* one inter-router link per hop of the router path (local or global), and
* the destination node's ejection (terminal) link.

At any instant, active flows share link bandwidth **max-min fairly**
(progressive filling: repeatedly freeze the flows crossing the most
contended link at its equal share, subtract, continue).  Rates are
recomputed *event-driven* — whenever a flow starts or finishes — with all
changes at one timestamp batched into a single recomputation via a
zero-delay event.  A recomputation re-fills only the connected components
(links joined by shared flows) that a started or finished flow touches;
every other flow keeps its rate.  A single pending "next finish" event
tracks the earliest flow completion under the current rates and is
rescheduled on every recomputation.  A finished flow's message is delivered
after a fixed propagation offset (terminal + per-hop local/global
latencies), modelling a pipelined transfer whose tail arrives one path
latency after the last byte left the source.

Routing algorithms map to path selection:

* ``minimal`` — the minimal router path (≤3 hops);
* ``valiant`` — route via a uniformly random intermediate group;
* ``ugal-g``/``ugal-n``/``par``/``q-adaptive`` — adaptive choice: compare
  the minimal path against sampled Valiant candidates by the number of
  flows currently crossing their links (non-minimal candidates weighted by
  ``RoutingConfig.nonminimal_weight``, mirroring UGAL's hop-count penalty)
  and take the least loaded, ties favouring minimal.

Honest limits (see docs/fidelity.md): no packets means no buffer occupancy,
credit stalls, VC arbitration, or per-packet adaptivity — a flow's path is
fixed for its lifetime, and a flow traversing the same link twice (possible
on Valiant detours) is charged one fair share there, not two.  Flow results
approximate packet-level ones and are cross-validated on small systems, not
bit-equivalent.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.config import SimulationConfig
from repro.core.engine import EventHandle, Simulator
from repro.core.events import EventKind
from repro.core.rng import RngRegistry
from repro.network.packet import Message
from repro.network.topology import DragonflyTopology
from repro.stats.collector import StatsCollector

__all__ = ["FlowNetwork"]

#: A flow whose remaining volume is within this many bytes of zero is done.
_EPS_BYTES = 1e-6
#: Defensive floor on a fair-share rate (bytes/ns) so accumulated floating
#: error on a fully-subscribed link can never produce a rate of exactly zero
#: (which would push the next-finish event to infinity).
_MIN_RATE = 1e-9

_ADAPTIVE_ALGORITHMS = frozenset({"ugal-g", "ugal-n", "par", "q-adaptive"})


class _FlowLink(list["_Flow"]):
    """One directed bandwidth resource: the list of the flows currently
    crossing it, in start order (determinism).

    Being its own flow list saves a list object per link.  As a list it
    compares by content and cannot be hashed, so links are told apart with
    ``is`` and epoch marks, never ``==`` or sets.
    """

    __slots__ = ("capacity", "residual", "unfrozen", "epoch")

    def __init__(self, capacity: float):
        self.capacity = capacity
        # Progressive-filling scratch state.
        self.residual = capacity
        self.unfrozen = 0
        #: Last component search or filling round that visited the link.
        self.epoch = 0


class _Flow:
    """One in-flight message transfer."""

    __slots__ = ("message", "links", "remaining", "rate", "latency_ns", "frozen", "epoch")

    def __init__(self, message: Message, links: List[_FlowLink], latency_ns: float):
        self.message = message
        self.links = links
        self.remaining = float(message.size_bytes)
        self.rate = 0.0
        self.latency_ns = latency_ns
        self.frozen = False
        #: Last component search that reached the flow.
        self.epoch = 0


def _by_share(links: List[_FlowLink]) -> Dict[float, List[_FlowLink]]:
    """The links still carrying unfrozen flows, grouped by exact equal share."""
    buckets: Dict[float, List[_FlowLink]] = {}
    for link in links:
        unfrozen = link.unfrozen
        if unfrozen:
            share = link.residual / unfrozen
            bucket = buckets.get(share)
            if bucket is None:
                buckets[share] = [link]
            else:
                bucket.append(link)
    return buckets


def _current(
    bucket: List[_FlowLink], share: float, into: List[_FlowLink]
) -> List[_FlowLink]:
    """Append to ``into`` the links of ``bucket`` whose share is still ``share``."""
    for link in bucket:
        unfrozen = link.unfrozen
        if unfrozen and link.residual / unfrozen == share:
            into.append(link)
    return into


class FlowNetwork:
    """A Dragonfly system modelled at flow fidelity (see module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        config: SimulationConfig,
        stats: Optional[StatsCollector] = None,
        rng: Optional[RngRegistry] = None,
    ):
        self.sim = sim
        self.config = config
        self.topology = DragonflyTopology(config.system)
        self.rng = rng if rng is not None else RngRegistry(config.seed)
        self.stats = stats if stats is not None else StatsCollector(sim, config)

        #: Delivery callback (set by the MPI engine).
        self.on_message_delivered: Optional[Callable[[Message], None]] = None

        self._routing_rng: np.random.Generator = self.rng.get("routing")
        algorithm = config.routing.algorithm
        self._adaptive = algorithm in _ADAPTIVE_ALGORITHMS
        self._valiant = algorithm == "valiant"

        self._capacity = config.system.link_bandwidth_bytes_per_ns
        #: Bandwidth resources are created lazily — a 100k-node system only
        #: materializes the links its traffic actually crosses.  Inter-router
        #: links by ``(src_router, dst_router)``; terminal links in one slot
        #: per node (8 B each), ``None`` until the node first sends/receives.
        self._links: Dict[Tuple[int, int], _FlowLink] = {}
        num_nodes = self.topology.num_nodes
        self._inj_links: List[Optional[_FlowLink]] = [None] * num_nodes
        self._ej_links: List[Optional[_FlowLink]] = [None] * num_nodes
        #: Minimal-route cache: ``src_router * R + dst_router`` -> (inter-
        #: router links, path latency).  Minimal paths are static, so under
        #: minimal routing the per-message path work collapses to one dict
        #: hit per distinct router pair — the difference between seconds and
        #: minutes for 100k-endpoint scenarios.
        self._minimal_routes: Dict[int, Tuple[List[_FlowLink], float]] = {}
        #: Active flows by message id (insertion-ordered).
        self._flows: Dict[int, _Flow] = {}

        # Event-driven recomputation state: a dirty flag batches every flow
        # start/finish at one timestamp into a single zero-delay rate
        # recomputation; one pending next-finish event tracks the earliest
        # completion under the current rates.
        self._dirty = False
        #: Flows started or finished since the last recomputation: the seeds
        #: of its component search.
        self._changed: List[_Flow] = []
        #: Source of the epoch marks of component searches and filling rounds.
        self._epoch = 0
        self._progress_time = sim.now
        self._finish_handle: Optional[EventHandle] = None

    # ------------------------------------------------------------ messaging
    def send_message(self, message: Message) -> Message:
        """Inject ``message`` as a fluid flow at its source node."""
        topo = self.topology
        src_router = topo.router_of_node_table[message.src_node]
        dst_router = topo.router_of_node_table[message.dst_node]
        if not (self._valiant or self._adaptive):
            # Minimal routing: the route is static, serve it from the cache.
            route, latency = self._minimal_route(src_router, dst_router)
            links = [
                self._terminal_link(self._inj_links, message.src_node),
                *route,
                self._terminal_link(self._ej_links, message.dst_node),
            ]
        else:
            path = self._select_path(src_router, dst_router)
            links = self._path_links(message.src_node, message.dst_node, path)
            latency = self._path_latency(path)
        flow = _Flow(message, links, latency)
        message.inject_start_time = self.sim.now
        self._flows[message.msg_id] = flow
        self._changed.append(flow)
        for link in links:
            link.append(flow)
        self.stats.record_message_injected(message)
        self._mark_dirty()
        return message

    # ------------------------------------------------------- path selection
    def _select_path(self, src_router: int, dst_router: int) -> List[int]:
        """Router path for a new flow under the configured routing algorithm.

        An adaptive choice samples ``nonminimal_candidates`` Valiant detours,
        so with none it is minimal routing, as at packet level.
        """
        minimal = self.topology.minimal_router_path(src_router, dst_router)
        if self._valiant:
            detour = self._valiant_path(src_router, dst_router)
            return detour if detour is not None else minimal
        if self._adaptive:
            routing = self.config.routing
            best = minimal
            best_score = self._path_load(minimal)
            for _ in range(routing.nonminimal_candidates):
                detour = self._valiant_path(src_router, dst_router)
                if detour is None:
                    break
                score = self._path_load(detour) * routing.nonminimal_weight
                if score < best_score:
                    best, best_score = detour, score
            return best
        return minimal

    def _valiant_path(self, src_router: int, dst_router: int) -> Optional[List[int]]:
        """Minimal path via a random intermediate group (None when impossible)."""
        topo = self.topology
        num_groups = topo.num_groups
        if num_groups <= 2:
            return None
        src_group = topo.group_of_router_table[src_router]
        dst_group = topo.group_of_router_table[dst_router]
        mid_group = int(self._routing_rng.integers(num_groups))
        if mid_group == src_group or mid_group == dst_group:
            # At most two forbidden groups: shift into the allowed remainder.
            candidates = [
                g for g in range(num_groups) if g != src_group and g != dst_group
            ]
            mid_group = candidates[mid_group % len(candidates)]
        per_group = topo.routers_per_group
        mid_router = mid_group * per_group + int(self._routing_rng.integers(per_group))
        path = topo.minimal_router_path(src_router, mid_router)
        path += topo.minimal_router_path(mid_router, dst_router)[1:]
        return path

    def _path_load(self, path: List[int]) -> float:
        """Flows currently crossing the path's inter-router links (congestion proxy)."""
        links = self._links
        load = 0
        for here, there in zip(path, path[1:]):
            link = links.get((here, there))
            if link is not None:
                load += len(link)
        return float(load)

    def _path_links(
        self, src_node: int, dst_node: int, path: List[int]
    ) -> List[_FlowLink]:
        """Bandwidth resources of a flow: injection, per-hop, ejection links."""
        links = [self._terminal_link(self._inj_links, src_node)]
        seen: Set[Tuple[int, int]] = set()
        for here, there in zip(path, path[1:]):
            key = (here, there)
            if key in seen:
                # A Valiant detour may revisit a link; charge one share there
                # (documented approximation) instead of double-counting the
                # flow in the fair-share denominator.
                continue
            seen.add(key)
            links.append(self._link(key))
        links.append(self._terminal_link(self._ej_links, dst_node))
        return links

    def _link(self, key: Tuple[int, int]) -> _FlowLink:
        link = self._links.get(key)
        if link is None:
            link = _FlowLink(self._capacity)
            self._links[key] = link
        return link

    def _terminal_link(self, links: List[Optional[_FlowLink]], node: int) -> _FlowLink:
        link = links[node]
        if link is None:
            link = links[node] = _FlowLink(self._capacity)
        return link

    def _minimal_route(
        self, src_router: int, dst_router: int
    ) -> Tuple[List[_FlowLink], float]:
        """Cached (inter-router links, latency) of one static minimal route."""
        key = src_router * self.topology.num_routers + dst_router
        route = self._minimal_routes.get(key)
        if route is None:
            path = self.topology.minimal_router_path(src_router, dst_router)
            # Minimal paths never revisit a link, so no dedup is needed here.
            links = [
                self._link((here, there)) for here, there in zip(path, path[1:])
            ]
            route = (links, self._path_latency(path))
            self._minimal_routes[key] = route
        return route

    def _path_latency(self, path: List[int]) -> float:
        """Fixed propagation offset of a path (terminal + per-hop latencies)."""
        system = self.config.system
        group_of = self.topology.group_of_router_table
        latency = 2.0 * system.terminal_latency_ns
        for here, there in zip(path, path[1:]):
            if group_of[here] == group_of[there]:
                latency += system.local_latency_ns
            else:
                latency += system.global_latency_ns
        return latency

    # ------------------------------------------------- event-driven solver
    def _mark_dirty(self) -> None:
        """Request a rate recomputation; same-timestamp changes batch into one."""
        if not self._dirty:
            self._dirty = True
            self.sim.schedule(0.0, self._recompute, kind=EventKind.GENERIC)

    def _recompute(self) -> None:
        if not self._dirty:
            return
        self._dirty = False
        self._advance_progress()
        self._settle_finished()
        self._compute_rates()
        self._schedule_next_finish()

    def _advance_progress(self) -> None:
        """Drain every active flow at its current rate up to ``sim.now``."""
        now = self.sim.now
        elapsed = now - self._progress_time
        if elapsed > 0:
            for flow in self._flows.values():
                if flow.rate > 0:
                    remaining = flow.remaining - flow.rate * elapsed
                    flow.remaining = remaining if remaining > 0.0 else 0.0
        self._progress_time = now

    def _settle_finished(self) -> None:
        """Retire every flow whose volume is fully transferred.

        Each link a finished flow crossed is compacted once, keeping its
        other flows in start order.
        """
        finished = [
            flow for flow in self._flows.values() if flow.remaining <= _EPS_BYTES
        ]
        self._changed.extend(finished)
        self._epoch += 1
        epoch = self._epoch
        for flow in finished:
            message = flow.message
            del self._flows[message.msg_id]
            for link in flow.links:
                if link.epoch != epoch:
                    link.epoch = epoch
                    link[:] = [other for other in link if other.remaining > _EPS_BYTES]
            message.inject_end_time = self.sim.now
            # The tail of the pipelined transfer arrives one path latency
            # after the last byte left the source.
            self.sim.schedule(
                flow.latency_ns, self._deliver, message, kind=EventKind.GENERIC
            )

    def _deliver(self, message: Message) -> None:
        message.deliver_time = self.sim.now
        self.stats.record_message_delivered(message)
        if self.on_message_delivered is not None:
            self.on_message_delivered(message)

    def _compute_rates(self) -> None:
        """Max-min fair rates of the flows that a start or finish can affect.

        Only the components holding a changed flow's links are reset and
        re-filled; a flow elsewhere shares no link with any change, so its
        max-min rate is the one it already has.
        """
        changed = self._changed
        if not changed:
            return
        self._changed = []
        self._epoch += 1
        self._fill(self._components(changed))

    def _components(self, seeds: List[_Flow]) -> List[_FlowLink]:
        """Reset and return every active link connected to a seed flow's links.

        Two links are connected when a flow crosses both; the search marks
        what it reaches with the current epoch instead of keeping a set.
        """
        epoch = self._epoch
        links: List[_FlowLink] = []
        for seed in seeds:
            for link in seed.links:
                if link and link.epoch != epoch:
                    link.epoch = epoch
                    links.append(link)
        # A breadth-first worklist: the loop also visits links appended to
        # ``links`` while it runs.
        for link in links:
            link.residual = link.capacity
            link.unfrozen = len(link)
            for flow in link:
                if flow.epoch != epoch:
                    flow.epoch = epoch
                    flow.frozen = False
                    for crossed in flow.links:
                        if crossed.epoch != epoch:
                            crossed.epoch = epoch
                            links.append(crossed)
        return links

    def _fill(self, links: List[_FlowLink]) -> None:
        """Progressive filling of ``links`` (reset) and the flows crossing them.

        Each round takes the most contended link's equal share, freezes
        **every** flow on **every** link within ``1e-12`` of it at that
        share, and subtracts.  Symmetric traffic (every link equally loaded)
        therefore resolves in one round, which is what makes 100k-endpoint
        scenarios cheap.

        Links wait in buckets of equal share ``residual / unfrozen`` on a
        heap (the sequence number keeps equal shares from comparing lists).
        A link's share changes only when a round freezes one of its flows;
        that round files it once more under its new share, and the entry
        under its old share is dropped when popped.  A round costs the
        buckets it pops and the links its frozen flows cross.

        Every flow frozen in a round gets the same share, so a link's
        residual is its capacity minus the rounds' shares in round order,
        whichever order the round visits links in: the rates are those of
        filling all links at once, restricted to these.
        """
        heap = [
            (share, seq, bucket)
            for seq, (share, bucket) in enumerate(_by_share(links).items())
        ]
        heapify(heap)
        seq = len(heap)
        epoch = self._epoch
        while heap:
            key, _, bucket = heappop(heap)
            bottlenecks = _current(bucket, key, [])
            if not bottlenecks:
                continue
            share = key if key > _MIN_RATE else _MIN_RATE
            threshold = share * (1.0 + 1e-12)
            while heap and heap[0][0] <= threshold:
                key, _, bucket = heappop(heap)
                _current(bucket, key, bottlenecks)
            # A round's epoch marks the links whose share it changes.
            epoch += 1
            touched: List[_FlowLink] = []
            for link in bottlenecks:
                for flow in link:
                    if flow.frozen:
                        continue
                    flow.frozen = True
                    flow.rate = share
                    for crossed in flow.links:
                        residual = crossed.residual - share
                        crossed.residual = residual if residual > 0.0 else 0.0
                        crossed.unfrozen -= 1
                        if crossed.epoch != epoch:
                            crossed.epoch = epoch
                            touched.append(crossed)
            # A bottleneck ends the round fully frozen; refile the rest.
            for level, bucket in _by_share(touched).items():
                heappush(heap, (level, seq, bucket))
                seq += 1
        self._epoch = epoch

    def _schedule_next_finish(self) -> None:
        """(Re)schedule the single event tracking the earliest flow completion."""
        if self._finish_handle is not None:
            self._finish_handle.cancel()
            self._finish_handle = None
        if not self._flows:
            return
        next_dt = min(
            flow.remaining / flow.rate for flow in self._flows.values()
        )
        self._finish_handle = self.sim.schedule(
            max(0.0, next_dt), self._on_finish_due, kind=EventKind.GENERIC
        )

    def _on_finish_due(self) -> None:
        self._finish_handle = None
        # Advancing to now brings the earliest flow(s) to zero remaining;
        # the dirty pass settles them and recomputes the survivors' rates.
        self._mark_dirty()

    # ------------------------------------------------------------ inspection
    @property
    def num_nodes(self) -> int:
        """Total compute nodes in the system."""
        return self.topology.num_nodes

    @property
    def active_flows(self) -> int:
        """Number of flows currently transferring."""
        return len(self._flows)

    def quiescent(self) -> bool:
        """True when no flow is in flight anywhere in the network."""
        return not self._flows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowNetwork(nodes={self.num_nodes}, "
            f"routing={self.config.routing.algorithm}, flows={len(self._flows)}, "
            f"now={self.sim.now:.0f}ns)"
        )
