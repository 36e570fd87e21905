"""Dragonfly topology: port numbering, wiring and minimal-path computation.

The topology follows the canonical single-link Dragonfly of Kim et al. (2008)
and the paper: ``g`` groups of ``a`` fully-connected routers, each router
hosting ``p`` nodes and carrying ``h = (g-1)/a`` global links, with exactly one
global link between every pair of groups.

Port numbering per router (all port indices are local to the router):

* ``0 .. p-1``                      terminal ports (one per attached node)
* ``p .. p+a-2``                    local ports (to the other routers in group)
* ``p+a-1 .. p+a-1+h-1``            global ports

The wiring rule for global links: within group ``G``, order the other groups
``G' != G`` by their "relative index" ``k`` (``k = G'`` if ``G' < G`` else
``G' - 1``).  The ``k``-th global link of the group is carried by the router
with local index ``k // h`` on its global port ``k % h``.  Because both
endpoints apply the same rule the wiring is consistent and every group pair
gets exactly one link.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Tuple

from repro.config import SystemConfig

__all__ = ["DragonflyTopology", "PortKind", "Endpoint"]


class PortKind(enum.IntEnum):
    """Category of a router port."""

    TERMINAL = 0
    LOCAL = 1
    GLOBAL = 2


class Endpoint:
    """The remote end of a router port: either a node or another router."""

    __slots__ = ("is_node", "node", "router", "port")

    def __init__(self, is_node: bool, node: int = -1, router: int = -1, port: int = -1):
        self.is_node = is_node
        self.node = node
        self.router = router
        self.port = port

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_node:
            return f"Endpoint(node={self.node})"
        return f"Endpoint(router={self.router}, port={self.port})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Endpoint):
            return NotImplemented
        return (self.is_node, self.node, self.router, self.port) == (
            other.is_node,
            other.node,
            other.router,
            other.port,
        )


class DragonflyTopology:
    """Static description of a Dragonfly interconnect.

    All lookups are O(1).  In addition to the arithmetic helpers, the
    constructor precomputes flat lookup tables for every per-packet query on
    the simulation hot path (``router_of_node``, ``group_of_router``, the
    minimal first-hop port per ``(router, dst_router)``, the port towards any
    group, and the gateway per group pair).  Routers and routing algorithms
    index these tables directly instead of re-deriving the wiring arithmetic
    for every packet; the public methods keep their range validation and now
    read from the same tables.  Even the full 1,056-node system needs well
    under a megabyte of table space.
    """

    #: (router, dst_router) -> minimal first-hop port.  Declared here for
    #: typing; materialized lazily by __getattr__ on first access.
    minimal_port_table: List[List[int]]

    def __init__(self, config: SystemConfig):
        self.config = config
        self.num_groups = config.num_groups
        self.routers_per_group = config.routers_per_group
        self.nodes_per_router = config.nodes_per_router
        self.global_per_router = config.global_links_per_router
        self.num_routers = config.num_routers
        self.num_nodes = config.num_nodes

        p, a, h = self.nodes_per_router, self.routers_per_group, self.global_per_router
        self._first_local_port = p
        self._first_global_port = p + a - 1
        self._ports_per_router = p + (a - 1) + h
        self._build_tables()

    # ------------------------------------------------------------ flat tables
    def _build_tables(self) -> None:
        """Precompute the per-packet lookup tables used by the hot path."""
        p, a, h = self.nodes_per_router, self.routers_per_group, self.global_per_router
        num_r, num_n, num_g = self.num_routers, self.num_nodes, self.num_groups
        first_local, first_global = self._first_local_port, self._first_global_port

        #: node id -> hosting router id.
        self.router_of_node_table: List[int] = [n // p for n in range(num_n)]
        #: node id -> terminal port on its router.
        self.terminal_port_of_node_table: List[int] = [n % p for n in range(num_n)]
        #: router id -> group id.
        self.group_of_router_table: List[int] = [r // a for r in range(num_r)]
        #: node id -> group id.
        self.group_of_node_table: List[int] = [
            self.group_of_router_table[r] for r in self.router_of_node_table
        ]
        #: port index -> PortKind.
        self.port_kind_table: List[PortKind] = [
            PortKind.TERMINAL if port < first_local
            else PortKind.LOCAL if port < first_global
            else PortKind.GLOBAL
            for port in range(self._ports_per_router)
        ]
        latencies = (
            self.config.terminal_latency_ns,
            self.config.local_latency_ns,
            self.config.global_latency_ns,
        )
        #: port index -> propagation latency of the attached link (ns).
        self.link_latency_table: List[float] = [
            latencies[kind] for kind in self.port_kind_table
        ]

        #: (group, dst_group) -> (gateway router, global port); None on the diagonal.
        self.gateway_table: List[List[Optional[Tuple[int, int]]]] = []
        for g in range(num_g):
            row: List[Optional[Tuple[int, int]]] = []
            for dg in range(num_g):
                if dg == g:
                    row.append(None)
                else:
                    k = dg if dg < g else dg - 1
                    row.append((g * a + k // h, first_global + k % h))
            self.gateway_table.append(row)

        #: (router, dst_group) -> minimal-path port towards dst_group (-1 for own group).
        self.group_port_table: List[List[int]] = []
        for r in range(num_r):
            g, li = r // a, r % a
            row_ports = [-1] * num_g
            for dg in range(num_g):
                if dg == g:
                    continue
                gw, gport = self.gateway_table[g][dg]
                if gw == r:
                    row_ports[dg] = gport
                else:
                    lj = gw % a
                    row_ports[dg] = first_local + (lj if lj < li else lj - 1)
            self.group_port_table.append(row_ports)

        # minimal_port_table is O(R^2) — by far the largest table (a 2,020-
        # router flow-mode system would need ~4M entries it never reads), so
        # it is built lazily on first attribute access; see __getattr__.

    def _build_minimal_port_table(self) -> List[List[int]]:
        """(router, dst_router) -> minimal first-hop port (-1 on the diagonal)."""
        a = self.routers_per_group
        num_r = self.num_routers
        first_local = self._first_local_port
        table: List[List[int]] = []
        for r in range(num_r):
            g, li = r // a, r % a
            group_ports = self.group_port_table[r]
            row_min = [-1] * num_r
            for dr in range(num_r):
                if dr == r:
                    continue
                dg = dr // a
                if dg == g:
                    lj = dr % a
                    row_min[dr] = first_local + (lj if lj < li else lj - 1)
                else:
                    row_min[dr] = group_ports[dg]
            table.append(row_min)
        return table

    def __getattr__(self, name: str) -> "List[List[int]]":
        # Lazy O(R^2) table: built on first access, then cached as a plain
        # instance attribute so the per-packet hot path (routing/base.py)
        # keeps its direct attribute read with zero property overhead.
        if name == "minimal_port_table":
            table = self._build_minimal_port_table()
            self.minimal_port_table = table
            return table
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------ id helpers
    @property
    def ports_per_router(self) -> int:
        """Total number of ports on every router."""
        return self._ports_per_router

    def router_of_node(self, node: int) -> int:
        """Router id hosting ``node``."""
        self._check_node(node)
        return self.router_of_node_table[node]

    def terminal_port_of_node(self, node: int) -> int:
        """Terminal port index of ``node`` on its router."""
        self._check_node(node)
        return self.terminal_port_of_node_table[node]

    def node_at(self, router: int, terminal_port: int) -> int:
        """Node attached to ``terminal_port`` of ``router``."""
        self._check_router(router)
        if not 0 <= terminal_port < self.nodes_per_router:
            raise ValueError(f"terminal port {terminal_port} out of range")
        return router * self.nodes_per_router + terminal_port

    def group_of_router(self, router: int) -> int:
        """Group id of ``router``."""
        self._check_router(router)
        return self.group_of_router_table[router]

    def group_of_node(self, node: int) -> int:
        """Group id hosting ``node``."""
        self._check_node(node)
        return self.group_of_node_table[node]

    def local_index(self, router: int) -> int:
        """Index of ``router`` within its group (0 .. a-1)."""
        self._check_router(router)
        return router % self.routers_per_group

    def router_in_group(self, group: int, local_index: int) -> int:
        """Global router id of the ``local_index``-th router of ``group``."""
        self._check_group(group)
        if not 0 <= local_index < self.routers_per_group:
            raise ValueError(f"local index {local_index} out of range")
        return group * self.routers_per_group + local_index

    def nodes_of_group(self, group: int) -> range:
        """Range of node ids hosted by ``group``."""
        self._check_group(group)
        per_group = self.routers_per_group * self.nodes_per_router
        return range(group * per_group, (group + 1) * per_group)

    def routers_of_group(self, group: int) -> range:
        """Range of router ids in ``group``."""
        self._check_group(group)
        return range(group * self.routers_per_group, (group + 1) * self.routers_per_group)

    # ------------------------------------------------------------ port kinds
    def port_kind(self, port: int) -> PortKind:
        """Classify a port index as terminal, local or global."""
        if not 0 <= port < self._ports_per_router:
            raise ValueError(f"port {port} out of range (0..{self._ports_per_router - 1})")
        return self.port_kind_table[port]

    def terminal_ports(self) -> range:
        """All terminal port indices."""
        return range(0, self._first_local_port)

    def local_ports(self) -> range:
        """All local port indices."""
        return range(self._first_local_port, self._first_global_port)

    def global_ports(self) -> range:
        """All global port indices."""
        return range(self._first_global_port, self._ports_per_router)

    # --------------------------------------------------------------- wiring
    def local_port_to(self, router: int, peer_router: int) -> int:
        """Local port of ``router`` that connects directly to ``peer_router``.

        Both routers must be in the same group and distinct.
        """
        if self.group_of_router(router) != self.group_of_router(peer_router):
            raise ValueError("local_port_to requires routers in the same group")
        li, lj = self.local_index(router), self.local_index(peer_router)
        if li == lj:
            raise ValueError("a router has no local port to itself")
        offset = lj if lj < li else lj - 1
        return self._first_local_port + offset

    def local_peer(self, router: int, local_port: int) -> int:
        """Router reached through ``local_port`` of ``router``."""
        if self.port_kind(local_port) != PortKind.LOCAL:
            raise ValueError(f"port {local_port} is not a local port")
        li = self.local_index(router)
        offset = local_port - self._first_local_port
        peer_local = offset if offset < li else offset + 1
        return self.router_in_group(self.group_of_router(router), peer_local)

    def gateway_router(self, group: int, dst_group: int) -> Tuple[int, int]:
        """Router and global port in ``group`` holding the link to ``dst_group``."""
        self._check_group(group)
        self._check_group(dst_group)
        entry = self.gateway_table[group][dst_group]
        if entry is None:
            raise ValueError("a group has no global link to itself")
        return entry

    def global_port_to_group(self, router: int, dst_group: int) -> int:
        """Global port of ``router`` leading to ``dst_group``.

        Raises ``ValueError`` if this router does not carry that link.
        """
        gw_router, gw_port = self.gateway_router(self.group_of_router(router), dst_group)
        if gw_router != router:
            raise ValueError(
                f"router {router} has no global link to group {dst_group}; "
                f"the gateway is router {gw_router}"
            )
        return gw_port

    def global_peer(self, router: int, global_port: int) -> Tuple[int, int]:
        """(router, port) at the far end of ``global_port`` of ``router``."""
        if self.port_kind(global_port) != PortKind.GLOBAL:
            raise ValueError(f"port {global_port} is not a global port")
        group = self.group_of_router(router)
        k = (
            self.local_index(router) * self.global_per_router
            + (global_port - self._first_global_port)
        )
        dst_group = k if k < group else k + 1
        peer_router, peer_port = self.gateway_router(dst_group, group)
        return peer_router, peer_port

    def group_reached_by_global_port(self, router: int, global_port: int) -> int:
        """Group reached through ``global_port`` of ``router``."""
        peer_router, _ = self.global_peer(router, global_port)
        return self.group_of_router(peer_router)

    def neighbor(self, router: int, port: int) -> Endpoint:
        """Remote endpoint (node or router+port) of ``port`` on ``router``."""
        kind = self.port_kind(port)
        if kind == PortKind.TERMINAL:
            return Endpoint(True, node=self.node_at(router, port))
        if kind == PortKind.LOCAL:
            peer = self.local_peer(router, port)
            return Endpoint(False, router=peer, port=self.local_port_to(peer, router))
        peer_router, peer_port = self.global_peer(router, port)
        return Endpoint(False, router=peer_router, port=peer_port)

    def link_latency(self, port: int) -> float:
        """Propagation latency (ns) of the link attached to ``port``."""
        if not 0 <= port < self._ports_per_router:
            raise ValueError(f"port {port} out of range (0..{self._ports_per_router - 1})")
        return self.link_latency_table[port]

    # ------------------------------------------------------------- paths
    def minimal_router_path(self, src_router: int, dst_router: int) -> List[int]:
        """Ordered router ids on the minimal path (inclusive of endpoints).

        Minimal Dragonfly paths have at most three router-to-router hops:
        local hop to the source-group gateway, global hop, local hop to the
        destination router.  Read straight from the flat tables: the flow
        model calls this for every adaptive message.
        """
        num_routers = self.num_routers
        if not (0 <= src_router < num_routers and 0 <= dst_router < num_routers):
            self._check_router(src_router)
            self._check_router(dst_router)
        if src_router == dst_router:
            return [src_router]
        group_of = self.group_of_router_table
        src_group = group_of[src_router]
        dst_group = group_of[dst_router]
        if src_group == dst_group:
            return [src_router, dst_router]
        src_entry = self.gateway_table[src_group][dst_group]
        dst_entry = self.gateway_table[dst_group][src_group]
        # Off the diagonal (the groups differ), both entries are set.
        assert src_entry is not None and dst_entry is not None
        gw_src = src_entry[0]
        gw_dst = dst_entry[0]
        # The two gateways sit in different groups, so the global hop is
        # always there; the local hops are skipped when already in place.
        path = [src_router] if gw_src == src_router else [src_router, gw_src]
        path.append(gw_dst)
        if dst_router != gw_dst:
            path.append(dst_router)
        return path

    def minimal_hops(self, src_node: int, dst_node: int) -> int:
        """Number of router-to-router hops on the minimal path between nodes."""
        src_router = self.router_of_node(src_node)
        dst_router = self.router_of_node(dst_node)
        return len(self.minimal_router_path(src_router, dst_router)) - 1

    def zero_load_latency(self, src_node: int, dst_node: int) -> float:
        """Propagation-only latency between two nodes along the minimal path.

        Useful as the optimistic initial value for Q-adaptive tables.
        """
        if src_node == dst_node:
            return 0.0
        src_router = self.router_of_node(src_node)
        dst_router = self.router_of_node(dst_node)
        path = self.minimal_router_path(src_router, dst_router)
        latency = 2 * self.config.terminal_latency_ns
        for here, there in zip(path, path[1:]):
            if self.group_of_router(here) == self.group_of_router(there):
                latency += self.config.local_latency_ns
            else:
                latency += self.config.global_latency_ns
        return latency

    def all_links(self) -> Iterator[Tuple[int, int]]:
        """Iterate over every (router, port) pair that carries a router link."""
        for router in range(self.num_routers):
            for port in range(self._first_local_port, self._ports_per_router):
                yield router, port

    # ------------------------------------------------------------ validation
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range (0..{self.num_nodes - 1})")

    def _check_router(self, router: int) -> None:
        if not 0 <= router < self.num_routers:
            raise ValueError(f"router {router} out of range (0..{self.num_routers - 1})")

    def _check_group(self, group: int) -> None:
        if not 0 <= group < self.num_groups:
            raise ValueError(f"group {group} out of range (0..{self.num_groups - 1})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DragonflyTopology(groups={self.num_groups}, routers/group="
            f"{self.routers_per_group}, nodes/router={self.nodes_per_router})"
        )
