"""Network-level counters: port stall time and per-link traffic."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.network.link import Link, LinkKind

__all__ = ["PortStallCounter", "LinkTrafficCounter"]

#: Key identifying one router output port.
PortKey = Tuple[int, int]
#: Key identifying one directed router-to-router link by its endpoints.
LinkKey = Tuple[int, int, int]


class PortStallCounter:
    """Accumulated head-of-queue stall time per router output port.

    Stall time is the paper's Fig. 11 metric: how long head packets waited on
    an output port (for the link or for downstream credits) before being
    forwarded.  Per-application attribution is kept so interference can be
    traced back to the application causing or suffering the stall.
    """

    def __init__(self) -> None:
        self._by_port: Dict[PortKey, float] = defaultdict(float)
        self._by_port_app: Dict[Tuple[int, int, int], float] = defaultdict(float)
        self._port_kind: Dict[PortKey, LinkKind] = {}

    def add(self, router_id: int, port: int, kind: LinkKind, stall_ns: float, app_id: int) -> None:
        """Charge ``stall_ns`` of blocking to ``(router, port)``."""
        if stall_ns < 0:
            raise ValueError("stall time cannot be negative")
        key = (router_id, port)
        self._by_port[key] += stall_ns
        self._by_port_app[(router_id, port, app_id)] += stall_ns
        self._port_kind[key] = kind

    def total(self, kind: LinkKind | None = None) -> float:
        """Total stall time, optionally restricted to one link class."""
        if kind is None:
            return float(sum(self._by_port.values()))
        return float(
            sum(v for k, v in self._by_port.items() if self._port_kind.get(k) == kind)
        )

    def by_port(self) -> Dict[PortKey, float]:
        """Copy of the per-port stall totals."""
        return dict(self._by_port)

    def by_router(self, kind: LinkKind | None = None) -> Dict[int, float]:
        """Stall time aggregated per router, optionally per link class."""
        out: Dict[int, float] = defaultdict(float)
        for (router, port), value in self._by_port.items():
            if kind is not None and self._port_kind.get((router, port)) != kind:
                continue
            out[router] += value
        return dict(out)

    def for_app(self, app_id: int) -> float:
        """Total stall time charged to packets of ``app_id``."""
        return float(sum(v for (_, _, a), v in self._by_port_app.items() if a == app_id))

    def port_kind(self, router_id: int, port: int) -> LinkKind | None:
        """Link class of a port that has recorded at least one stall."""
        return self._port_kind.get((router_id, port))


class LinkTrafficCounter:
    """Bytes carried per directed link, total and per application.

    A read-only view: every link counts its own bytes (``Link.bytes_carried``
    and ``Link.bytes_by_app``) and registers here when it carries its first
    packet of each application.  Links are listed in the order they first
    carried traffic, each application's links in the order they first
    carried that application's traffic.
    """

    def __init__(self) -> None:
        self._links: Dict[LinkKey, Link] = {}
        self._app_links: Dict[int, List[Link]] = {}

    def register(self, link: Link, app_id: int) -> None:
        """``link`` carried its first packet of ``app_id``."""
        self._links.setdefault(link.link_id, link)
        self._app_links.setdefault(app_id, []).append(link)

    def bytes_on(self, key: LinkKey) -> int:
        """Total bytes carried by one link."""
        link = self._links.get(key)
        return 0 if link is None else link.bytes_carried

    def by_link(self, kind: LinkKind | None = None) -> Dict[LinkKey, int]:
        """Per-link byte totals, optionally restricted to one link class."""
        links = self._links.items()
        return {k: link.bytes_carried for k, link in links if kind is None or link.kind == kind}

    def by_app(self, app_id: int) -> Dict[LinkKey, int]:
        """Per-link byte totals for one application."""
        links = self._app_links.get(app_id, ())
        return {link.link_id: link.bytes_by_app[app_id] for link in links}

    def total_bytes(self, kind: LinkKind | None = None) -> int:
        """Total bytes over all links of a class (or all links)."""
        return int(sum(self.by_link(kind).values()))

    def kind_of(self, key: LinkKey) -> LinkKind | None:
        """Link class of ``key`` if it has carried traffic."""
        link = self._links.get(key)
        return None if link is None else link.kind
