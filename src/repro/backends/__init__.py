"""The simulator's hot core as one bundle of component classes.

:class:`SimBackend` names the five classes that implement the per-event hot
core — the event calendar (:class:`~repro.core.engine.Simulator`), the
router grant/credit path (:class:`~repro.network.router.Router`), the NIC
injection/ejection path (:class:`~repro.network.nic.Nic`), the link timing
model (:class:`~repro.network.link.Link`) and the per-packet statistics hooks
(:class:`~repro.stats.collector.StatsCollector`).  There is one
implementation, :data:`REFERENCE_BACKEND`; the bundle lets construction
sites such as :class:`~repro.network.network.DragonflyNetwork` take the
classes as one argument.  ``tests/test_sim_digests.py`` pins its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple, Type

from repro.core.engine import Simulator
from repro.network.link import Link
from repro.network.nic import Nic
from repro.network.router import Router
from repro.stats.collector import StatsCollector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SimulationConfig

__all__ = ["REFERENCE_BACKEND", "SimBackend", "active_backend", "backend_names"]


@dataclass(frozen=True)
class SimBackend:
    """The component classes of the simulation hot core."""

    name: str
    simulator_cls: Type[Simulator]
    router_cls: Type[Router]
    nic_cls: Type[Nic]
    link_cls: Type[Link]
    stats_cls: Type[StatsCollector]

    def create_simulator(self, trace: bool = False) -> Simulator:
        """Build this backend's event calendar."""
        return self.simulator_cls(trace=trace)


REFERENCE_BACKEND = SimBackend(
    name="reference",
    simulator_cls=Simulator,
    router_cls=Router,
    nic_cls=Nic,
    link_cls=Link,
    stats_cls=StatsCollector,
)


def backend_names() -> Tuple[str, ...]:
    """Names of every available backend."""
    return (REFERENCE_BACKEND.name,)


def active_backend(config: "SimulationConfig") -> SimBackend:
    """The backend that runs ``config``: always :data:`REFERENCE_BACKEND`."""
    return REFERENCE_BACKEND
