"""Fidelity selection: packet-level vs. flow-level simulation.

The simulator models the network at one of two *fidelities*, selected
per-run by ``SimulationConfig.fidelity``:

* ``"packet"`` (default) — the flit-timed packet-level simulation every
  paper result uses: NICs segment messages into packets, routers arbitrate
  per-packet with credit flow control, links serialize flits.
* ``"flow"`` — messages travel as *fluid flows* over the same
  :class:`~repro.network.topology.DragonflyTopology`: each flow gets a
  max-min fair share of the bandwidth of every link on its path
  (progressive filling), rates are recomputed event-driven whenever a flow
  starts or finishes, and the routing algorithm maps to path selection
  (see :class:`repro.flow.network.FlowNetwork`).  Per-packet effects
  (buffer occupancy, credit stalls, VC arbitration) are *not* modelled —
  flow results are approximations cross-validated against packet-level
  ones, traded for orders-of-magnitude scale (100k+ endpoints in seconds).

``resolve_fidelity`` validates and canonicalizes a name (used by
``SimulationConfig.__post_init__`` so typos fail at configuration time).  A
run executes at exactly ``config.fidelity``.  Fidelities are **not**
bit-equivalent: ``"flow"`` changes the numbers, so the fidelity is part of
the scenario description (hashed when non-default; the default is never
serialized, so every pre-existing scenario hash is byte-identical — see
docs/fidelity.md).

Both fidelities implement the :class:`Network` protocol and record into one
:class:`~repro.stats.collector.StatsCollector`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Protocol, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SimulationConfig
    from repro.core.engine import Simulator
    from repro.core.rng import RngRegistry
    from repro.network.packet import Message
    from repro.stats.collector import StatsCollector

__all__ = ["DEFAULT_FIDELITY", "FLOW_FIDELITY", "Network", "fidelity_names", "resolve_fidelity"]

#: The fidelity every run uses unless told otherwise.
DEFAULT_FIDELITY = "packet"
#: The flow-level fidelity name.
FLOW_FIDELITY = "flow"

_FIDELITY_NAMES: Tuple[str, ...] = (DEFAULT_FIDELITY, FLOW_FIDELITY)


def fidelity_names() -> Tuple[str, ...]:
    """Every registered fidelity name, default first."""
    return _FIDELITY_NAMES


def resolve_fidelity(name: str) -> str:
    """Canonical fidelity name for ``name`` (case-insensitive).

    Raises ``ValueError`` naming the valid fidelities on an unknown name —
    the error ``SimulationConfig.__post_init__`` re-raises with field
    context, so a typo fails at configuration time.
    """
    canonical = str(name).strip().lower()
    if canonical not in _FIDELITY_NAMES:
        raise ValueError(
            f"unknown simulation fidelity {name!r}; "
            f"valid fidelities: {', '.join(_FIDELITY_NAMES)}"
        )
    return canonical


class Network(Protocol):
    """The surface of a simulated network that the layers above it use.

    :class:`repro.network.network.DragonflyNetwork` (packet fidelity) and
    :class:`repro.flow.network.FlowNetwork` (flow fidelity) both implement
    it; :class:`repro.mpi.engine.MpiEngine` and the experiment runner use
    nothing else of a network.
    """

    sim: Simulator
    config: SimulationConfig
    rng: RngRegistry
    stats: StatsCollector
    #: The one delivery callback: called with every delivered message (set
    #: by the MPI engine, which dispatches on the message's ``kind`` and its
    #: protocol ``payload``, an envelope the network never reads).
    on_message_delivered: Optional[Callable[[Message], None]]

    @property
    def num_nodes(self) -> int:
        """Total compute nodes in the system."""

    def send_message(self, message: Message) -> Message:
        """Inject ``message``; :attr:`on_message_delivered` gets it once it has arrived."""

    def quiescent(self) -> bool:
        """True when nothing is in flight anywhere in the network."""
