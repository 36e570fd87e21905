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
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["DEFAULT_FIDELITY", "FLOW_FIDELITY", "fidelity_names", "resolve_fidelity"]

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

