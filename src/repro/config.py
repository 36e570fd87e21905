"""Configuration dataclasses for the Dragonfly simulator.

Three configuration layers are used throughout the library:

* :class:`SystemConfig` — the hardware: Dragonfly shape, link speeds, buffer
  depths, packet/flit sizes.  ``paper_system()`` reproduces the 1,056-node
  system of the SC22 paper; ``small_system()`` and ``tiny_system()`` are
  scaled-down shapes used by tests and benchmarks so pure-Python runs stay
  tractable.
* :class:`RoutingConfig` — which routing algorithm to use and its
  hyperparameters (UGAL bias, candidate counts, Q-adaptive learning rate…).
* :class:`SimulationConfig` — experiment-level knobs: seed, statistics
  sampling period, eager/rendezvous threshold, time limits.

All times are nanoseconds, all sizes bytes, all bandwidths bytes per
nanosecond (1 GB/s == 1 byte/ns; 200 Gb/s == 25 B/ns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Optional

__all__ = [
    "GB_PER_MS",
    "GBPS_TO_BYTES_PER_NS",
    "RoutingConfig",
    "SimulationConfig",
    "SystemConfig",
    "paper_system",
    "small_system",
    "tiny_system",
]

#: Multiply a Gb/s figure by this to get bytes/ns.
GBPS_TO_BYTES_PER_NS = 1.0 / 8.0
#: One GB/ms expressed in bytes/ns (useful when reporting throughput).
GB_PER_MS = 1e9 / 1e6  # bytes per ns


@dataclass(frozen=True)
class SystemConfig:
    """Shape and speeds of a Dragonfly system.

    The canonical Dragonfly of the paper (and of Kim et al. 2008) is described
    by three integers:

    * ``routers_per_group`` (``a``) — routers in each fully-connected group,
    * ``nodes_per_router`` (``p``) — compute nodes attached to each router,
    * ``num_groups`` (``g``) — number of groups, fully connected by global
      links.

    Each router therefore has ``p`` terminal ports, ``a - 1`` local ports and
    ``h = (g - 1) / a`` global ports.  ``(g - 1)`` must be divisible by ``a``
    so every router carries the same number of global links.
    """

    num_groups: int = 33
    routers_per_group: int = 8
    nodes_per_router: int = 4

    #: Link bandwidth in Gb/s (Slingshot-class links in the paper).
    link_bandwidth_gbps: float = 200.0
    #: Per-flit propagation latency of a local (intra-group) link, ns.
    local_latency_ns: float = 30.0
    #: Per-flit propagation latency of a global (inter-group) link, ns.
    global_latency_ns: float = 300.0
    #: Injection/ejection (terminal) link latency, ns.
    terminal_latency_ns: float = 10.0

    #: Packet payload size in bytes.
    packet_size_bytes: int = 512
    #: Flit size in bytes (packets are split into flits for timing purposes).
    flit_size_bytes: int = 128
    #: Input-buffer depth per (port, VC) in packets.
    buffer_packets: int = 30
    #: Number of virtual channels.  Deadlock avoidance assigns VC = hop index,
    #: so this must cover the longest allowed path (7 router-to-router hops for
    #: a PAR-revised non-minimal route) plus the injection VC.
    num_vcs: int = 8

    # ------------------------------------------------------------ validation
    def __post_init__(self) -> None:
        if self.num_groups < 2:
            raise ValueError("a Dragonfly needs at least two groups")
        if self.routers_per_group < 1 or self.nodes_per_router < 1:
            raise ValueError("routers_per_group and nodes_per_router must be positive")
        if (self.num_groups - 1) % self.routers_per_group != 0:
            raise ValueError(
                "num_groups - 1 must be divisible by routers_per_group so every "
                f"router has the same number of global links (got g={self.num_groups}, "
                f"a={self.routers_per_group})"
            )
        if self.packet_size_bytes % self.flit_size_bytes != 0:
            raise ValueError("packet size must be a whole number of flits")
        if self.num_vcs < 3:
            raise ValueError("at least 3 VCs are required for deadlock-free minimal routing")
        if self.buffer_packets < 1:
            raise ValueError("buffer capacity must be at least one packet")

    # ------------------------------------------------------------ derived
    @property
    def global_links_per_router(self) -> int:
        """Number of global ports per router (``h``)."""
        return (self.num_groups - 1) // self.routers_per_group

    @property
    def local_links_per_router(self) -> int:
        """Number of local ports per router (``a - 1``)."""
        return self.routers_per_group - 1

    @property
    def ports_per_router(self) -> int:
        """Total ports per router: terminal + local + global."""
        return self.nodes_per_router + self.local_links_per_router + self.global_links_per_router

    @property
    def num_routers(self) -> int:
        """Total routers in the system."""
        return self.num_groups * self.routers_per_group

    @property
    def num_nodes(self) -> int:
        """Total compute nodes in the system."""
        return self.num_routers * self.nodes_per_router

    @property
    def nodes_per_group(self) -> int:
        """Compute nodes per group."""
        return self.routers_per_group * self.nodes_per_router

    @property
    def flits_per_packet(self) -> int:
        """Flits per maximum-size packet."""
        return self.packet_size_bytes // self.flit_size_bytes

    @property
    def link_bandwidth_bytes_per_ns(self) -> float:
        """Link bandwidth converted to bytes/ns."""
        return self.link_bandwidth_gbps * GBPS_TO_BYTES_PER_NS

    @property
    def packet_serialization_ns(self) -> float:
        """Time to serialize one maximum-size packet onto a link."""
        return self.packet_size_bytes / self.link_bandwidth_bytes_per_ns

    def scaled(self, **overrides: Any) -> "SystemConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **overrides)


def paper_system() -> SystemConfig:
    """The 1,056-node system evaluated in the paper (33 groups × 8 × 4)."""
    return SystemConfig(num_groups=33, routers_per_group=8, nodes_per_router=4)


def small_system() -> SystemConfig:
    """A 72-node Dragonfly (9 groups × 4 routers × 2 nodes).

    This is the default shape for benchmarks: large enough for non-trivial
    path diversity (each router has 2 global links), small enough that a
    pure-Python flit-timing simulation finishes in seconds.
    """
    return SystemConfig(num_groups=9, routers_per_group=4, nodes_per_router=2)


def tiny_system() -> SystemConfig:
    """A 36-node Dragonfly (5 groups × 4 routers, 2 nodes) for unit tests."""
    return SystemConfig(num_groups=5, routers_per_group=4, nodes_per_router=2)


@dataclass(frozen=True)
class RoutingConfig:
    """Routing algorithm selection and hyperparameters.

    ``algorithm`` is one of ``"minimal"``, ``"valiant"``, ``"ugal-g"``,
    ``"ugal-n"``, ``"par"``, ``"q-adaptive"`` (see
    :func:`repro.routing.create_routing`).
    """

    algorithm: str = "ugal-g"

    #: Number of minimal path candidates sampled by adaptive algorithms.
    #: (``algorithm`` is validated and canonicalized — aliases like ``"ugal"``
    #: become ``"ugal-g"`` — at construction time; see ``__post_init__``.)
    minimal_candidates: int = 2
    #: Number of non-minimal (Valiant) candidates sampled.
    nonminimal_candidates: int = 2
    #: Additive bias (in packets) favouring the minimal path; the paper uses 0.
    ugal_bias: float = 0.0
    #: Multiplier on the non-minimal queue estimate (2 ≈ hop-count ratio).
    nonminimal_weight: float = 2.0

    # ---------------------------------------------------------- Q-adaptive
    #: Learning rate (alpha) of the Q-value update.
    q_learning_rate: float = 0.2
    #: Exploration probability (epsilon-greedy over the candidate set).
    q_exploration: float = 0.02
    #: Initial (optimistic) Q-value in nanoseconds.
    q_initial_value: float = 0.0
    #: Weight of the instantaneous local queue delay added to the Q estimate.
    q_queue_weight: float = 1.0

    def __post_init__(self) -> None:
        # Validate the algorithm name against the routing registry right here,
        # so a typo fails at configuration time with the list of valid names
        # instead of exploding deep inside network construction.  The import
        # is deferred because repro.routing itself imports this module.
        from repro.routing import resolve_algorithm

        object.__setattr__(self, "algorithm", resolve_algorithm(self.algorithm))
        if self.minimal_candidates < 1:
            raise ValueError("need at least one minimal candidate")
        if self.nonminimal_candidates < 0:
            raise ValueError("nonminimal_candidates must be non-negative")
        if not 0.0 < self.q_learning_rate <= 1.0:
            raise ValueError("q_learning_rate must be in (0, 1]")
        if not 0.0 <= self.q_exploration <= 1.0:
            raise ValueError("q_exploration must be in [0, 1]")


@dataclass(frozen=True)
class SimulationConfig:
    """Experiment-level configuration."""

    system: SystemConfig = field(default_factory=small_system)
    routing: RoutingConfig = field(default_factory=RoutingConfig)

    #: Master seed for every random stream of this run.
    seed: int = 1

    #: Messages up to this size use the eager protocol; larger ones rendezvous.
    eager_threshold_bytes: int = 4096
    #: Fixed software/NIC overhead added to each message send, ns.
    message_overhead_ns: float = 200.0

    #: Statistics time-series bin width, ns (0.1 ms).
    stats_bin_ns: float = 100_000.0
    #: Keep every per-packet record (needed for latency distributions).
    record_packets: bool = True

    #: Hard stop for the simulation clock, ns (None = run to completion).
    max_time_ns: Optional[float] = None
    #: Hard stop on the number of fired events (safety valve for tests).
    #: It counts calendar events actually fired.  Credit returns and
    #: link-free callbacks nobody waits on are reserved slots, not events
    #: (see :mod:`repro.core.engine`), so a packet run fires 33–60% fewer
    #: events than a kernel that made each of them an event.
    max_events: Optional[int] = None

    # ------------------------------------------------- steady-state windows
    #: Warmup period, ns: statistics recorded before this time (cold Q-tables,
    #: empty buffers) are kept in a separate warmup bucket and excluded from
    #: every measurement-window metric.  0.0 = no warmup (the historical
    #: whole-run accounting).
    warmup_ns: float = 0.0
    #: Length of the measurement window, ns.  When set, the run *terminates*
    #: at ``warmup_ns + measurement_ns`` instead of waiting for every rank to
    #: finish — the steady-state mode offered-load (continuous-injection)
    #: workloads require.  ``None`` = run to completion as before.
    measurement_ns: Optional[float] = None

    #: Simulation fidelity: how faithfully the network is modelled.
    #: ``"packet"`` (default) is the flit-timed packet-level simulation the
    #: paper's results use; ``"flow"`` models messages as fluid flows with
    #: max-min fair-share link bandwidth (see :mod:`repro.flow`), trading
    #: per-packet detail for orders-of-magnitude scale.  Flow-level results
    #: are approximations cross-validated against packet-level ones.  The
    #: fidelity is hashed/serialized only when non-default, so existing
    #: scenario hashes are untouched.
    fidelity: str = "packet"

    def __post_init__(self) -> None:
        # Validate (and canonicalize) the fidelity name at construction time,
        # mirroring RoutingConfig.algorithm: a typo fails right here naming
        # the field and the valid choices, not deep inside a run.
        from repro.flow import resolve_fidelity

        try:
            object.__setattr__(self, "fidelity", resolve_fidelity(self.fidelity))
        except ValueError as exc:
            raise ValueError(f"SimulationConfig.fidelity: {exc}") from None
        if not (math.isfinite(self.warmup_ns) and self.warmup_ns >= 0):
            raise ValueError(
                f"warmup_ns must be finite and non-negative, got {self.warmup_ns!r}"
            )
        if self.measurement_ns is not None and not (
            math.isfinite(self.measurement_ns) and self.measurement_ns > 0
        ):
            raise ValueError(
                "measurement_ns must be finite and positive (a zero-length "
                f"measurement window measures nothing), got {self.measurement_ns!r}"
            )

    # ------------------------------------------------------- window helpers
    @property
    def windowed(self) -> bool:
        """Whether warmup/measurement windows are configured for this run."""
        return self.warmup_ns > 0 or self.measurement_ns is not None

    @property
    def window_end_ns(self) -> Optional[float]:
        """Absolute time the measurement window closes (None = no cutoff)."""
        if self.measurement_ns is None:
            return None
        return self.warmup_ns + self.measurement_ns

    def with_window(
        self,
        warmup_ns: Optional[float] = None,
        measurement_ns: Optional[float] = None,
    ) -> "SimulationConfig":
        """Return a copy with the given window knobs (None = keep current).

        To clear an existing measurement cutoff, go through ``replace``
        explicitly — silently dropping a window is exactly the trap this
        helper avoids.
        """
        return replace(
            self,
            warmup_ns=warmup_ns if warmup_ns is not None else self.warmup_ns,
            measurement_ns=(
                measurement_ns if measurement_ns is not None else self.measurement_ns
            ),
        )

    def with_routing(self, algorithm: str, **kwargs: Any) -> "SimulationConfig":
        """Return a copy using ``algorithm`` (and optional routing overrides)."""
        return replace(self, routing=replace(self.routing, algorithm=algorithm, **kwargs))

    def with_system(self, system: SystemConfig) -> "SimulationConfig":
        """Return a copy using a different hardware configuration."""
        return replace(self, system=system)

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Return a copy with a different master seed."""
        return replace(self, seed=seed)

    def with_fidelity(self, fidelity: str) -> "SimulationConfig":
        """Return a copy pinned to a specific simulation fidelity."""
        return replace(self, fidelity=fidelity)
