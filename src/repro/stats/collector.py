"""Central statistics collector (the paper's enhanced "IO module").

Both fidelities report to one :class:`StatsCollector`; analysis code then
reads its counters, packet records and time series after (or during) the
run.  The message core (applications, message log, message counters and
latencies, measurement window) is recorded at either fidelity; packet
counters, binned series and stall accounting only at packet fidelity.
Delivered bytes count per ejected packet, or per delivered message at flow
fidelity, which has no packets.  To keep memory bounded for large runs,
per-packet records can be disabled (``SimulationConfig.record_packets =
False``), in which case only aggregate counters and binned series are kept
— mirroring the coalescing IO-module configuration described in Section III
of the paper.  Records are kept as typed columns (stdlib ``array``), not
objects: a recorded packet and a delivered message retain about 67 B
together (CPython 3.11), against 298 B as a ``PacketRecord`` and a message
tuple listed twice, each holding its own time floats.  ``packet_records``
and ``message_log`` build their rows from the columns on demand.

The collector is **measurement-window aware**: when the simulation config
declares a steady-state window (``warmup_ns``/``measurement_ns``), injection
and ejection counters are additionally split into a warmup bucket and a
measurement bucket, and the windowed summaries (accepted throughput,
measurement-window latency percentiles) are computed over the measurement
window only — warmup transients (cold Q-tables, empty buffers) never leak
into a reported steady-state metric.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.config import SimulationConfig
from repro.core.engine import Simulator
from repro.flow import DEFAULT_FIDELITY
from repro.network.link import LinkKind
from repro.network.packet import Message, Packet
from repro.stats.appstats import ApplicationRecord
from repro.stats.counters import LinkTrafficCounter, PortStallCounter
from repro.stats.timeseries import BinnedSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.nic import Nic
    from repro.network.router import Router

__all__ = ["PacketRecord", "StatsCollector"]


@dataclass(frozen=True)
class PacketRecord:
    """Immutable per-packet record kept for latency analysis."""

    app_id: int
    src_node: int
    dst_node: int
    size_bytes: int
    inject_time: float
    eject_time: float
    hops: int

    @property
    def latency(self) -> float:
        """Injection-to-ejection latency in ns."""
        return self.eject_time - self.inject_time


#: Typecode of each packet column, in ``PacketRecord`` field order.
_PACKET_TYPECODES = ("i", "i", "i", "i", "d", "d", "i")
#: Typecode of each message column: app, create, deliver and size.
_MESSAGE_TYPECODES = ("i", "d", "d", "q")


def _column(values: array) -> np.ndarray:
    """A numpy view of one column.

    While a view is alive the column cannot grow, so views never leave this
    module: every array the collector returns is computed from them.
    """
    return np.frombuffer(values, dtype=values.typecode)


class StatsCollector:
    """Accumulates application- and network-level metrics during a run."""

    def __init__(self, sim: Simulator, config: SimulationConfig):
        self.sim = sim
        self.config = config

        bin_ns = config.stats_bin_ns
        #: Per-application ejected (delivered) bytes over time.
        self.ejected_bytes: Dict[int, BinnedSeries] = {}
        #: Per-application injected bytes over time.
        self.injected_bytes: Dict[int, BinnedSeries] = {}
        #: System-wide delivered bytes over time.
        self.system_ejected_bytes = BinnedSeries(bin_ns)
        #: Per-application packet-latency samples over time (for Fig 7).
        self.latency_series: Dict[int, BinnedSeries] = {}

        self.port_stall = PortStallCounter()
        #: Per-link traffic: a view over the links, which count it themselves.
        self.link_traffic = LinkTrafficCounter()

        #: Per-packet records as columns in ejection order, one per
        #: ``PacketRecord`` field (only if ``config.record_packets``).
        self._packets: Tuple[array, ...] = tuple(array(t) for t in _PACKET_TYPECODES)
        #: Delivered messages as columns in delivery order: app, create,
        #: deliver and size.
        self._messages: Tuple[array, ...] = tuple(array(t) for t in _MESSAGE_TYPECODES)
        #: Per-application records registered by the workload layer.
        self.applications: Dict[int, ApplicationRecord] = {}

        #: Whether the run has packets (packet fidelity).  Without them,
        #: delivered bytes are counted per delivered message instead.
        self.has_packets: bool = config.fidelity == DEFAULT_FIDELITY
        self.total_packets_injected = 0
        self.total_packets_ejected = 0
        self.total_bytes_ejected = 0
        self.total_messages_injected = 0
        self.total_messages_delivered = 0
        #: Payload bytes of the injected messages.
        self.total_bytes_injected = 0
        self._bin_ns = bin_ns

        # ------------------------------------------- measurement window state
        #: Start of the measurement window (0.0 = no warmup).
        self.warmup_ns: float = config.warmup_ns
        #: End of the measurement window (None = open-ended).
        self.window_end_ns: Optional[float] = config.window_end_ns
        #: Whether warmup/measurement windows are configured for this run.
        self.windowed: bool = config.windowed
        #: Counters restricted to the measurement window.
        self.measured_packets_injected = 0
        self.measured_packets_ejected = 0
        self.measured_messages_injected = 0
        self.measured_messages_delivered = 0
        self.measured_bytes_ejected = 0

    # ----------------------------------------------------------- app setup
    def register_application(self, record: ApplicationRecord) -> None:
        """Register an application so its per-app series exist even if idle."""
        self.applications[record.app_id] = record
        self._app_series(self.ejected_bytes, record.app_id)
        self._app_series(self.injected_bytes, record.app_id)
        self._app_series(self.latency_series, record.app_id)

    def _app_series(self, table: Dict[int, BinnedSeries], app_id: int) -> BinnedSeries:
        series = table.get(app_id)
        if series is None:
            series = BinnedSeries(self._bin_ns)
            table[app_id] = series
        return series

    # ----------------------------------------------------------- windowing
    def in_measurement(self, time: float) -> bool:
        """Whether ``time`` falls inside the measurement window.

        The window is ``[warmup_ns, warmup_ns + measurement_ns]`` — events
        fired exactly at the closing bound (the run's termination instant)
        still count, matching ``Simulator.run(until=...)`` semantics.
        """
        if time < self.warmup_ns:
            return False
        return self.window_end_ns is None or time <= self.window_end_ns

    # -------------------------------------------------------- network hooks
    # reprolint: hot
    def record_packet_injected(self, nic: "Nic", packet: Packet) -> None:
        """A packet entered the network at ``nic``."""
        self.total_packets_injected += 1
        now = self.sim.now
        # `windowed` first: unwindowed runs (the common case, and the hot
        # path PR 1 optimized) pay one attribute check per packet, no more.
        if self.windowed and self.in_measurement(now):
            self.measured_packets_injected += 1
        self._app_series(self.injected_bytes, packet.app_id).add(now, packet.size_bytes)

    # reprolint: hot
    def record_packet_ejected(self, nic: "Nic", packet: Packet) -> None:
        """A packet reached its destination node."""
        size_bytes = packet.size_bytes
        app_id = packet.app_id
        self.total_packets_ejected += 1
        self.total_bytes_ejected += size_bytes
        now = self.sim.now
        if self.windowed and self.in_measurement(now):
            self.measured_packets_ejected += 1
            self.measured_bytes_ejected += size_bytes
        self._app_series(self.ejected_bytes, app_id).add(now, size_bytes)
        self.system_ejected_bytes.add(now, size_bytes)
        latency = packet.latency
        if latency is not None:
            self._app_series(self.latency_series, app_id).add(now, latency)
        inject_time = packet.inject_time
        if self.config.record_packets and inject_time is not None:
            app, src, dst, size, inject, eject, hops = self._packets
            app.append(app_id)
            src.append(packet.src_node)
            dst.append(packet.dst_node)
            size.append(size_bytes)
            inject.append(inject_time)
            eject_time = packet.eject_time
            eject.append(eject_time if eject_time is not None else now)
            hops.append(packet.hop_count)

    def record_message_injected(self, message: Message) -> None:
        """A message was handed to the network at its source node."""
        self.total_messages_injected += 1
        self.total_bytes_injected += message.size_bytes
        if self.windowed and self.in_measurement(self.sim.now):
            self.measured_messages_injected += 1

    def record_message_delivered(self, message: Message) -> None:
        """A full message reached its destination node."""
        now = self.sim.now
        size_bytes = message.size_bytes
        self.total_messages_delivered += 1
        measured = self.windowed and self.in_measurement(now)
        if measured:
            self.measured_messages_delivered += 1
        if not self.has_packets:
            self.total_bytes_ejected += size_bytes
            if measured:
                self.measured_bytes_ejected += size_bytes
        app, create, deliver, size = self._messages
        app.append(message.app_id)
        create.append(message.create_time)
        deliver.append(now)
        size.append(size_bytes)

    # reprolint: hot
    def record_port_stall(self, router: "Router", port: int, stall_ns: float, app_id: int) -> None:
        """Charge ``stall_ns`` > 0 of head-of-queue blocking to a router output port."""
        link = router.out_links[port]
        if link is not None:
            kind = link.kind
        else:
            # Unwired port (partially-constructed routers in unit tests):
            # derive the class from the topology instead of defaulting to
            # LOCAL, which silently polluted the local-stall breakdown with
            # terminal-port (ejection) stalls.
            kind = LinkKind[router.topology.port_kind(port).name]
        self.port_stall.add(router.router_id, port, kind, stall_ns, app_id)

    # ------------------------------------------------------------ records
    @property
    def packet_records(self) -> List[PacketRecord]:
        """Per-packet records in ejection order, built from the columns."""
        return [PacketRecord(*row) for row in zip(*self._packets)]

    @property
    def message_log(self) -> Dict[int, List[tuple]]:
        """Per-application (create, deliver, size) rows in delivery order.

        Built from the columns on each read; every registered application
        has an entry, even if it delivered nothing.
        """
        log: Dict[int, List[tuple]] = {app_id: [] for app_id in self.applications}
        app, *rows = self._messages
        for app_id, row in zip(app, zip(*rows)):
            log.setdefault(app_id, []).append(row)
        return log

    # ------------------------------------------------------------ summaries
    def _window_mask(self, times: np.ndarray) -> np.ndarray:
        """Which of ``times`` fall inside the window, as :meth:`in_measurement`."""
        mask = times >= self.warmup_ns
        if self.window_end_ns is not None:
            mask &= times <= self.window_end_ns
        return mask

    def _packet_latencies(self, app_id: Optional[int], measured: bool) -> np.ndarray:
        app, _, _, _, inject, eject, _ = self._packets
        ejected = _column(eject)
        latencies = ejected - _column(inject)
        mask = self._window_mask(ejected) if measured else None
        if app_id is not None:
            of_app = _column(app) == app_id
            mask = of_app if mask is None else mask & of_app
        return latencies if mask is None else latencies[mask]

    def packet_latencies(self, app_id: Optional[int] = None) -> np.ndarray:
        """Array of packet latencies (ns), optionally for one application."""
        return self._packet_latencies(app_id, measured=False)

    def measurement_packet_latencies(self, app_id: Optional[int] = None) -> np.ndarray:
        """Latencies of packets *ejected inside the measurement window* (ns).

        The steady-state complement of :meth:`packet_latencies`: packets that
        left the network during warmup are excluded, so latency percentiles
        describe the measured window only.
        """
        return self._packet_latencies(app_id, measured=True)

    def message_latencies(self) -> np.ndarray:
        """End-to-end (create to deliver) message latencies in delivery order, ns."""
        _, create, deliver, _ = self._messages
        return _column(deliver) - _column(create)

    def measurement_message_latencies(self) -> np.ndarray:
        """Latencies of messages *delivered inside the measurement window* (ns)."""
        _, create, deliver, _ = self._messages
        delivered = _column(deliver)
        return (delivered - _column(create))[self._window_mask(delivered)]

    @property
    def measurement_elapsed_ns(self) -> float:
        """Length of the *observed* measurement window, ns.

        The window opens at ``warmup_ns`` and closes at the earlier of the
        configured window end and the last fired event (a run that drained
        early was only observed until its last event).  Raises ``ValueError``
        when the window is empty — i.e. the run ended before the warmup did —
        because every metric normalized by it would be meaningless.
        """
        last = self.sim.last_event_time
        end = last if self.window_end_ns is None else min(self.window_end_ns, last)
        elapsed = end - self.warmup_ns
        if elapsed <= 0:
            raise ValueError(
                f"empty measurement window: the run ended at {last:.0f} ns but "
                f"warmup_ns={self.warmup_ns:.0f}; shorten the warmup or lengthen "
                "the workload"
            )
        return elapsed

    def measurement_summary(self) -> dict:
        """Window-restricted counters and rates (windowed runs only)."""
        elapsed = self.measurement_elapsed_ns
        window = {
            "warmup_ns": self.warmup_ns,
            "measurement_elapsed_ns": elapsed,
            "measured_messages_injected": self.measured_messages_injected,
            "measured_messages_delivered": self.measured_messages_delivered,
            "measured_bytes_ejected": self.measured_bytes_ejected,
            "accepted_throughput_bytes_per_ns": self.measured_bytes_ejected / elapsed,
        }
        if self.has_packets:
            window["measured_packets_injected"] = self.measured_packets_injected
            window["measured_packets_ejected"] = self.measured_packets_ejected
        return window

    def app_throughput_series(self, app_id: int) -> tuple:
        """(times, GB/ms) series of delivered bytes for one application.

        GB per millisecond is the unit used by the paper's throughput plots
        (Figs 5, 9, 13b).
        """
        times, rates = self._app_series(self.ejected_bytes, app_id).rates(per=1e6)
        return times, rates / 1e9

    def system_throughput_series(self) -> tuple:
        """(times, GB/ms) series of system-wide delivered bytes."""
        times, rates = self.system_ejected_bytes.rates(per=1e6)
        return times, rates / 1e9

    def summary(self) -> dict:
        """Coarse run summary for reports and sanity checks."""
        summary = {
            # Last fired event, not sim.now: run(until=...) idles the clock
            # forward to the watchdog bound even when the calendar drained
            # earlier, which would inflate now_ns on early-finishing runs
            # (the convention metrics/congestion.py already follows).
            "now_ns": self.sim.last_event_time,
            "fidelity": self.config.fidelity,
            "messages_injected": self.total_messages_injected,
            "messages_delivered": self.total_messages_delivered,
            "bytes_ejected": self.total_bytes_ejected,
            "applications": {a: r.summary() for a, r in self.applications.items()},
        }
        if self.has_packets:
            summary["packets_injected"] = self.total_packets_injected
            summary["packets_ejected"] = self.total_packets_ejected
            summary["total_port_stall_ns"] = self.port_stall.total()
        if self.windowed:
            summary["measurement"] = self.measurement_summary()
        return summary
