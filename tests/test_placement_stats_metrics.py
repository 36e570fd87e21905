"""Tests for placement policies, statistics containers and the metrics layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimulationConfig, tiny_system
from repro.core.engine import Simulator
from repro.metrics.interference import InterferenceSummary, interference_summary
from repro.metrics.latency import LatencySummary
from repro.network.buffers import CreditTracker
from repro.network.link import Link, LinkKind
from repro.network.packet import Message, Packet
from repro.placement import ContiguousPlacement, NodeAllocator, RandomPlacement, create_placement
from repro.stats.appstats import ApplicationRecord
from repro.stats.collector import StatsCollector
from repro.stats.counters import PortStallCounter
from repro.stats.timeseries import BinnedSeries


# ---------------------------------------------------------------- placement
def test_random_placement_samples_without_replacement():
    rng = np.random.default_rng(0)
    nodes = RandomPlacement().select(10, list(range(30)), rng)
    assert len(nodes) == 10
    assert len(set(nodes)) == 10
    assert all(0 <= n < 30 for n in nodes)


def test_contiguous_placement_takes_lowest_free_nodes():
    rng = np.random.default_rng(0)
    nodes = ContiguousPlacement().select(4, [9, 3, 7, 5, 11, 4], rng)
    assert nodes == [3, 4, 5, 7]


def test_placement_rejects_oversubscription():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        RandomPlacement().select(5, [1, 2, 3], rng)
    with pytest.raises(ValueError):
        create_placement("torus")


def test_allocator_tracks_and_releases_jobs():
    allocator = NodeAllocator(16)
    rng = np.random.default_rng(1)
    first = allocator.allocate("a", 6, RandomPlacement(), rng)
    second = allocator.allocate("b", 6, RandomPlacement(), rng)
    assert not set(first) & set(second)
    assert allocator.utilization() == pytest.approx(12 / 16)
    with pytest.raises(ValueError):
        allocator.allocate("a", 2, RandomPlacement(), rng)
    with pytest.raises(ValueError):
        allocator.allocate("c", 10, RandomPlacement(), rng)
    allocator.release("a")
    assert allocator.utilization() == pytest.approx(6 / 16)
    with pytest.raises(KeyError):
        allocator.release("a")


# --------------------------------------------------------------- timeseries
def test_binned_series_sums_and_rates():
    series = BinnedSeries(10.0)
    series.add(1.0, 100.0)
    series.add(9.0, 50.0)
    series.add(25.0, 30.0)
    times, sums = series.sums()
    assert times.tolist() == [5.0, 15.0, 25.0]
    assert sums.tolist() == [150.0, 0.0, 30.0]
    _, rates = series.rates(per=1.0)
    assert rates[0] == pytest.approx(15.0)
    assert series.total() == pytest.approx(180.0)
    assert series.num_bins == 3


def test_binned_series_means_handle_empty_bins():
    series = BinnedSeries(5.0)
    assert series.empty
    series.add(2.0, 10.0)
    series.add(2.5, 30.0)
    series.add(12.0, 50.0)
    _, means = series.means()
    assert means.tolist() == [20.0, 0.0, 50.0]


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_property_binned_series_conserves_total(values):
    series = BinnedSeries(1000.0)
    for time, value in values:
        series.add(time, value)
    assert series.total() == pytest.approx(sum(v for _, v in values), rel=1e-9)
    _, sums = series.sums()
    assert float(sums.sum()) == pytest.approx(series.total(), rel=1e-9)


# ----------------------------------------------------------------- counters
def test_port_stall_counter_aggregations():
    counter = PortStallCounter()
    counter.add(1, 3, LinkKind.LOCAL, 100.0, app_id=0)
    counter.add(1, 3, LinkKind.LOCAL, 50.0, app_id=1)
    counter.add(2, 7, LinkKind.GLOBAL, 30.0, app_id=0)
    assert counter.total() == pytest.approx(180.0)
    assert counter.total(LinkKind.LOCAL) == pytest.approx(150.0)
    assert counter.by_router()[1] == pytest.approx(150.0)
    assert counter.for_app(0) == pytest.approx(130.0)
    assert counter.port_kind(2, 7) == LinkKind.GLOBAL
    with pytest.raises(ValueError):
        counter.add(0, 0, LinkKind.LOCAL, -1.0, 0)


class _Endpoint:
    """Upstream/downstream stub: the link only needs these two calls."""

    def __init__(self, sim):
        self.tracker = CreditTracker(sim, 1, 1)

    def output_state(self, port):
        return self.tracker, ()

    def receive_packet(self, port, packet):
        pass


def test_link_traffic_counter_per_app_attribution():
    sim = Simulator()
    collector = StatsCollector(sim, SimulationConfig(system=tiny_system()))
    end = _Endpoint(sim)

    def link(kind, key):
        return Link(sim, end, 0, end, 0, kind, 25.0, 10.0, 128, stats=collector, link_id=key)

    glob, local = link(LinkKind.GLOBAL, ("R", 0, 5)), link(LinkKind.LOCAL, ("R", 3, 2))
    unnamed = link(LinkKind.LOCAL, None)  # no id: counted on the link, not listed
    for carrier, size, app_id in ((glob, 512, 1), (local, 256, 0), (glob, 512, 0),
                                  (unnamed, 128, 0)):
        carrier.transmit(Message(0, 1, size, app_id=app_id).segment(512, 128)[0])
        sim.run()
    counter = collector.link_traffic
    assert counter.bytes_on(("R", 0, 5)) == glob.bytes_carried == 1024
    assert counter.bytes_on(("R", 9, 9)) == 0
    assert counter.total_bytes() == 1280
    assert counter.total_bytes(LinkKind.GLOBAL) == 1024
    # Links in the order they first carried traffic, per app likewise.
    assert list(counter.by_link().items()) == [(("R", 0, 5), 1024), (("R", 3, 2), 256)]
    assert list(counter.by_app(0).items()) == [(("R", 3, 2), 256), (("R", 0, 5), 512)]
    assert counter.by_app(1) == {("R", 0, 5): 512} and counter.by_app(2) == {}
    assert counter.kind_of(("R", 3, 2)) == LinkKind.LOCAL
    assert counter.kind_of(("R", 9, 9)) is None
    assert unnamed.bytes_by_app == {0: 128}


# ---------------------------------------------------------------- collector
def test_collector_registers_applications_and_summarizes():
    config = SimulationConfig(system=tiny_system())
    sim = Simulator()
    collector = StatsCollector(sim, config)
    record = ApplicationRecord(app_id=0, name="X", num_ranks=2)
    collector.register_application(record)
    assert 0 in collector.ejected_bytes
    summary = collector.summary()
    assert summary["packets_injected"] == 0
    assert "X" == summary["applications"][0]["name"]


def test_collector_summary_now_ns_reports_last_event_time():
    """Regression: run(until=...) idles the clock forward to the watchdog
    bound when the calendar drains early; summary()'s now_ns must report the
    last *event* (the convention metrics/congestion.py follows), not the
    idled-out clock."""
    from repro.experiments.configs import AppSpec
    from repro.experiments.scenario import Scenario

    config = SimulationConfig(
        system=tiny_system(), seed=5, max_time_ns=1e12
    ).with_routing("minimal")
    result = Scenario("test/UR", (AppSpec("UR", 4, {"scale": 0.2}),), config).run()
    assert result.sim.now == 1e12  # the clock idled out to the watchdog...
    summary = result.stats.summary()
    assert summary["now_ns"] == result.sim.last_event_time  # ...now_ns did not
    assert summary["now_ns"] < 1e9


def test_port_stall_on_unwired_port_attributed_by_topology():
    """Regression: stalls on ports with no out-link were silently classified
    LOCAL, polluting the local-stall breakdown — the topology knows a
    terminal port is terminal whether or not the link is wired yet."""
    from repro.network.router import Router
    from repro.network.topology import DragonflyTopology, PortKind

    config = SimulationConfig(system=tiny_system())
    sim = Simulator()
    collector = StatsCollector(sim, config)
    topology = DragonflyTopology(config.system)
    router = Router(sim, topology, config, router_id=0, stats=collector)

    terminal_port = next(
        p for p in range(topology.ports_per_router)
        if topology.port_kind(p) == PortKind.TERMINAL
    )
    local_port = next(
        p for p in range(topology.ports_per_router)
        if topology.port_kind(p) == PortKind.LOCAL
    )
    collector.record_port_stall(router, terminal_port, 40.0, app_id=0)
    collector.record_port_stall(router, local_port, 25.0, app_id=0)
    assert collector.port_stall.total(LinkKind.TERMINAL) == pytest.approx(40.0)
    assert collector.port_stall.total(LinkKind.LOCAL) == pytest.approx(25.0)
    assert collector.port_stall.port_kind(0, terminal_port) == LinkKind.TERMINAL


# --------------------------------------------------------------- app record
def test_application_record_statistics():
    record = ApplicationRecord(app_id=1, name="demo", num_ranks=3)
    record.start_time = 0.0
    for rank, value in enumerate([10.0, 20.0, 30.0]):
        record.add_comm_time(rank, value)
        record.add_compute_time(rank, 5.0)
        record.record_send(1000)
        record.finish_time[rank] = 100.0 + rank
    assert record.finished
    assert record.mean_comm_time == pytest.approx(20.0)
    assert record.std_comm_time == pytest.approx(np.std([10.0, 20.0, 30.0]))
    assert record.execution_time == pytest.approx(102.0)
    assert record.total_bytes_sent == 3000
    assert record.summary()["finished"]


# ------------------------------------------------------------------ metrics
def test_interference_summary_percentages():
    baseline = ApplicationRecord(app_id=0, name="A", num_ranks=2)
    interfered = ApplicationRecord(app_id=0, name="A", num_ranks=2)
    for rank in range(2):
        baseline.add_comm_time(rank, 100.0)
        interfered.add_comm_time(rank, 150.0 + rank * 20)
    summary = interference_summary(baseline, interfered)
    assert summary.slowdown == pytest.approx(1.6)
    assert summary.comm_time_increase == pytest.approx(0.6)
    assert summary.variation > 0
    assert summary.as_dict()["app"] == "A"
    with pytest.raises(ValueError):
        interference_summary(baseline, ApplicationRecord(app_id=0, name="B", num_ranks=2))


def test_latency_summary_percentiles_ordering():
    config = SimulationConfig(system=tiny_system())
    collector = StatsCollector(Simulator(), config)
    message = Message(0, 1, 512)
    rng = np.random.default_rng(0)
    for latency in rng.exponential(1000.0, size=500):
        packet = Packet(message, 0, 512, flit_size=64)
        packet.inject_time, packet.eject_time, packet.hop_count = 0.0, float(latency), 3
        collector.record_packet_ejected(None, packet)
    from repro.metrics.latency import latency_summary

    summary = latency_summary(collector)
    assert summary.count == 500
    assert summary.p25 <= summary.median <= summary.p75 <= summary.p95 <= summary.p99 <= summary.maximum
    assert summary.tail_dispersion >= 1.0
    empty = latency_summary(collector, app_id=42)
    assert empty.count == 0 and empty.mean == 0.0
