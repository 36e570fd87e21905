"""The collector's columnar records read back exactly as row-by-row records.

``StatsCollector`` keeps per-packet and per-message records as typed columns
and answers its four latency queries with array masks.  These tests hold the
queries to a row-by-row reference: the rows its ``packet_records`` and
``message_log`` views return, filtered with ``in_measurement`` one row at a
time, must give the same latencies bit for bit and in the same order.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig, tiny_system
from repro.core.engine import Simulator
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import Scenario
from repro.network.packet import Message, Packet
from repro.stats.appstats import ApplicationRecord
from repro.stats.collector import StatsCollector

#: An application id no run registers.
UNKNOWN_APP = 99


def _assert_same(got: np.ndarray, expected: list) -> None:
    """Bit-for-bit, in order: dtype, length and every float's bytes."""
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(expected, dtype=np.float64).tobytes()


def _assert_queries_match_rows(stats: StatsCollector, deliveries: list) -> None:
    """Check the four latency queries against ``in_measurement`` row filters.

    ``deliveries`` lists every delivered message as (app, create, deliver,
    size) in delivery order, as observed at the recording hook.
    """
    rows = stats.packet_records
    for app_id in [None, *stats.applications, UNKNOWN_APP]:
        ours = [r for r in rows if app_id is None or r.app_id == app_id]
        _assert_same(stats.packet_latencies(app_id), [r.latency for r in ours])
        _assert_same(
            stats.measurement_packet_latencies(app_id),
            [r.latency for r in ours if stats.in_measurement(r.eject_time)],
        )
    log = stats.message_log
    first_seen = dict.fromkeys(app for app, *_ in deliveries)
    unregistered = [app for app in first_seen if app not in stats.applications]
    assert list(log) == [*stats.applications, *unregistered]
    for app_id, entries in log.items():
        assert entries == [(c, d, s) for app, c, d, s in deliveries if app == app_id]
    _assert_same(stats.message_latencies(), [d - c for _, c, d, _ in deliveries])
    _assert_same(
        stats.measurement_message_latencies(),
        [d - c for _, c, d, _ in deliveries if stats.in_measurement(d)],
    )


@pytest.fixture
def deliveries(monkeypatch):
    """Every message delivery any collector records, in delivery order."""
    seen = []
    record = StatsCollector.record_message_delivered

    def spy(self, message):
        record(self, message)
        seen.append((message.app_id, message.create_time, self.sim.now, message.size_bytes))

    monkeypatch.setattr(StatsCollector, "record_message_delivered", spy)
    return seen


def _two_job_scenario(fidelity: str, windowed: bool, record_packets: bool = True) -> Scenario:
    window = {"warmup_ns": 5_000.0, "measurement_ns": 10_000.0} if windowed else {}
    config = SimulationConfig(
        system=tiny_system(), seed=3, record_packets=record_packets, **window
    ).with_routing("par").with_fidelity(fidelity)
    # A windowed run needs an open-loop job to fill its window.
    first = AppSpec("shift", 5, {"offered_load": 0.3} if windowed else {"iterations": 3})
    late = AppSpec("UR", 4, {"iterations": 3, "scale": 0.3}, 2_500.0)
    return Scenario(name="records", jobs=(first, late), config=config)


@pytest.mark.parametrize("windowed", [False, True], ids=["open", "windowed"])
@pytest.mark.parametrize("fidelity", ["packet", "flow"])
def test_latency_queries_match_row_by_row_reference(fidelity, windowed, deliveries):
    result = _two_job_scenario(fidelity, windowed).run()
    stats = result.stats
    assert result.completed and len(stats.applications) == 2
    assert len(deliveries) == stats.total_messages_delivered > 0
    if fidelity == "packet":
        assert len(stats.packet_records) == stats.total_packets_ejected > 0
    else:
        assert stats.packet_records == []
    if windowed:
        measured = stats.measurement_message_latencies().size
        assert 0 < measured < stats.total_messages_delivered
    _assert_queries_match_rows(stats, deliveries)


def test_unrecorded_packets_leave_message_records_intact(deliveries):
    stats = _two_job_scenario("packet", windowed=True, record_packets=False).run().stats
    assert stats.total_packets_ejected > 0 and stats.packet_records == []
    _assert_queries_match_rows(stats, deliveries)


def test_records_exactly_at_the_window_bounds(deliveries):
    """Ejections and deliveries at warmup_ns and at the window end count."""
    config = SimulationConfig(system=tiny_system(), warmup_ns=100.0, measurement_ns=400.0)
    sim = Simulator()
    stats = StatsCollector(sim, config)
    stats.register_application(ApplicationRecord(app_id=7, name="idle", num_ranks=1))
    times = [0.0, 99.99999999999999, 100.0, 250.0, 500.0, 500.0000000000001, 900.0]
    for i, now in enumerate(times):
        app = i % 2
        message = Message(app, app + 1, 100 + i, app_id=app, create_time=now / 3)
        packet = Packet(message, 0, message.size_bytes, flit_size=64)
        packet.inject_time, packet.hop_count = now / 7, i
        # A set eject_time is recorded as is; an unset one reads the clock.
        packet.eject_time = now if app else None
        sim.now = now + 1.0 if app else now
        held = stats.packet_latencies()  # a returned array never pins the columns
        stats.record_packet_ejected(None, packet)
        sim.now = now
        stats.record_message_delivered(message)
        assert held.size == i
    assert [r.eject_time for r in stats.packet_records] == times
    assert stats.message_log[7] == []
    assert [r.hops for r in stats.packet_records] == list(range(len(times)))
    assert stats.measurement_packet_latencies().size == 3  # 100, 250 and 500
    assert stats.measurement_message_latencies().size == 3
    assert stats.packet_latencies(UNKNOWN_APP).size == 0
    _assert_queries_match_rows(stats, deliveries)
