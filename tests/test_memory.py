"""Memory guards: what one more rank costs at flow fidelity, what one more
router port and one more Q-table row cost at packet fidelity, and what one
more recorded packet and message cost the statistics collector.

Past the packet model's 1,056 nodes a run's memory is per-rank and
per-message bookkeeping (MPI requests and waits, envelopes, flows and the
links they cross), so the flow guard measures it per rank: the difference in
tracemalloc peak between a 2,000-rank and an 8,000-rank contiguous, minimal
flow shift on one 8,400-node system.  Everything that does not grow with
the rank count (topology tables, imports) cancels out.  The ranks quadruple
rather than double so that a table resized in steps (a set or dict keyed by
node or rank) lands in a larger size class and shows in the difference.

A packet network's memory before any traffic is its per-port state (input
FIFOs, credit trackers, links), so the packet guard measures the difference
in tracemalloc peak between building a 17x8x4 and the paper's 33x8x4
network, per router port.  Under Q-adaptive routing each router's table
then grows by one row per destination key it meets, so the Q-row guard
measures the tracemalloc bytes one more row holds on the paper's system.

Once traffic flows, the largest term that grows with it is the collector's
per-packet and per-message records, so the record guard measures the
tracemalloc bytes still held after feeding 2,000 and 20,000 packet+message
pairs through the collector's recording hooks, per pair.
"""

import gc
import tracemalloc

import pytest

from repro.config import SimulationConfig, SystemConfig, paper_system, tiny_system
from repro.core.engine import Simulator
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import Scenario
from repro.network.network import DragonflyNetwork
from repro.network.packet import Message, Packet
from repro.stats.collector import StatsCollector

#: Measured on CPython 3.11 (x86-64): 4,785 B/rank with a closure per wait,
#: a dict per flow link and a dict payload per message; 2,787 B/rank with a
#: single waiter per request, list-valued link flows and one envelope per
#: message; 2,311 B/rank once mailbox queues and nested-iteration lists are
#: made on first use, eager completions carry no bound method, terminal
#: links sit in per-node lists, a flow link is its own flow list and the
#: application record keeps one byte total and one start time; 2,253 B/rank
#: once a rank's context also holds its program's execution state.  Those
#: figures are over 2,000 -> 4,000 ranks; over 2,000 -> 8,000 ranks the same
#: code reads 2,262 B/rank, and 2,328 B/rank with a set of occupied nodes in
#: place of the engine's bytearray (over 2,000 -> 4,000 that set cost 0 B:
#: sets of 2,000 and 4,000 ints share one table size).  The bound sits above
#: 2,787 because CPython 3.10, also tested but not measured, keeps each
#: suspended generator's frame in a separate, larger object.
MAX_BYTES_PER_RANK = 3_000


def _traced_peak(ranks: int) -> int:
    system = SystemConfig(num_groups=21, routers_per_group=10, nodes_per_router=40)
    config = (
        SimulationConfig(system=system, seed=11).with_routing("minimal").with_fidelity("flow")
    )
    shift = AppSpec("shift", ranks, {"message_bytes": 4096, "iterations": 1})
    scenario = Scenario(
        name=f"shift-{ranks}", jobs=(shift,), config=config, placement="contiguous"
    )
    gc.collect()
    tracemalloc.start()
    try:
        assert scenario.run().completed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_flow_shift_bytes_per_rank_stay_bounded():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    _traced_peak(200)  # first-run imports and caches stay out of the difference
    per_rank = (_traced_peak(8_000) - _traced_peak(2_000)) / 6_000
    assert 0 < per_rank <= MAX_BYTES_PER_RANK, f"{per_rank:.0f} B per rank"


#: Measured on CPython 3.11 (x86-64): 7,957 B/port with one deque per
#: (port, VC) input FIFO and per output port's request queue (760 B each,
#: empty); 1,621 B/port with lists (56 B empty) made with the router;
#: 1,173 B/port with each input FIFO made on its first packet.  The bound
#: sits between the last two.
MAX_BYTES_PER_ROUTER_PORT = 1_400


def _network_peak(system: SystemConfig):
    """Tracemalloc peak of building the packet network, and its router ports."""
    config = SimulationConfig(system=system, seed=11)
    gc.collect()
    tracemalloc.start()
    try:
        topology = DragonflyNetwork(Simulator(), config).topology
        ports = topology.num_routers * topology.ports_per_router
        return tracemalloc.get_traced_memory()[1], ports
    finally:
        tracemalloc.stop()


def test_packet_network_bytes_per_router_port_stay_bounded():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    _network_peak(SystemConfig(num_groups=5, routers_per_group=4, nodes_per_router=2))
    small, small_ports = _network_peak(
        SystemConfig(num_groups=17, routers_per_group=8, nodes_per_router=4)
    )
    paper, paper_ports = _network_peak(paper_system())
    per_port = (paper - small) / (paper_ports - small_ports)
    assert 0 < per_port <= MAX_BYTES_PER_ROUTER_PORT, f"{per_port:.0f} B per router port"


#: Measured on CPython 3.11 (x86-64): 591 B per 15-port row as a list of
#: float objects (24 B each) and 351 B as an ``array("d")``, the dict entry
#: and the ``("g", g)`` key included.  The bound sits between.
MAX_BYTES_PER_Q_ROW = 480


def _retained_by_q_rows(network: DragonflyNetwork, router_id: int, count: int) -> int:
    """Tracemalloc bytes held by ``count`` new rows of one router's Q-table."""
    table = network.routing.table_for(network.routers[router_id])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for group in range(count):
            table.row(("g", group))
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_qtable_bytes_per_row_stay_bounded():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    config = SimulationConfig(system=paper_system(), seed=11).with_routing("q-adaptive")
    network = DragonflyNetwork(Simulator(), config)
    _retained_by_q_rows(network, 0, 100)  # one-time allocations stay out of either probe
    per_row = (
        _retained_by_q_rows(network, 2, 6_000) - _retained_by_q_rows(network, 1, 2_000)
    ) / 4_000
    assert 0 < per_row <= MAX_BYTES_PER_Q_ROW, f"{per_row:.0f} B per Q-table row"


#: Measured on CPython 3.11 (x86-64): 298 B per packet+message with a
#: frozen-dataclass record per packet and a tuple per message listed twice
#: (each holding its own time floats); 67 B with typed columns (36 B of
#: packet fields, 28 B of message fields, the rest the arrays' growth
#: headroom).  The bound sits between.
MAX_BYTES_PER_RECORD = 96


def _retained_by_records(count: int) -> int:
    """Tracemalloc bytes held after recording ``count`` packets and messages."""
    message = Message(0, 1, 4096)
    packet = Packet(message, 0, 4096, flit_size=64)
    packet.hop_count = 3
    stats = StatsCollector(Simulator(), SimulationConfig(system=tiny_system()))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(count):
            packet.inject_time = float(i)
            packet.eject_time = i + 500.0
            message.create_time = float(i)
            stats.record_packet_ejected(None, packet)
            stats.record_message_delivered(message)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_packet_and_message_records_bytes_stay_bounded():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    _retained_by_records(100)
    per_record = (_retained_by_records(20_000) - _retained_by_records(2_000)) / 18_000
    assert 0 < per_record <= MAX_BYTES_PER_RECORD, f"{per_record:.0f} B per packet+message"
