"""Tests of the MPI layer: matching, protocols, collectives, accounting."""

import pytest

from repro.config import SimulationConfig, tiny_system
from repro.core.engine import Simulator
from repro.mpi.collectives import tree_children, tree_parent
from repro.mpi.engine import MpiEngine
from repro.flow.network import FlowNetwork
from repro.mpi.message import ANY_SOURCE, ANY_TAG, Envelope, MailBox, RecvRequest, Rendezvous
from repro.network.network import DragonflyNetwork
from repro.network.packet import MessageKind
from repro.traces.recorder import TraceRecorder


def _engine(seed=1, eager_threshold=4096, fidelity="packet"):
    config = SimulationConfig(system=tiny_system(), seed=seed, eager_threshold_bytes=eager_threshold)
    sim = Simulator()
    config = config.with_routing("par").with_fidelity(fidelity)
    network_cls = FlowNetwork if fidelity == "flow" else DragonflyNetwork
    network = network_cls(sim, config)
    return sim, network, MpiEngine(network)


class _Program:
    """Application stub built from a dict rank -> generator function."""

    def __init__(self, programs):
        self.programs = programs

    def program(self, ctx):
        return self.programs[ctx.rank](ctx)


def _run(engine):
    engine.run()
    assert engine.all_finished
    return engine


# ------------------------------------------------------------- matching
def test_envelope_matching_with_wildcards():
    envelope = Envelope(src_rank=3, dst_rank=0, tag=7, size_bytes=100)
    assert envelope.matches(3, 7)
    assert envelope.matches(ANY_SOURCE, 7)
    assert envelope.matches(3, ANY_TAG)
    assert not envelope.matches(2, 7)
    assert not envelope.matches(3, 8)


def test_mailbox_matches_posted_receives_in_fifo_order():
    mailbox = MailBox()
    first = RecvRequest(0, ANY_SOURCE, ANY_TAG)
    second = RecvRequest(0, ANY_SOURCE, ANY_TAG)
    assert mailbox.post(first) is None
    assert mailbox.post(second) is None
    envelope = Envelope(1, 0, 5, 64)
    assert mailbox.match_arrival(envelope) is first
    assert mailbox.match_arrival(envelope) is second
    assert mailbox.match_arrival(envelope) is None


def test_mailbox_unexpected_queue_round_trip():
    mailbox = MailBox()
    envelope = Envelope(1, 0, 5, 64)
    mailbox.store_unexpected(envelope)
    request = RecvRequest(0, 1, 5)
    matched = mailbox.post(request)
    assert matched is envelope
    assert mailbox.pending == 0


# ------------------------------------------------------------- protocols
@pytest.mark.parametrize("size,label", [(1024, "eager"), (64 * 1024, "rendezvous")])
def test_blocking_send_recv_round_trip(size, label):
    sim, network, engine = _engine()
    outcome = {}

    def sender(ctx):
        yield ctx.send(1, size, tag=3)
        outcome["send_done"] = ctx.now

    def receiver(ctx):
        yield ctx.recv(0, tag=3)
        outcome["recv_done"] = ctx.now

    engine.add_job("pair", [0, 5], application=_Program({0: sender, 1: receiver}))
    _run(engine)
    assert outcome["recv_done"] > 0
    assert network.stats.total_packets_ejected > 0
    # The receiver can only complete after real network transit.
    assert outcome["recv_done"] >= network.topology.zero_load_latency(0, 5)


def test_recv_posted_before_and_after_arrival_both_complete():
    sim, network, engine = _engine()

    def early_receiver(ctx):
        # Posts the receive before the sender even starts.
        yield ctx.recv(1, tag=1)
        yield ctx.send(1, 256, tag=2)

    def late_sender(ctx):
        yield ctx.compute(5_000)
        yield ctx.send(0, 256, tag=1)
        # Its own receive is posted long after the message arrives.
        yield ctx.compute(20_000)
        yield ctx.recv(0, tag=2)

    engine.add_job("pair", [0, 9], application=_Program({0: early_receiver, 1: late_sender}))
    _run(engine)


def test_wildcard_receive_matches_any_sender():
    sim, network, engine = _engine()
    received = []

    def worker(ctx):
        yield ctx.send(0, 512, tag=ctx.rank)

    def master(ctx):
        for _ in range(2):
            yield ctx.recv(ANY_SOURCE, tag=ANY_TAG)
            received.append(ctx.now)

    engine.add_job(
        "gather", [0, 4, 8], application=_Program({0: master, 1: worker, 2: worker})
    )
    _run(engine)
    assert len(received) == 2


def test_self_send_completes_without_network_traffic():
    sim, network, engine = _engine()

    def loopback(ctx):
        req_send = ctx.isend(0, 2048, tag=1)
        req_recv = ctx.irecv(0, tag=1)
        yield ctx.waitall([req_send, req_recv])

    engine.add_job("solo", [3], application=_Program({0: loopback}))
    _run(engine)
    assert network.stats.total_packets_injected == 0


@pytest.mark.parametrize("dst", [0, 1], ids=["loopback", "eager"])
def test_eager_send_completes_one_message_overhead_after_it_is_issued(dst):
    """An eager or loopback send completes, and its waiting rank resumes,
    one software overhead after the isend; a loopback's receive too."""
    sim, network, engine = _engine()
    overhead = network.config.message_overhead_ns
    requests = {}
    resumed = []

    def sender(ctx):
        requests["send"] = ctx.isend(dst, 256, tag=1)
        if dst == 0:
            requests["recv"] = ctx.irecv(0, tag=1)
        yield ctx.wait(requests["send"])
        resumed.append(ctx.now)

    def receiver(ctx):
        yield ctx.recv(0, tag=1)

    programs = {0: sender, 1: receiver}
    engine.add_job("pair", [0, 5][: dst + 1], application=_Program(programs))
    _run(engine)
    assert overhead > 0
    assert requests["send"].completion_time == overhead
    assert resumed == [overhead]
    if dst == 0:
        assert requests["recv"].completion_time == overhead


def test_zero_time_compute_advances_nothing_and_is_not_recorded():
    sim, network, engine = _engine()
    recorded = []

    class Recorder(TraceRecorder):
        def record_compute(self, job, rank, duration_ns, t_ns):
            recorded.append(duration_ns)
            super().record_compute(job, rank, duration_ns, t_ns)

    engine.recorder = Recorder()
    resumed = []

    def program(ctx):
        yield ctx.compute(0)
        resumed.append(ctx.now)

    job = engine.add_job("solo", [3], application=_Program({0: program}))
    _run(engine)
    assert resumed == [0.0]
    assert sim.now == 0.0 and sim.events_fired == 0
    assert job.record.compute_time == {}
    assert recorded == []


def test_nested_iterations_end_innermost_first():
    sim, network, engine = _engine()

    def program(ctx):
        ctx.begin_iteration(0)
        yield ctx.compute(100)
        ctx.begin_iteration(1)
        yield ctx.compute(200)
        ctx.begin_iteration(2)
        yield ctx.compute(300)
        ctx.end_iteration()
        ctx.end_iteration()
        yield ctx.compute(400)
        ctx.end_iteration()
        with pytest.raises(RuntimeError, match="without begin_iteration"):
            ctx.end_iteration()

    job = engine.add_job("solo", [3], application=_Program({0: program}))
    _run(engine)
    spans = [(r.iteration, r.start_time, r.end_time) for r in job.record.iterations]
    assert spans == [(0, 0.0, 1000.0), (1, 100.0, 600.0), (2, 300.0, 600.0)]


def test_nonblocking_overlap_hides_communication_behind_compute():
    _, _, engine_overlap = _engine()
    _, _, engine_serial = _engine()
    size = 128 * 1024
    compute = 200_000.0

    def overlap_sender(ctx):
        request = ctx.isend(1, size, tag=1)
        yield ctx.compute(compute)
        yield ctx.wait(request)

    def serial_sender(ctx):
        yield ctx.send(1, size, tag=1)
        yield ctx.compute(compute)

    def receiver(ctx):
        yield ctx.recv(0, tag=1)

    engine_overlap.add_job("o", [0, 8], application=_Program({0: overlap_sender, 1: receiver}))
    engine_serial.add_job("s", [0, 8], application=_Program({0: serial_sender, 1: receiver}))
    _run(engine_overlap)
    _run(engine_serial)
    overlap_comm = engine_overlap.jobs[0].record.comm_time.get(0, 0.0)
    serial_comm = engine_serial.jobs[0].record.comm_time.get(0, 0.0)
    # Overlapping the rendezvous behind compute must hide most of the wait.
    assert overlap_comm < serial_comm


def test_comm_and_compute_time_accounting():
    sim, network, engine = _engine()

    def program(ctx):
        yield ctx.compute(10_000)
        yield ctx.send(1, 32 * 1024, tag=1)

    def receiver(ctx):
        yield ctx.recv(0, tag=1)

    job = engine.add_job("acct", [0, 6], application=_Program({0: program, 1: receiver}))
    _run(engine)
    assert job.record.compute_time[0] == pytest.approx(10_000)
    assert job.record.comm_time[0] > 0
    assert job.record.comm_time[1] > 0
    assert job.record.finish_time[0] >= 10_000
    assert job.record.total_bytes_sent == 32 * 1024


@pytest.mark.parametrize("fidelity", ["packet", "flow"])
def test_rendezvous_completes_sender_then_receiver_at_data_delivery(fidelity):
    sim, network, engine = _engine(fidelity=fidelity)
    delivered = []
    engine_callback = network.on_message_delivered

    def observe(message):
        delivered.append((message.kind, message.payload, sim.now))
        engine_callback(message)

    network.on_message_delivered = observe
    requests = {}
    resumed = []

    def sender(ctx):
        requests["send"] = ctx.isend(1, 64 * 1024, tag=4)
        yield ctx.wait(requests["send"])
        resumed.append(("send", ctx.now))

    def receiver(ctx):
        requests["recv"] = ctx.irecv(0, tag=4)
        yield ctx.wait(requests["recv"])
        resumed.append(("recv", ctx.now))

    engine.add_job("pair", [0, 5], application=_Program({0: sender, 1: receiver}))
    _run(engine)
    assert [kind for kind, _, _ in delivered] == [
        MessageKind.RTS,
        MessageKind.CTS,
        MessageKind.DATA,
    ]
    # One rendezvous envelope rides on all three messages.
    rendezvous = delivered[0][1]
    assert isinstance(rendezvous, Rendezvous)
    assert all(payload is rendezvous for _, payload, _ in delivered)
    assert rendezvous.recv_request is requests["recv"]
    data_time = delivered[-1][2]
    assert requests["send"].completion_time == data_time
    assert requests["recv"].completion_time == data_time
    # Each completion resumes its rank at once: the sender's comes first.
    assert resumed == [("send", data_time), ("recv", data_time)]


# ------------------------------------------------------------------ waits
def test_waitall_listing_a_request_twice_resumes_the_rank_once():
    sim, network, engine = _engine()
    resumed = []

    def receiver(ctx):
        request = ctx.irecv(1, tag=0)
        yield ctx.waitall([request, request])
        resumed.append(ctx.now)
        yield ctx.recv(1, tag=1)
        resumed.append(ctx.now)

    def sender(ctx):
        yield ctx.send(0, 256, tag=0)
        yield ctx.compute(50_000)
        yield ctx.send(0, 256, tag=1)

    job = engine.add_job("pair", [0, 5], application=_Program({0: receiver, 1: sender}))
    _run(engine)
    # A second resume would run the program past its second wait at once.
    first, second = resumed
    assert 0 < first < 50_000 < second
    # Both waits started when the previous one ended: blocked the whole time.
    assert job.record.comm_time[0] == pytest.approx(second)


def test_wait_over_completed_and_pending_requests_resumes_at_the_last_completion():
    sim, network, engine = _engine()
    outcome = {}

    def waiter(ctx):
        done = ctx.isend(1, 256, tag=0)
        early = ctx.irecv(1, tag=1)
        late = ctx.irecv(1, tag=2)
        yield ctx.compute(10_000)
        outcome["done_before_wait"] = done.completed
        outcome["early_before_wait"] = early.completed
        yield ctx.waitall([done, late, early])
        outcome.update(resumed=ctx.now, early=early.completion_time, late=late.completion_time)

    def peer(ctx):
        yield ctx.recv(0, tag=0)
        yield ctx.compute(20_000)
        yield ctx.send(0, 256, tag=1)
        yield ctx.compute(20_000)
        yield ctx.send(0, 256, tag=2)

    job = engine.add_job("pair", [0, 5], application=_Program({0: waiter, 1: peer}))
    _run(engine)
    assert outcome["done_before_wait"] and not outcome["early_before_wait"]
    assert 10_000 < outcome["early"] < outcome["late"] == outcome["resumed"]
    assert job.record.comm_time[0] == pytest.approx(outcome["late"] - 10_000)


def test_waiting_on_another_ranks_pending_request_is_refused():
    sim, network, engine = _engine()
    shared = {}

    def owner(ctx):
        shared["request"] = ctx.isend(1, 64 * 1024, tag=0)
        yield ctx.wait(shared["request"])

    def intruder(ctx):
        yield ctx.wait(shared["request"])

    engine.add_job("pair", [0, 5], application=_Program({0: owner, 1: intruder}))
    with pytest.raises(RuntimeError, match="already waited on by another rank"):
        engine.run()


# ------------------------------------------------------------ collectives
def test_binary_tree_structure_helpers():
    assert tree_parent(0) is None
    assert tree_parent(1) == 0 and tree_parent(2) == 0
    assert tree_children(0, 6) == [1, 2]
    assert tree_children(2, 6) == [5]
    assert tree_children(5, 6) == []


@pytest.mark.parametrize("collective", ["barrier", "allreduce", "alltoall", "allgather"])
def test_collectives_complete_for_all_ranks(collective):
    sim, network, engine = _engine()
    ranks = 6

    def program(ctx):
        if collective == "barrier":
            yield from ctx.barrier()
        elif collective == "allreduce":
            yield from ctx.allreduce(16 * 1024)
        elif collective == "alltoall":
            yield from ctx.alltoall(2 * 1024)
        else:
            yield from ctx.allgather(4 * 1024)

    nodes = [i * 4 for i in range(ranks)]
    job = engine.add_job("coll", nodes, application=_Program({r: program for r in range(ranks)}))
    _run(engine)
    assert len(job.record.finish_time) == ranks
    assert network.quiescent()


def test_subgroup_collectives_do_not_interfere():
    sim, network, engine = _engine()

    def program(ctx):
        group = [0, 1, 2] if ctx.rank < 3 else [3, 4, 5]
        yield from ctx.allreduce(8 * 1024, group=group)

    nodes = [0, 2, 4, 8, 10, 12]
    engine.add_job("sub", nodes, application=_Program({r: program for r in range(6)}))
    _run(engine)


def test_reduce_and_broadcast_move_expected_volume():
    sim, network, engine = _engine()
    size = 8 * 1024
    ranks = 4

    def program(ctx):
        yield from ctx.reduce(size)
        yield from ctx.broadcast(size)

    nodes = [0, 4, 8, 12]
    job = engine.add_job("rb", nodes, application=_Program({r: program for r in range(ranks)}))
    _run(engine)
    # Reduce: every non-root sends once. Broadcast: every non-leaf sends to its
    # children. Total payload = 2 * (ranks - 1) * size.
    assert job.record.total_bytes_sent == 2 * (ranks - 1) * size


def test_add_job_rejects_overlapping_or_invalid_nodes():
    sim, network, engine = _engine()
    engine.add_job("a", [0, 1], application=_Program({0: None, 1: None}))
    with pytest.raises(ValueError):
        engine.add_job("b", [1, 2], application=None)
    with pytest.raises(ValueError):
        engine.add_job("c", [network.num_nodes], application=None)
    with pytest.raises(ValueError):
        engine.add_job("d", [5, 5], application=None)


def test_irecv_rejects_a_source_rank_outside_the_job():
    sim, network, engine = _engine()
    job = engine.add_job("j", [0, 1], application=None)
    for src_rank in (7, 2, -2):
        with pytest.raises(ValueError, match=f"source rank {src_rank} outside job j"):
            engine.irecv(job, 0, src_rank, 0)
    with pytest.raises(ValueError, match="destination rank 7 outside job j"):
        engine.isend(job, 0, 7, 64, 0)
    assert engine.irecv(job, 0, ANY_SOURCE, 0).src_rank == ANY_SOURCE
