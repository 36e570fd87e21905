"""Property/invariant layer: conservation laws over randomized scenarios.

Example-based tests pin known answers; this layer instead checks the
*invariants* every correct simulation must satisfy, across a seeded random
sample of small scenarios covering every routing algorithm × a mix of
application and synthetic workloads (with and without staggered arrivals):

* **packet conservation** — every packet injected into the network is
  delivered exactly once, and the network drains completely;
* **message conservation** — at either fidelity, every message handed to
  the network is delivered and logged exactly once, with every payload byte
  accounted for, in the statistics collector both fidelities share;
* **credit/buffer conservation** — flow-control credits never go negative
  or exceed the downstream buffer depth (enforced at runtime by
  ``CreditTracker`` and the router's FIFO overflow check raising), and
  every credit is returned once the run completes;
* **monotone simulator clock** — fired-event timestamps never decrease.

Randomness is stdlib-only (``random.Random`` with fixed seeds), so a failure
reproduces exactly from the test name alone.
"""

import random

import pytest

from repro.config import SimulationConfig, tiny_system
from repro.core.engine import Simulator
from repro.mpi.engine import MpiEngine
from repro.network.network import DragonflyNetwork
from repro.placement import create_placement
from repro.placement.allocator import NodeAllocator
from repro.routing import ALGORITHMS
from repro.workloads import create_application

#: Workload pool sampled by the randomized scenarios: a slice of the paper's
#: applications (one per communication pattern class), every synthetic
#: traffic pattern, and the ML-collective training patterns.
WORKLOAD_POOL = [
    "UR",
    "FFT3D",
    "Halo3D",
    "LU",
    "permutation",
    "shift",
    "bit-complement",
    "transpose",
    "hotspot",
    "bursty",
    "ml.ring_allreduce",
    "ml.moe_alltoall",
    "ml.pipeline_p2p",
]

#: Scenarios per routing algorithm.  Keep small: each cell builds and runs a
#: full (tiny) simulator stack.
SCENARIOS_PER_ALGORITHM = 6


def _random_jobs(rng: random.Random):
    """1-2 random small jobs, occasionally with a staggered arrival."""
    names = rng.sample(WORKLOAD_POOL, k=rng.choice([1, 2]))
    jobs = []
    for index, name in enumerate(names):
        kwargs = {
            "scale": rng.choice([0.2, 0.3]),
            "iterations": rng.randint(2, 4),
            "seed": rng.randint(0, 99),
        }
        # The second job sometimes arrives mid-run (staggered injection).
        start_time = rng.choice([0.0, 20_000.0]) if index == 1 else 0.0
        jobs.append((name, rng.randint(3, 6), kwargs, start_time))
    return jobs


def _run(algorithm: str, case_seed: int):
    """Build one randomized scenario and run it to completion."""
    rng = random.Random(0xD43F ^ case_seed)
    config = SimulationConfig(system=tiny_system(), seed=rng.randint(1, 50)).with_routing(
        algorithm
    )
    sim = Simulator(trace=True)
    network = DragonflyNetwork(sim, config)
    engine = MpiEngine(network)
    allocator = NodeAllocator(network.num_nodes)
    policy = create_placement(rng.choice(["random", "contiguous"]))
    placement_rng = network.rng.get("placement")
    for name, ranks, kwargs, start_time in _random_jobs(rng):
        application = create_application(name, ranks, **kwargs)
        nodes = allocator.allocate(name, ranks, policy, placement_rng)
        engine.add_job(name, nodes, application=application, start_time=start_time)
    engine.run(max_events=5_000_000)
    assert engine.all_finished, f"{algorithm} case {case_seed} did not complete"
    return sim, network, engine


CASES = [
    (algorithm, case)
    for algorithm in sorted(ALGORITHMS)
    for case in range(SCENARIOS_PER_ALGORITHM)
]


def _assert_messages_conserved(stats):
    """Every injected message is delivered and logged exactly once.

    Runs through the collector both fidelities record into; delivered bytes
    are counted per packet at packet fidelity and per message at flow
    fidelity, and the two must agree with the injected messages' payload.
    """
    assert stats.total_messages_injected > 0
    assert stats.total_messages_delivered == stats.total_messages_injected
    assert stats.total_bytes_ejected == stats.total_bytes_injected
    delivered_in_logs = sum(len(log) for log in stats.message_log.values())
    assert delivered_in_logs == stats.total_messages_delivered
    for log in stats.message_log.values():
        for create, deliver, size in log:
            assert deliver >= create
            assert size > 0

    # --- every end-to-end latency is positive and finite.
    latencies = stats.message_latencies()
    assert latencies.size == stats.total_messages_delivered
    assert (latencies > 0).all()


@pytest.mark.parametrize("algorithm,case", CASES, ids=[f"{a}-{c}" for a, c in CASES])
def test_invariants_hold_for_randomized_scenarios(algorithm, case):
    sim, network, engine = _run(algorithm, case)
    stats = network.stats

    # --- packet conservation: injected == delivered exactly once, drained.
    assert stats.total_packets_injected > 0
    assert stats.total_packets_ejected == stats.total_packets_injected
    # record_packets is on: the per-packet log is the "exactly once" receipt.
    assert len(stats.packet_records) == stats.total_packets_injected
    assert network.quiescent(), "packets left buffered after completion"
    for record in stats.packet_records:
        assert record.eject_time >= record.inject_time
        assert record.hops >= 1
    _assert_messages_conserved(stats)

    # --- credit/buffer conservation: every credit returned, none over-returned.
    for router in network.routers:
        assert router.buffered_packets == 0
        for port, tracker in enumerate(router.credits):
            assert tracker.used == 0, f"router {router.router_id} port {port} leaked credits"
            for vc in range(tracker.num_vcs):
                assert tracker.available(vc) == tracker.initial
    for nic in network.nics:
        assert nic.pending_packets == 0
        assert nic.credits.used == 0
        for vc in range(nic.credits.num_vcs):
            assert nic.credits.available(vc) == nic.credits.initial

    # --- monotone clock: fired events never travel back in time.
    times = [time for time, _kind, _name in sim.trace_log]
    assert times, "trace recorded no events"
    assert all(earlier <= later for earlier, later in zip(times, times[1:]))
    assert sim.now >= times[-1]

    # --- per-application sanity: jobs started at (or after) their arrival.
    for job in engine.jobs:
        record = job.record
        assert record.finished
        assert record.start_time >= job.start_time
        for rank in range(job.num_ranks):
            assert record.finish_time[rank] >= record.start_time
            assert record.comm_time.get(rank, 0.0) >= 0.0
            assert record.compute_time.get(rank, 0.0) >= 0.0


ML_PATTERNS = ["ml.ring_allreduce", "ml.moe_alltoall", "ml.pipeline_p2p"]


@pytest.mark.parametrize("placement", ["random", "contiguous"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("pattern", ML_PATTERNS)
def test_ml_collectives_conserve_packets_under_every_routing(pattern, algorithm, placement):
    """Every ML-collective pattern completes and conserves packets under
    every routing algorithm — the deadlock-freedom check for the family's
    hand-built communication schedules (ring rounds, pairwise exchanges,
    pipeline chains).  Random placement spreads the ranks across groups;
    contiguous placement packs them into one, so the schedules run over
    both global and purely local channels."""
    config = SimulationConfig(system=tiny_system(), seed=11).with_routing(algorithm)
    sim = Simulator()
    network = DragonflyNetwork(sim, config)
    engine = MpiEngine(network)
    allocator = NodeAllocator(network.num_nodes)
    policy = create_placement(placement)
    placement_rng = network.rng.get("placement")
    application = create_application(pattern, 6, scale=0.25, iterations=2)
    nodes = allocator.allocate(pattern, 6, policy, placement_rng)
    engine.add_job(pattern, nodes, application=application)
    engine.run(max_events=5_000_000)
    assert engine.all_finished, f"{pattern} deadlocked under {algorithm}"
    stats = network.stats
    assert stats.total_packets_injected > 0
    assert stats.total_packets_ejected == stats.total_packets_injected
    assert network.quiescent(), "packets left buffered after completion"


#: Routings of the single-scenario invariant checks below: one
#: congestion-sensing UGAL variant and the learned router.
CHECK_ROUTINGS = ["par", "q-adaptive"]


@pytest.mark.parametrize("algorithm", CHECK_ROUTINGS)
def test_packet_conservation_at_measurement_window_cut(algorithm):
    """Every injected packet is accounted for when the run is cut at the
    measurement-window boundary with packets still in flight: it was either
    delivered, sits in a router input buffer, or is traversing a link (a
    pending LINK_DELIVERY event)."""
    from repro.core.events import EventKind
    from repro.experiments.configs import AppSpec
    from repro.experiments.scenario import Scenario

    config = SimulationConfig(
        system=tiny_system(), seed=7, warmup_ns=2_000.0, measurement_ns=8_000.0
    ).with_routing(algorithm)
    scenario = Scenario(
        name="loadcurve/cut",
        jobs=(AppSpec("shift", 6, {"offered_load": 0.9}),),
        config=config,
    )
    result = scenario.run()
    assert result.completed and not result.engine.all_finished
    stats, sim, network = result.stats, result.sim, result.network

    buffered = sum(router.buffered_packets for router in network.routers)
    on_links = sum(
        1
        for entry in sim._heap
        if entry[2] is not None and entry[4] == EventKind.LINK_DELIVERY
    )
    in_flight = buffered + on_links
    assert in_flight > 0, "a 0.9-load cut should catch packets mid-network"
    assert stats.total_packets_injected == stats.total_packets_ejected + in_flight
    # The windowed counters obey the same law relaxed to an inequality: a
    # packet ejected inside the window may have been injected during warmup.
    assert stats.measured_packets_ejected <= stats.total_packets_injected


@pytest.mark.parametrize("algorithm", CHECK_ROUTINGS)
def test_staggered_job_injects_nothing_before_arrival(algorithm):
    """No packet of a staggered job may enter the network before its start."""
    config = SimulationConfig(system=tiny_system(), seed=5).with_routing(algorithm)
    sim = Simulator()
    network = DragonflyNetwork(sim, config)
    engine = MpiEngine(network)
    allocator = NodeAllocator(network.num_nodes)
    policy = create_placement("random")
    placement_rng = network.rng.get("placement")
    arrival = 30_000.0
    for name, ranks, kwargs, start in [
        ("bursty", 6, {"scale": 0.3, "iterations": 6}, 0.0),
        ("FFT3D", 6, {"scale": 0.3}, arrival),
    ]:
        application = create_application(name, ranks, **kwargs)
        nodes = allocator.allocate(name, ranks, policy, placement_rng)
        engine.add_job(name, nodes, application=application, start_time=start)
    engine.run()
    assert engine.all_finished
    late_job = engine.jobs[1]
    assert late_job.record.start_time == arrival
    late_packets = [r for r in network.stats.packet_records if r.app_id == late_job.job_id]
    assert late_packets, "the staggered job sent nothing"
    assert all(record.inject_time >= arrival for record in late_packets)


# -------------------------------------------------------------- flow fidelity
#: Scenarios per routing algorithm at flow fidelity (the flow solver has no
#: per-algorithm hot core, so a smaller sample per algorithm suffices).
FLOW_SCENARIOS_PER_ALGORITHM = 2

FLOW_CASES = [
    (algorithm, case)
    for algorithm in sorted(ALGORITHMS)
    for case in range(FLOW_SCENARIOS_PER_ALGORITHM)
]


def _run_flow(algorithm: str, case_seed: int):
    """Build one randomized scenario and run it at flow fidelity.

    Mirrors :func:`_run` (same jobs, placements and seeds) with the packet
    network swapped for :class:`repro.flow.network.FlowNetwork` — the
    fidelity axis of the invariant layer.
    """
    from repro.flow.network import FlowNetwork

    rng = random.Random(0xD43F ^ case_seed)
    config = (
        SimulationConfig(system=tiny_system(), seed=rng.randint(1, 50))
        .with_routing(algorithm)
        .with_fidelity("flow")
    )
    sim = Simulator(trace=True)
    network = FlowNetwork(sim, config)
    engine = MpiEngine(network)
    allocator = NodeAllocator(network.num_nodes)
    policy = create_placement(rng.choice(["random", "contiguous"]))
    placement_rng = network.rng.get("placement")
    for name, ranks, kwargs, start_time in _random_jobs(rng):
        application = create_application(name, ranks, **kwargs)
        nodes = allocator.allocate(name, ranks, policy, placement_rng)
        engine.add_job(name, nodes, application=application, start_time=start_time)
    engine.run(max_events=5_000_000)
    assert engine.all_finished, f"{algorithm} flow case {case_seed} did not complete"
    return sim, network, engine


@pytest.mark.parametrize(
    "algorithm,case", FLOW_CASES, ids=[f"{a}-{c}" for a, c in FLOW_CASES]
)
def test_invariants_hold_at_flow_fidelity(algorithm, case):
    """Conservation and monotone-clock invariants on the fidelity axis.

    Flow fidelity has no packets, buffers or credits, so the conserved
    quantity is the *message*: every message injected as a flow is delivered
    exactly once, with every payload byte accounted for, and the network
    drains completely.
    """
    sim, network, engine = _run_flow(algorithm, case)
    stats = network.stats

    # --- message/byte conservation: injected == delivered exactly once.
    _assert_messages_conserved(stats)
    assert network.quiescent(), "flows left in flight after completion"
    assert network.active_flows == 0

    # --- monotone clock: fired events never travel back in time.
    times = [time for time, _kind, _name in sim.trace_log]
    assert times, "trace recorded no events"
    assert all(earlier <= later for earlier, later in zip(times, times[1:]))
    assert sim.now >= times[-1]

    # --- per-application sanity: jobs started at (or after) their arrival.
    for job in engine.jobs:
        record = job.record
        assert record.finished
        assert record.start_time >= job.start_time
        for rank in range(job.num_ranks):
            assert record.finish_time[rank] >= record.start_time
            assert record.comm_time.get(rank, 0.0) >= 0.0
            assert record.compute_time.get(rank, 0.0) >= 0.0
