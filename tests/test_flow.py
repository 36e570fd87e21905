"""Tests of the flow-level fidelity: selection, solver, cross-validation.

Three layers:

* **selection** — ``resolve_fidelity`` semantics, config validation, the
  hash-neutrality contract (the default fidelity is never serialized, so
  every pre-existing scenario hash is unchanged) and the guarantee that the
  environment cannot change which fidelity a scenario runs at;
* **solver** — max-min fair rates on hand-checkable configurations of
  :class:`repro.flow.network.FlowNetwork` (single flow, shared bottleneck,
  staggered arrival re-rating), and a property over random flow sets: after
  every recomputation each rate equals progressive filling's over the
  changed components and satisfies the max-min certificate;
* **cross-validation** — matched small scenarios run at both fidelities:
  per-application communication *volumes* must match exactly (the workload
  layer is shared), and latency/throughput must agree within the documented
  tolerances of docs/fidelity.md (flow results are approximations, not
  bit-equivalent).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import (
    Scenario,
    dump_scenarios,
    expand_grid,
    loadcurve_scenario,
    pairwise_scenario,
    scenario_hash,
)
from repro.core.engine import Simulator
from repro.flow import (
    DEFAULT_FIDELITY,
    FLOW_FIDELITY,
    Network,
    fidelity_names,
    resolve_fidelity,
)
from repro.flow.network import _MIN_RATE, FlowNetwork
from repro.network.network import DragonflyNetwork
from repro.network.packet import Message
from repro.results import ResultStore, flatten_run
from repro.stats.collector import StatsCollector


def _tiny_scenario(fidelity=None, **config_overrides) -> Scenario:
    config = SimulationConfig(system=tiny_system(), seed=1, **config_overrides)
    if fidelity is not None:
        config = config.with_fidelity(fidelity)
    return Scenario(
        name="flowtest/UR",
        jobs=(AppSpec("UR", 8, {"scale": 0.2, "iterations": 2}),),
        config=config,
    )


# ------------------------------------------------------------------ selection
def test_resolve_fidelity_canonicalizes_names():
    assert fidelity_names() == (DEFAULT_FIDELITY, FLOW_FIDELITY)
    for name in ("packet", "PACKET", " packet "):
        assert resolve_fidelity(name) == "packet"
    for name in ("flow", "Flow"):
        assert resolve_fidelity(name) == "flow"
    for unknown in ("packte", "pkt", "fluid"):
        with pytest.raises(ValueError, match="valid fidelities: packet, flow"):
            resolve_fidelity(unknown)


def test_config_validates_fidelity_at_construction():
    config = SimulationConfig(system=tiny_system(), fidelity="FLOW")
    assert config.fidelity == "flow"  # canonicalized
    with pytest.raises(ValueError, match="SimulationConfig.fidelity"):
        SimulationConfig(system=tiny_system(), fidelity="hybrid")


def test_environment_cannot_refidelity_a_stored_run(tmp_path, monkeypatch):
    """A ``REPRO_<KNOB>`` environment override of a knob the scenario hash
    omits at its default would run a packet scenario at flow fidelity, and
    the store would file the flow metrics under the packet scenario's hash.
    Such variables are inert: what is stored is the packet run."""
    scenario = _tiny_scenario()
    expected = flatten_run(scenario.run())
    for knob, value in (("fidelity", "flow"), ("backend", "fast")):
        monkeypatch.setenv(f"REPRO_{knob.upper()}", value)
    result = scenario.run()
    assert result.fidelity == result.config.fidelity == "packet"
    with ResultStore(tmp_path / "runs.sqlite") as store:
        store.record_run(scenario, result)
        stored = store.get(scenario)
    assert stored is not None and stored.value("fidelity") == "packet"
    assert "packets_ejected" in stored.metrics
    assert stored.metrics["makespan_ns"] == expected["makespan_ns"]


def test_default_fidelity_is_never_serialized_or_hashed():
    """Hash neutrality: packet-fidelity scenarios hash exactly as before."""
    packet = _tiny_scenario()
    flow = _tiny_scenario(fidelity="flow")
    assert "fidelity" not in packet.to_dict()["sim"]
    assert flow.to_dict()["sim"]["fidelity"] == "flow"
    assert scenario_hash(packet) != scenario_hash(flow)
    # Round-trip: the serialized flow scenario rebuilds with its fidelity.
    rebuilt = Scenario.from_dict(flow.to_dict())
    assert rebuilt.config.fidelity == "flow"
    assert scenario_hash(rebuilt) == scenario_hash(flow)


def test_expand_grid_sweeps_the_fidelity_axis():
    grid = expand_grid(_tiny_scenario(), fidelities=["packet", "flow"])
    assert [s.config.fidelity for s in grid] == ["packet", "flow"]
    # The packet cell keeps the base name (same cache key as a pre-fidelity
    # sweep); only the non-default cell is renamed.
    assert grid[0].name == "flowtest/UR"
    assert grid[1].name == "flowtest/UR[fidelity=flow]"
    assert scenario_hash(grid[0]) == scenario_hash(_tiny_scenario())


def test_cli_run_fidelity_flow_files_the_run_under_the_flow_scenario(tmp_path, capsys):
    """``run --fidelity flow`` is the explicit way to run a scenario at flow
    fidelity: the stored run is keyed by the flow scenario, never by the
    packet scenario it was derived from."""
    path = tmp_path / "ur.json"
    dump_scenarios(path, [_tiny_scenario()])
    store_path = tmp_path / "runs.sqlite"
    assert main(["run", str(path), "--fidelity", "flow", "--store", str(store_path)]) == 0
    capsys.readouterr()
    with ResultStore(store_path) as store:
        assert store.get(_tiny_scenario()) is None
        stored = store.get(_tiny_scenario(fidelity="flow"))
        assert len(store) == 1
    assert stored is not None and stored.value("fidelity") == "flow"
    assert "packets_ejected" not in stored.metrics


def test_cli_sweep_fidelities_stores_one_run_per_fidelity(tmp_path, capsys):
    path = tmp_path / "ur.json"
    dump_scenarios(path, [_tiny_scenario()])
    store_path = tmp_path / "runs.sqlite"
    assert main(
        ["sweep", "--scenario", str(path), "--fidelities", "packet", "flow",
         "--workers", "1", "--store", str(store_path)]
    ) == 0
    capsys.readouterr()
    with ResultStore(store_path) as store:
        packet = store.get(_tiny_scenario())
        flow = store.runs(fidelity="flow")
    assert packet is not None and packet.value("fidelity") == "packet"
    assert "packets_ejected" in packet.metrics
    assert [run.name for run in flow] == ["flowtest/UR[fidelity=flow]"]
    assert "packets_ejected" not in flow[0].metrics


@pytest.mark.parametrize("fidelity", fidelity_names())
def test_both_networks_provide_every_network_protocol_member(fidelity):
    """Each fidelity's network offers every member of :class:`repro.flow.Network`
    and records into the one shared :class:`StatsCollector`."""
    members = {name for name in vars(Network) if not name.startswith("_")}
    members |= set(Network.__annotations__)
    assert members == {
        "send_message", "on_message_delivered", "stats", "rng", "sim", "config",
        "num_nodes", "quiescent",
    }
    config = SimulationConfig(system=tiny_system()).with_fidelity(fidelity)
    network_cls = DragonflyNetwork if fidelity == DEFAULT_FIDELITY else FlowNetwork
    network = network_cls(Simulator(), config)
    missing = sorted(name for name in members if not hasattr(network, name))
    assert not missing, f"{network_cls.__name__} lacks {missing}"
    assert type(network.stats) is StatsCollector
    assert network.num_nodes == config.system.num_nodes
    assert network.quiescent()


# ------------------------------------------------------------------ solver
def _flow_network(routing="minimal", seed=3):
    config = (
        SimulationConfig(system=tiny_system(), seed=seed)
        .with_routing(routing)
        .with_fidelity("flow")
    )
    sim = Simulator()
    network = FlowNetwork(sim, config)
    return sim, network


def test_single_flow_transfers_at_full_link_bandwidth():
    sim, network = _flow_network()
    capacity = network.config.system.link_bandwidth_bytes_per_ns
    size = 10_000
    delivered = []
    network.on_message_delivered = lambda m: delivered.append(sim.now)
    network.send_message(Message(src_node=0, dst_node=1, size_bytes=size))
    sim.run()
    assert len(delivered) == 1
    # Same router: inj -> ej, no inter-router hop.  Transfer time at full
    # capacity plus the fixed propagation offset (two terminal latencies).
    expected = size / capacity + 2.0 * network.config.system.terminal_latency_ns
    assert delivered[0] == pytest.approx(expected, rel=1e-9)
    assert network.quiescent()


def test_shared_bottleneck_splits_bandwidth_max_min_fairly():
    sim, network = _flow_network()
    capacity = network.config.system.link_bandwidth_bytes_per_ns
    size = 10_000
    done = {}
    network.on_message_delivered = lambda m: done.setdefault(m.msg_id, sim.now)
    # Two different sources, one destination: the ejection link at node 2 is
    # the single shared bottleneck, so each flow gets capacity/2.
    for src in (0, 1):
        network.send_message(Message(src_node=src, dst_node=2, size_bytes=size))
    sim.run()
    assert len(done) == 2
    # Nodes 0 and 2 sit on different routers of one group (tiny system has 2
    # nodes per router): the propagation offset is two terminal hops plus one
    # local hop.
    system = network.config.system
    offset = 2.0 * system.terminal_latency_ns + system.local_latency_ns
    expected = 2 * size / capacity + offset
    for finish in done.values():
        assert finish == pytest.approx(expected, rel=1e-9)


def test_late_arrival_rerates_the_running_flow():
    sim, network = _flow_network()
    capacity = network.config.system.link_bandwidth_bytes_per_ns
    size = 10_000
    half_transfer = 0.5 * size / capacity
    done = {}
    network.on_message_delivered = lambda m: done.setdefault(m.msg_id, sim.now)

    def start(src):
        network.send_message(Message(src_node=src, dst_node=2, size_bytes=size))

    start(0)
    # The second flow arrives once the first has moved half its bytes; the
    # remaining half then drains at capacity/2.
    sim.schedule(half_transfer, lambda: start(1))
    sim.run()
    system = network.config.system
    offset = 2.0 * system.terminal_latency_ns + system.local_latency_ns
    first_finish, second_finish = sorted(done.values())
    assert first_finish == pytest.approx(
        half_transfer + size / capacity + offset, rel=1e-9
    )
    # The late flow: half its life at capacity/2 (sharing), the rest alone
    # at full capacity after the first flow finishes.
    assert second_finish == pytest.approx(
        half_transfer + 1.5 * size / capacity + offset, rel=1e-9
    )


def _reference_rates(flows):
    """Max-min rates of ``flows`` by progressive filling of all their links
    at once, each round's bottlenecks found by scanning them all (the solver
    before it re-filled only the components a change touches)."""
    links = {id(link): link for flow in flows for link in flow.links}
    residual = {key: link.capacity for key, link in links.items()}
    unfrozen = {key: len(link.flows) for key, link in links.items()}
    rates = {}
    while len(rates) < len(flows):
        share = min(residual[key] / unfrozen[key] for key in links if unfrozen[key] > 0)
        share = max(share, _MIN_RATE)
        threshold = share * (1.0 + 1e-12)
        bottlenecks = [
            key
            for key in links
            if unfrozen[key] > 0 and residual[key] / unfrozen[key] <= threshold
        ]
        for key in bottlenecks:
            for flow in links[key].flows:
                if flow.message.msg_id in rates:
                    continue
                rates[flow.message.msg_id] = share
                for crossed in flow.links:
                    left = residual[id(crossed)] - share
                    residual[id(crossed)] = left if left > 0.0 else 0.0
                    unfrozen[id(crossed)] -= 1
    return rates


def _component_flows(seeds):
    """The active flows joined to a seed flow's links through shared links."""
    links = [link for seed in seeds for link in seed.links]
    reached = {id(link) for link in links}
    flows = {}
    for link in links:  # a worklist: grows while it is walked
        for flow in link.flows:
            if flow.message.msg_id not in flows:
                flows[flow.message.msg_id] = flow
                for crossed in flow.links:
                    if id(crossed) not in reached:
                        reached.add(id(crossed))
                        links.append(crossed)
    return list(flows.values())


class _CheckedFlowNetwork(FlowNetwork):
    """Checks every rate recomputation: exactly against filling the changed
    flows' components together, within rounding against filling every
    active link, and against the max-min certificate."""

    recomputations = 0

    def _compute_rates(self):
        refilled = _component_flows(self._changed)
        rates = {msg_id: flow.rate for msg_id, flow in self._flows.items()}
        super()._compute_rates()
        self.recomputations += 1
        flows = list(self._flows.values())
        # Flows outside the changed components keep their rates; the rest get
        # exactly the rates of filling those components' links at once.
        rates.update(_reference_rates(refilled))
        assert {f.message.msg_id: f.rate for f in flows} == rates
        # Filling every active link at once merges rounds of two components
        # whose shares are within 1e-12 relative, which moves a rate by
        # rounding only.
        assert rates == pytest.approx(_reference_rates(flows), rel=1e-12, abs=1e-9)
        for flow in flows:
            # Max-min: some link of the flow is saturated, and no flow
            # crossing it gets more than this one.
            assert any(
                sum(other.rate for other in link.flows)
                >= link.capacity * (1 - 1e-9)
                and max(other.rate for other in link.flows)
                <= flow.rate * (1 + 1e-9)
                for link in flow.links
            ), flow.message


@settings(max_examples=40, deadline=None)
@given(
    routing=st.sampled_from(["minimal", "valiant", "par"]),
    seed=st.integers(min_value=1, max_value=1000),
    data=st.data(),
)
def test_property_recomputed_rates_are_max_min_fair(routing, seed, data):
    """Random flow sets with staggered starts: after every recomputation,
    each rate equals progressive filling's over the changed components,
    exactly, and over every active link, within rounding."""
    config = (
        SimulationConfig(system=tiny_system(), seed=seed)
        .with_routing(routing)
        .with_fidelity("flow")
    )
    sim = Simulator()
    network = _CheckedFlowNetwork(sim, config)
    nodes = network.num_nodes
    flows = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=nodes - 1),
                st.integers(min_value=1, max_value=nodes - 1),
                st.integers(min_value=1, max_value=200_000),
                st.integers(min_value=0, max_value=15),
            ),
            min_size=1,
            max_size=40,
        )
    )
    delivered = []
    network.on_message_delivered = delivered.append
    for src, offset, size, start in flows:
        message = Message(src_node=src, dst_node=(src + offset) % nodes, size_bytes=size)
        # Starts on a coarse grid, so several flows often start at one
        # timestamp and batch into one recomputation.
        sim.schedule(start * 250.0, network.send_message, message)
    sim.run()
    assert len(delivered) == len(flows)
    assert network.quiescent() and network.recomputations > 0


def test_zero_nonminimal_candidates_routes_minimally():
    """With no Valiant candidate to sample, PAR is minimal routing, as at
    packet level: every flow row equals the minimal run's."""
    base = pairwise_scenario("FFT3D", "UR", routing="par", seed=3, scale=0.3)

    def flow_rows(algorithm, **knobs):
        config = base.config.with_routing(algorithm, **knobs).with_fidelity("flow")
        return flatten_run(replace(base, config=config).run())

    assert flow_rows("par", nonminimal_candidates=0) == flow_rows("minimal")


@pytest.mark.parametrize(
    "routing", ["minimal", "valiant", "ugal-g", "ugal-n", "par", "q-adaptive"]
)
def test_every_routing_algorithm_completes_at_flow_fidelity(routing):
    scenario = _tiny_scenario(fidelity="flow").with_updates(
        name=f"flowtest/UR-{routing}", routing=routing
    )
    result = scenario.run()
    assert result.fidelity == "flow"
    assert result.completed
    stats = result.stats
    assert stats.total_messages_injected == stats.total_messages_delivered > 0
    assert stats.total_bytes_injected == stats.total_bytes_ejected > 0
    assert result.network.quiescent()


def test_flow_run_result_and_metrics_schema():
    result = _tiny_scenario(fidelity="flow").run()
    metrics = flatten_run(result)
    # Packet-only keys are omitted, not faked.
    for absent in ("packets_injected", "packets_ejected", "total_port_stall_ns"):
        assert absent not in metrics
    assert metrics["messages_injected"] == metrics["messages_delivered"] > 0
    assert metrics["message_latency_mean_ns"] > 0
    assert metrics["makespan_ns"] > 0
    assert metrics["bytes_ejected"] > 0
    assert metrics["comm_time_ns/UR"] >= 0


# ----------------------------------------------------------- cross-validation
#: Relative tolerances of the cross-validation contract (docs/fidelity.md):
#: measured agreement on the matched scenarios below is ~1-5%; the asserted
#: bounds leave headroom so the contract pins trends, not noise.
MAKESPAN_RTOL = 0.30
THROUGHPUT_RTOL = 0.10


def _both_fidelities(scenario: Scenario):
    packet = scenario.run()
    flow = scenario.with_updates(
        name=f"{scenario.name}[fidelity=flow]", fidelity="flow"
    ).run()
    assert packet.fidelity == "packet" and flow.fidelity == "flow"
    return packet, flow


@pytest.mark.parametrize("app", ["FFT3D", "Halo3D", "LU"])
def test_cross_validation_volumes_exact_and_makespan_close(app):
    """Table I apps: identical communication volumes, agreeing makespans."""
    scenario = Scenario(
        name=f"xval/{app}",
        jobs=(AppSpec(app, 8, {"scale": 0.1}),),
        config=SimulationConfig(system=tiny_system(), seed=1).with_routing("minimal"),
    )
    packet, flow = _both_fidelities(scenario)
    pm, fm = flatten_run(packet), flatten_run(flow)
    # The workload layer is shared: the *volume* an application sends is
    # fidelity-independent and must match exactly, byte for byte.
    assert fm[f"total_msg_bytes/{app}"] == pm[f"total_msg_bytes/{app}"]
    assert fm["bytes_ejected"] == pm["bytes_ejected"]
    # Timing is approximated, not reproduced: makespans agree within the
    # documented tolerance.
    assert fm["makespan_ns"] == pytest.approx(pm["makespan_ns"], rel=MAKESPAN_RTOL)


def test_cross_validation_loadcurve_throughput_and_latency_trend():
    """Steady-state points: accepted throughput agrees; latency rises with load."""
    config = SimulationConfig(
        system=tiny_system(), seed=2, warmup_ns=5_000.0, measurement_ns=40_000.0
    ).with_routing("minimal")
    rows = {}
    for load in (0.2, 0.6):
        scenario = loadcurve_scenario(
            "shift", offered_load=load, num_ranks=16, config=config
        )
        packet, flow = _both_fidelities(scenario)
        rows[load] = (flatten_run(packet), flatten_run(flow))
    for load, (pm, fm) in rows.items():
        assert fm["accepted_throughput_gbps"] == pytest.approx(
            pm["accepted_throughput_gbps"], rel=THROUGHPUT_RTOL
        )
    # Monotone trend at both fidelities: more offered load, higher latency.
    pm_low, fm_low = rows[0.2]
    pm_high, fm_high = rows[0.6]
    assert (
        pm_high["measured_packet_latency_mean_ns"]
        > pm_low["measured_packet_latency_mean_ns"]
    )
    assert (
        fm_high["measured_message_latency_mean_ns"]
        > fm_low["measured_message_latency_mean_ns"]
    )


def test_flow_fidelity_is_deterministic():
    first = _tiny_scenario(fidelity="flow").run()
    second = _tiny_scenario(fidelity="flow").run()
    assert flatten_run(first) == flatten_run(second)


def test_report_fidelity_filter_disambiguates_mixed_stores(tmp_path):
    """``--fidelity`` narrows a store holding both fidelities of one scenario.

    Packet- and flow-level runs of the same experiment are different
    approximations and must never be averaged into one report row:
    unfiltered, the uniformity check refuses (naming ``--fidelity``); the
    filter then selects exactly one family per value.
    """
    from repro.analysis.reports import build_report
    from repro.experiments.scenario import table1_scenario

    packet = table1_scenario("FFT3D", scale=0.1)
    flow = packet.with_updates(name=f"{packet.name}[fidelity=flow]", fidelity="flow")
    with ResultStore(tmp_path / "runs.sqlite") as store:
        for scenario in (packet, flow):
            store.record_run(scenario, scenario.run())
        with pytest.raises(ValueError, match="--fidelity"):
            build_report(store, "table1")
        packet_report = build_report(store, "table1", fidelity="packet")
        flow_report = build_report(store, "table1", fidelity="flow")
    # Same application, same volume column; the timing columns differ.
    assert "FFT3D" in packet_report and "FFT3D" in flow_report
    assert packet_report != flow_report
