#!/usr/bin/env python3
"""Routing deep dive: drive the network layer directly with synthetic traffic.

Shows how to use the library below the MPI/workload layer: inject raw
messages with an adversarial group-to-group pattern and compare how minimal,
UGAL, PAR and Q-adaptive routing cope — including a peek inside a router's
learned Q-table.

Run with:  python examples/routing_deep_dive.py
(set REPRO_SMOKE=1 for a faster reduced-traffic run)
"""

import os

import numpy as np

from repro.analysis.reports import format_table
from repro.config import SimulationConfig, small_system
from repro.core.engine import Simulator
from repro.network.network import DragonflyNetwork
from repro.network.packet import Message

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
MESSAGES = 120 if SMOKE else 400
SIZE = 2048


def adversarial_traffic(network, rng):
    """Every node talks only to the next group — worst case for minimal routing."""
    topo = network.topology
    per_group = topo.config.nodes_per_group
    for _ in range(MESSAGES):
        src = int(rng.integers(topo.num_nodes))
        dst_group = (topo.group_of_node(src) + 1) % topo.num_groups
        dst = dst_group * per_group + int(rng.integers(per_group))
        network.send_message(Message(src, dst, SIZE, create_time=network.sim.now))


def main() -> None:
    rows = []
    q_network = None
    for routing in ("minimal", "ugal-g", "par", "q-adaptive"):
        config = SimulationConfig(
            system=small_system().scaled(link_bandwidth_gbps=50.0), seed=4
        ).with_routing(routing)
        sim = Simulator()
        network = DragonflyNetwork(sim, config)
        adversarial_traffic(network, np.random.default_rng(0))
        sim.run()
        latencies = network.stats.packet_latencies()
        rows.append(
            {
                "routing": routing,
                "finish_us": sim.now / 1e3,
                "mean_latency_ns": float(latencies.mean()),
                "p99_latency_ns": float(np.percentile(latencies, 99)),
                "stall_us": network.stats.port_stall.total() / 1e3,
            }
        )
        if routing == "q-adaptive":
            q_network = network

    print("=== Adversarial +1-group traffic on a 72-node Dragonfly ===")
    print(format_table(rows))

    # Peek inside router 0's learned table.
    routing = q_network.routing
    table = routing.table_for(q_network.routers[0])
    print(f"\nQ-table of router 0: {len(table.rows)} destinations "
          f"({table.known_entries()} entries), {table.updates} updates")
    terminal = set(q_network.topology.terminal_ports())
    entries = sorted(table.snapshot().items())
    sample = [entry for entry in entries if entry[0][0] not in terminal][:6]
    for (port, dest), value in sample:
        print(f"  port {port:2d} -> dest {dest}: estimated delivery {value:8.1f} ns")


if __name__ == "__main__":
    main()
