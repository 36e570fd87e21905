#!/usr/bin/env python3
"""Quickstart: simulate one application on a Dragonfly and inspect the results.

Runs the ``table1/FFT3D`` preset — FFT3D standalone on the 72-node Dragonfly
with PAR routing — and prints the application- and network-level metrics the
library collects.  The same run from the command line:

    dragonfly-sim run table1/FFT3D --scale 0.5

Run with:  python examples/quickstart.py
(set REPRO_SMOKE=1 for a faster reduced-volume run, as the CI docs job does)
"""

import os

from repro.experiments.scenario import table1_scenario
from repro.metrics.intensity import injection_rate_gbps
from repro.metrics.latency import latency_summary

SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")


def main() -> None:
    # 1. Describe the run: the Table I preset for FFT3D (24 nodes of the
    #    72-node Dragonfly, PAR adaptive routing, random placement as in
    #    the paper) at benchmark-scale message volumes.
    scenario = table1_scenario("FFT3D", routing="par", seed=1, scale=0.2 if SMOKE else 0.5)

    # 2. Run it to completion.
    result = scenario.run()

    # 3. Application-level metrics.
    record = result.record("FFT3D")
    app = result.application("FFT3D")
    print("=== FFT3D standalone on a 72-node Dragonfly (PAR routing) ===")
    print(f"process grid            : {app.shape[0]} x {app.shape[1]}")
    print(f"execution time          : {record.execution_time / 1e3:8.1f} us")
    print(f"mean communication time : {record.mean_comm_time / 1e3:8.1f} us "
          f"(std {record.std_comm_time / 1e3:.1f} us)")
    print(f"total message volume    : {record.total_bytes_sent / 1e6:8.2f} MB")
    print(f"message injection rate  : {injection_rate_gbps(record):8.2f} GB/s")
    print(f"peak ingress volume     : {app.peak_ingress_bytes() / 1024:8.1f} KB")

    # 4. Network-level metrics.
    latency = latency_summary(result.stats)
    print(f"packets delivered       : {latency.count}")
    print(f"packet latency mean/p99 : {latency.mean:8.1f} / {latency.p99:8.1f} ns")
    print(f"total port stall time   : {result.stats.port_stall.total() / 1e3:8.1f} us")


if __name__ == "__main__":
    main()
