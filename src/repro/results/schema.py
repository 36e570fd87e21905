"""Row schema of the result store: flat ``metric[/app]`` keys.

Every simulation run is reduced to one flat ``{key: number}`` dict before it
is stored, cached, or compared.  Keys come in two shapes:

* ``"makespan_ns"`` — a scenario-level metric (one value per run);
* ``"comm_time_ns/FFT3D"`` — a per-application metric, the application name
  joined with :data:`METRIC_SEP`.

:func:`flatten_run` is the single producer of this schema (used by the sweep
workers, the benchmark harness and ``dragonfly-sim run --store``);
:func:`split_metric`/:func:`join_metric` convert between the flat key form
(the keys of the store's ``metrics`` JSON column) and the ``(metric, app)``
pair the reports ask for.  Keeping one producer means the sweep cache, the result store and every report
builder agree on metric names by construction.

Scenario-level keys (the packet and flow ones only at that fidelity):

========================  =====================================================
``makespan_ns``           simulated time at which the run finished
``events_fired``          simulator events processed
``bytes_ejected``         payload bytes delivered
``packets_injected``      packet: packets handed to the network
``packets_ejected``       packet: packets delivered
``total_port_stall_ns``   packet: summed credit-stall time over all ports
``messages_injected``     flow: messages handed to the network
``messages_delivered``    flow: messages delivered
``mean_comm_time_ns``     mean of the per-job communication-time means
========================  =====================================================

Per-application keys (one per job ``<app>``):

==============================  ===============================================
``comm_time_ns/<app>``          mean per-rank blocked communication time
``comm_time_std_ns/<app>``      std of per-rank communication time
``execution_time_ns/<app>``     application makespan (last finish - first start)
``total_msg_bytes/<app>``       payload bytes the application sent
``injection_rate_gbps/<app>``   measured message injection rate (Table I)
``peak_ingress_bytes/<app>``    analytic peak ingress volume (Table I)
``start_time_ns/<app>``         simulated time the job's ranks started
``finish_time_ns/<app>``        simulated time the job's last rank finished
==============================  ===============================================

Applications that expose ``pattern_metrics()`` — the synthetic traffic
family of :mod:`repro.workloads.synthetic` and the ML-collective family of
:mod:`repro.workloads.mlcollectives` — additionally contribute one numeric
per-app row per pattern knob (``hot_fraction/hotspot``,
``duty_cycle/bursty``, ``payload_bytes/ml.ring_allreduce``,
``capacity_factor/ml.moe_alltoall`` …), so stored sweeps over pattern knobs
stay self-describing.  Trace replays store their per-app metrics under the
job name ``trace`` (``comm_time_ns/trace`` …) like any other application;
the record→replay equivalence contract of :mod:`repro.traces` is stated
over exactly these per-app rows.

``packet_latency_mean_ns``/``packet_latency_p99_ns`` are added when the run
recorded per-packet latencies (``record_packets`` and at least one packet).

**Flow-fidelity runs** (see docs/fidelity.md) have no packets, so
packet-only keys (``packets_*``, ``total_port_stall_ns``,
``packet_latency_*``, ``measured_packet*``) are *omitted, not faked*; flow
runs emit the message-level analogues instead —
``message_latency_mean_ns``/``message_latency_p99_ns`` and (windowed)
``measured_messages_injected``/``measured_messages_delivered`` plus
``measured_message_latency_{mean,p50,p99}_ns``.  (The shared collector
counts messages at packet fidelity too; packet runs do not emit them.)
Keys shared by both fidelities (``makespan_ns``, ``bytes_ejected``, every
per-application key, ``accepted_throughput_gbps`` …) mean the same thing at
either fidelity, which is what makes cross-fidelity comparison queries
meaningful.

**Windowed runs** (``SimulationConfig.warmup_ns``/``measurement_ns`` set)
additionally emit steady-state metrics computed over the measurement window
only — warmup transients are excluded from every one of them:

=====================================  ========================================
``warmup_ns``                          configured warmup period
``measurement_elapsed_ns``             observed measurement-window length
``measured_packets_injected``          packets injected inside the window
``measured_packets_ejected``           packets delivered inside the window
``measured_bytes_ejected``             payload bytes delivered inside the window
``accepted_throughput_gbps``           delivered Gb/s over the window
``offered_load``                       configured injection fraction (mean over
                                       continuous jobs, when any)
``measured_packet_latency_mean_ns``    mean latency, window ejections only
``measured_packet_latency_p50_ns``     median latency, window ejections only
``measured_packet_latency_p99_ns``     99th-percentile latency, window only
=====================================  ========================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

from repro.flow import DEFAULT_FIDELITY

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    import numpy as np

    from repro.experiments.runner import RunResult

__all__ = ["METRIC_SEP", "flatten_run", "join_metric", "split_metric"]

#: Separator between a metric name and an application name in flat keys.
#: Application names come from the workload registry and never contain it.
METRIC_SEP = "/"

Number = Union[int, float]


def join_metric(metric: str, app: Optional[str] = None) -> str:
    """Flat key for ``metric`` (optionally scoped to application ``app``)."""
    if not app:
        return metric
    return f"{metric}{METRIC_SEP}{app}"


def split_metric(key: str) -> Tuple[str, Optional[str]]:
    """Inverse of :func:`join_metric`: ``(metric, app-or-None)``."""
    metric, sep, app = key.partition(METRIC_SEP)
    return (metric, app) if sep else (key, None)


def flatten_run(result: "RunResult") -> Dict[str, Number]:
    """Reduce a :class:`~repro.experiments.runner.RunResult` to flat metrics.

    The returned dict is JSON-serializable, contains only
    simulation-determined values (two runs of the same scenario produce
    identical dicts regardless of worker count or wall-clock), and follows
    the key schema documented in this module.
    """
    from repro.metrics.intensity import injection_rate_gbps

    stats = result.stats
    packet_level = result.config.fidelity == DEFAULT_FIDELITY
    metrics: Dict[str, Number] = {
        "makespan_ns": float(result.makespan_ns),
        "events_fired": int(result.sim.events_fired),
        "bytes_ejected": int(stats.total_bytes_ejected),
    }
    # Flow-level runs have no packets: packet counters, stall accounting and
    # packet latencies are *omitted, not faked*; they report the message
    # counters and latencies instead (see docs/fidelity.md).
    latencies: Callable[[], "np.ndarray"]
    measured_latencies: Callable[[], "np.ndarray"]
    if packet_level:
        metrics["packets_injected"] = int(stats.total_packets_injected)
        metrics["packets_ejected"] = int(stats.total_packets_ejected)
        metrics["total_port_stall_ns"] = float(stats.port_stall.total())
        measured_counts = {
            "measured_packets_injected": int(stats.measured_packets_injected),
            "measured_packets_ejected": int(stats.measured_packets_ejected),
        }
        unit = "packet"
        latencies = stats.packet_latencies
        measured_latencies = stats.measurement_packet_latencies
    else:
        metrics["messages_injected"] = int(stats.total_messages_injected)
        metrics["messages_delivered"] = int(stats.total_messages_delivered)
        measured_counts = {
            "measured_messages_injected": int(stats.measured_messages_injected),
            "measured_messages_delivered": int(stats.measured_messages_delivered),
        }
        unit = "message"
        latencies = stats.message_latencies
        measured_latencies = stats.measurement_message_latencies

    comm_times = []
    for name, job in result.jobs.items():
        record = job.record
        application = result.applications[name]
        comm = float(record.mean_comm_time)
        comm_times.append(comm)
        metrics[join_metric("comm_time_ns", name)] = comm
        metrics[join_metric("comm_time_std_ns", name)] = float(record.std_comm_time)
        metrics[join_metric("execution_time_ns", name)] = float(record.execution_time)
        metrics[join_metric("total_msg_bytes", name)] = int(record.total_bytes_sent)
        metrics[join_metric("injection_rate_gbps", name)] = injection_rate_gbps(record)
        metrics[join_metric("peak_ingress_bytes", name)] = int(application.peak_ingress_bytes())
        if record.start_time is not None:
            metrics[join_metric("start_time_ns", name)] = float(record.start_time)
        if record.finish_time:
            metrics[join_metric("finish_time_ns", name)] = float(max(record.finish_time.values()))
        pattern_metrics = getattr(application, "pattern_metrics", None)
        if callable(pattern_metrics):
            for knob, value in pattern_metrics().items():
                metrics[join_metric(knob, name)] = float(value)
    # Aggregate column every row shares (equals the job's own value for
    # single-job scenarios, matching the pre-scenario sweep layout).
    metrics["mean_comm_time_ns"] = float(sum(comm_times) / len(comm_times))
    _latency_rows(metrics, f"{unit}_latency", latencies(), (99,))

    if result.config.windowed:
        # Steady-state metrics over the measurement window only.  An empty
        # window (the run ended before warmup_ns did) raises a clear error
        # here rather than storing metrics that describe nothing.
        elapsed = stats.measurement_elapsed_ns
        metrics["warmup_ns"] = float(stats.warmup_ns)
        metrics["measurement_elapsed_ns"] = float(elapsed)
        metrics.update(measured_counts)
        metrics["measured_bytes_ejected"] = int(stats.measured_bytes_ejected)
        # bytes/ns -> Gb/s (1 byte/ns == 8 Gb/s).
        metrics["accepted_throughput_gbps"] = stats.measured_bytes_ejected / elapsed * 8.0
        loads = [
            application.offered_load
            for application in result.applications.values()
            if getattr(application, "offered_load", None) is not None
        ]
        if loads:
            metrics["offered_load"] = float(sum(loads) / len(loads))
        _latency_rows(metrics, f"measured_{unit}_latency", measured_latencies(), (50, 99))
    return metrics


def _latency_rows(
    metrics: Dict[str, Number], prefix: str, latencies: "np.ndarray", percentiles: Tuple[int, ...]
) -> None:
    """Add ``<prefix>_mean_ns`` and ``<prefix>_p<q>_ns`` rows when there are samples."""
    import numpy as np

    if latencies.size:
        metrics[f"{prefix}_mean_ns"] = float(latencies.mean())
        for q in percentiles:
            metrics[f"{prefix}_p{q}_ns"] = float(np.percentile(latencies, q))
