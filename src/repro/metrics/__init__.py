"""Quantitative metrics of the interference study.

* :mod:`repro.metrics.intensity` — the two communication-intensity metrics
  of Section IV (message injection rate, peak ingress volume → Table I);
* :mod:`repro.metrics.interference` — application-level interference metrics
  (communication-time delta and variation → Figs 4, 8, 10);
* :mod:`repro.metrics.latency` — packet-latency distribution summaries
  (mean/median/p95/p99 → Figs 6, 7, 13);
* :mod:`repro.metrics.congestion` — network-level stall-time maps and the
  congestion index (Figs 11, 12).
"""

from repro.metrics.intensity import injection_rate_gbps, peak_ingress_volume
from repro.metrics.interference import InterferenceSummary, interference_summary
from repro.metrics.latency import LatencySummary, latency_summary
from repro.metrics.congestion import congestion_index_matrix, stall_time_by_group

__all__ = [
    "InterferenceSummary",
    "LatencySummary",
    "congestion_index_matrix",
    "injection_rate_gbps",
    "interference_summary",
    "latency_summary",
    "peak_ingress_volume",
    "stall_time_by_group",
]
