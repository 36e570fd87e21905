"""Communication-intensity metrics (Section IV, Table I).

Two metrics formally characterize an application's communication intensity:

* **Message injection rate** — total message volume divided by execution
  time: the average bandwidth an application demands if its traffic were
  injected steadily.
* **Peak ingress volume** — the consecutive message volume handed to the
  network in one burst (e.g. all stencil neighbours at once), i.e. the peak
  short-term bandwidth demand.

The injection rate is measured from a standalone run (via
:class:`ApplicationRecord`); the peak ingress volume is analytic, from the
application definition.  :func:`repro.results.flatten_run` stores both per
application, and ``dragonfly-sim report table1`` tabulates them.
"""

from __future__ import annotations

from repro.stats.appstats import ApplicationRecord
from repro.workloads.base import Application

__all__ = ["injection_rate_gbps", "peak_ingress_volume"]


def injection_rate_gbps(record: ApplicationRecord) -> float:
    """Measured message injection rate in GB/s (bytes sent / execution time).

    With times in nanoseconds and sizes in bytes the ratio is bytes/ns, which
    equals GB/s.
    """
    execution = record.execution_time
    if execution <= 0:
        return 0.0
    return record.total_bytes_sent / execution


def peak_ingress_volume(application: Application) -> int:
    """Analytic peak ingress volume (bytes) of ``application``."""
    return application.peak_ingress_bytes()

