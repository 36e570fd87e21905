"""Application-level interference metrics.

The paper quantifies interference by comparing an application's
communication time when co-running against its standalone baseline:

* the **communication-time delta** (relative slowdown of the mean per-rank
  communication time), and
* the **communication-time variation** (standard deviation across ranks
  relative to the standalone mean), which captures how unevenly ranks are hit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.appstats import ApplicationRecord

__all__ = ["InterferenceSummary", "interference_summary"]


@dataclass(frozen=True)
class InterferenceSummary:
    """Comparison of one application's co-run against its standalone run."""

    app: str
    standalone_comm_ns: float
    interfered_comm_ns: float
    standalone_std_ns: float
    interfered_std_ns: float

    @property
    def slowdown(self) -> float:
        """Interfered mean communication time / standalone mean (>= 0)."""
        if self.standalone_comm_ns <= 0:
            return 1.0
        return self.interfered_comm_ns / self.standalone_comm_ns

    @property
    def comm_time_increase(self) -> float:
        """Relative communication-time increase (0.25 == 25 % slower)."""
        return self.slowdown - 1.0

    @property
    def variation(self) -> float:
        """Std of per-rank comm time under interference, relative to the standalone mean.

        This matches the paper's "communication time variation" percentages.
        """
        if self.standalone_comm_ns <= 0:
            return 0.0
        return self.interfered_std_ns / self.standalone_comm_ns

    def as_dict(self) -> dict:
        """Plain-dict view used by reports."""
        return {
            "app": self.app,
            "standalone_comm_ns": self.standalone_comm_ns,
            "interfered_comm_ns": self.interfered_comm_ns,
            "slowdown": self.slowdown,
            "comm_time_increase": self.comm_time_increase,
            "variation": self.variation,
        }


def interference_summary(
    standalone: ApplicationRecord, interfered: ApplicationRecord
) -> InterferenceSummary:
    """Build an :class:`InterferenceSummary` from two runs of the same app."""
    if standalone.name != interfered.name:
        raise ValueError(
            f"records describe different applications: {standalone.name} vs {interfered.name}"
        )
    return InterferenceSummary(
        app=standalone.name,
        standalone_comm_ns=standalone.mean_comm_time,
        interfered_comm_ns=interfered.mean_comm_time,
        standalone_std_ns=standalone.std_comm_time,
        interfered_std_ns=interfered.std_comm_time,
    )
