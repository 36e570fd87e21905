"""Per-application records: iteration timestamps and communication time.

The paper's enhanced Ember applications timestamp every iteration's start and
end and the time each rank spends in messaging operations.  The equivalent
here is :class:`ApplicationRecord`, filled in by the workload layer
(:mod:`repro.workloads.base`) while the simulation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["ApplicationRecord", "IterationRecord"]


@dataclass(slots=True)
class IterationRecord:
    """Timestamps of one iteration of one rank."""

    rank: int
    iteration: int
    start_time: float
    end_time: Optional[float] = None
    compute_time: float = 0.0
    comm_time: float = 0.0

    @property
    def duration(self) -> Optional[float]:
        """Wall-clock duration of the iteration, if it completed."""
        if self.end_time is None:
            return None
        return self.end_time - self.start_time


@dataclass
class ApplicationRecord:
    """Aggregated per-application statistics for one simulation run."""

    app_id: int
    name: str
    num_ranks: int

    #: Total payload bytes every rank handed to the network (sends only).
    total_bytes_sent: int = 0
    #: Cumulative time each rank spent blocked in communication calls, ns.
    comm_time: Dict[int, float] = field(default_factory=dict)
    #: Cumulative time each rank spent in compute phases, ns.
    compute_time: Dict[int, float] = field(default_factory=dict)
    #: Simulation time at which each rank finished its program, ns.
    finish_time: Dict[int, float] = field(default_factory=dict)
    #: Simulation time at which the job's rank programs started (all at
    #: once), ns; ``None`` until they do.
    start_time: Optional[float] = None
    #: Per-iteration details (optional, can grow large).
    iterations: List[IterationRecord] = field(default_factory=list)

    # ------------------------------------------------------------ recording
    def record_send(self, num_bytes: int) -> None:
        """Charge ``num_bytes`` of sent payload to the application."""
        self.total_bytes_sent += num_bytes

    def add_comm_time(self, rank: int, duration: float) -> None:
        """Add blocked communication time to ``rank``."""
        self.comm_time[rank] = self.comm_time.get(rank, 0.0) + duration

    def add_compute_time(self, rank: int, duration: float) -> None:
        """Add compute time to ``rank``."""
        self.compute_time[rank] = self.compute_time.get(rank, 0.0) + duration

    # ------------------------------------------------------------ summaries
    @property
    def finished(self) -> bool:
        """Whether every rank has completed its program."""
        return len(self.finish_time) == self.num_ranks and self.num_ranks > 0

    @property
    def execution_time(self) -> float:
        """Makespan of the application: last finish minus first start, ns."""
        if not self.finish_time or self.start_time is None:
            return 0.0
        return max(self.finish_time.values()) - self.start_time

    def comm_times(self) -> np.ndarray:
        """Per-rank communication times as an array (ns)."""
        return np.array([self.comm_time.get(r, 0.0) for r in range(self.num_ranks)])

    @property
    def mean_comm_time(self) -> float:
        """Mean per-rank communication time, ns."""
        times = self.comm_times()
        return float(times.mean()) if times.size else 0.0

    @property
    def std_comm_time(self) -> float:
        """Standard deviation of per-rank communication time, ns."""
        times = self.comm_times()
        return float(times.std()) if times.size else 0.0

    @property
    def mean_compute_time(self) -> float:
        """Mean per-rank compute time, ns."""
        if not self.compute_time:
            return 0.0
        return float(np.mean(list(self.compute_time.values())))

    def summary(self) -> dict:
        """Plain-dict summary used by reports and tests."""
        return {
            "app_id": self.app_id,
            "name": self.name,
            "num_ranks": self.num_ranks,
            "finished": self.finished,
            "total_bytes_sent": self.total_bytes_sent,
            "execution_time_ns": self.execution_time,
            "mean_comm_time_ns": self.mean_comm_time,
            "std_comm_time_ns": self.std_comm_time,
            "mean_compute_time_ns": self.mean_compute_time,
        }
