"""Application base class and process-grid helpers.

An :class:`Application` owns the *communication pattern* of one job: given a
:class:`repro.mpi.engine.RankContext` it yields the MPI operations of that
rank.  It also exposes analytic descriptions of its communication intensity —
the per-burst *peak ingress volume* and the expected per-rank message volume —
which back the Table I metrics and let tests validate the measured numbers.
"""

from __future__ import annotations

import abc
import numbers
from typing import TYPE_CHECKING, Iterator, List, Sequence, Tuple
if TYPE_CHECKING:  # pragma: no cover - engine imports workloads at runtime
    from repro.mpi.engine import RankContext, RankOp


import numpy as np

__all__ = [
    "Application",
    "balanced_grid",
    "check_scale",
    "grid_coords",
    "grid_rank",
    "neighbors_nd",
]


def check_scale(scale: float) -> None:
    """Reject a message-volume ``scale`` that is not a positive number.

    Every application applies this rule at construction, and
    :class:`~repro.experiments.configs.AppSpec` applies it when a job is
    described.
    """
    if not isinstance(scale, numbers.Real) or not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")


# ------------------------------------------------------------------- grids
def balanced_grid(num_ranks: int, dims: int) -> List[int]:
    """Factor ``num_ranks`` into ``dims`` factors as balanced as possible.

    The factors are returned largest-first and multiply to ``num_ranks``
    exactly.  Trailing dimensions may be 1 when the rank count has too few
    divisors — the same situation the paper notes for Stencil5D's "imperfect
    multidimensional process cube".
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be positive")
    if dims < 1:
        raise ValueError("dims must be positive")
    shape = [1] * dims
    remaining = num_ranks
    for axis in range(dims):
        remaining_axes = dims - axis
        target = round(remaining ** (1.0 / remaining_axes))
        best = 1
        for candidate in range(min(target, remaining), 0, -1):
            if remaining % candidate == 0:
                best = candidate
                break
        # Also look upward for a divisor closer to the balanced target.
        for candidate in range(target + 1, remaining + 1):
            if remaining % candidate == 0:
                if abs(candidate - target) < abs(best - target):
                    best = candidate
                break
        shape[axis] = best
        remaining //= best
    shape[-1] *= remaining
    shape.sort(reverse=True)
    assert int(np.prod(shape)) == num_ranks
    return shape


def grid_coords(rank: int, shape: Sequence[int]) -> Tuple[int, ...]:
    """Coordinates of ``rank`` in a row-major grid of ``shape``."""
    coords = []
    remaining = rank
    for extent in reversed(shape):
        coords.append(remaining % extent)
        remaining //= extent
    return tuple(reversed(coords))


def grid_rank(coords: Sequence[int], shape: Sequence[int]) -> int:
    """Rank of ``coords`` in a row-major grid of ``shape``."""
    rank = 0
    for coordinate, extent in zip(coords, shape):
        if not 0 <= coordinate < extent:
            raise ValueError(f"coordinate {coordinate} outside extent {extent}")
        rank = rank * extent + coordinate
    return rank


def neighbors_nd(rank: int, shape: Sequence[int]) -> Iterator[Tuple[int, int, int]]:
    """Nearest neighbours of ``rank`` in a non-periodic N-D grid.

    Yields ``(neighbor_rank, dimension, direction)`` with direction ±1.
    Edge/surface ranks have fewer neighbours, exactly like the non-periodic
    process grids used by the paper's stencil applications.
    """
    coords = list(grid_coords(rank, shape))
    for dim, extent in enumerate(shape):
        for direction in (-1, 1):
            coordinate = coords[dim] + direction
            if 0 <= coordinate < extent:
                neighbor = coords.copy()
                neighbor[dim] = coordinate
                yield grid_rank(neighbor, shape), dim, direction


# -------------------------------------------------------------- application
class Application(abc.ABC):
    """Base class of every workload.

    Parameters common to all applications:

    ``num_ranks``
        Number of MPI ranks (== number of nodes the job occupies).
    ``iterations``
        Number of main communication iterations.
    ``scale``
        Multiplier applied to every message size; used to shrink the paper's
        GB-scale volumes to benchmark-friendly sizes without changing the
        communication structure.
    ``seed``
        Per-application random seed (only used by stochastic patterns).
    """

    #: Communication-pattern label used in reports (Table I, column 1).
    pattern = "generic"
    #: Default name (subclasses override).
    name = "application"

    def __init__(self, num_ranks: int, iterations: int = 1, scale: float = 1.0, seed: int = 0):
        if num_ranks < 1:
            raise ValueError("an application needs at least one rank")
        if iterations < 1:
            raise ValueError("iterations must be positive")
        check_scale(scale)
        self.num_ranks = num_ranks
        self.iterations = iterations
        self.scale = float(scale)
        self.seed = seed

    # ------------------------------------------------------------ interface
    @abc.abstractmethod
    def program(self, ctx: "RankContext") -> Iterator["RankOp"]:
        """Rank program generator (yield MPI operations for ``ctx.rank``)."""

    @abc.abstractmethod
    def peak_ingress_bytes(self) -> int:
        """Peak ingress volume: bytes a rank injects back-to-back in one burst.

        This is the paper's second intensity metric (Table I, last column):
        the consecutive message size handed to the network at once, e.g.
        ``neighbours × message size`` for a stencil, one message for the ring
        all-to-all, two for LU and the tree allreduce.
        """

    @abc.abstractmethod
    def message_volume_per_rank(self) -> int:
        """Analytic estimate of the payload bytes one interior rank sends."""

    # ------------------------------------------------------------- utilities
    def scaled(self, size_bytes: float) -> int:
        """Apply the volume scale factor to a message size (min. one byte)."""
        return max(1, int(round(size_bytes * self.scale)))

    def total_message_volume(self) -> int:
        """Analytic total payload volume over all ranks."""
        return self.message_volume_per_rank() * self.num_ranks

    def describe(self) -> dict:
        """Static description used by reports and DESIGN/EXPERIMENTS docs."""
        return {
            "name": self.name,
            "pattern": self.pattern,
            "num_ranks": self.num_ranks,
            "iterations": self.iterations,
            "scale": self.scale,
            "peak_ingress_bytes": self.peak_ingress_bytes(),
            "message_volume_per_rank": self.message_volume_per_rank(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(ranks={self.num_ranks}, iterations={self.iterations})"
