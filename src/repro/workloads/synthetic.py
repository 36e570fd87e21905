"""Synthetic traffic patterns: the classic interconnect-study workload family.

The paper's proxy applications all carry *application-shaped* traffic.  The
interconnect literature complements them with a family of *synthetic*
patterns whose destination structure is chosen adversarially or statistically
(permutation, shift, bit-complement, transpose, hotspot, bursty ON/OFF), used
to probe regimes the application catalog does not reach — e.g. a single
overloaded ejection port (hotspot) or a background that oscillates between
silence and full load (bursty).

Every pattern derives from :class:`SyntheticPattern`, a normal
:class:`~repro.workloads.base.Application`: one small message per rank per
iteration, destinations given by a *shared destination map* that every rank
recomputes deterministically from ``(seed, iteration)``.  Because the map is
shared, each rank knows exactly which sources target it and posts matching
receives — arbitrary destination distributions (hotspot's collisions
included) work without any out-of-band coordination, generalizing the
shared-permutation trick of :class:`~repro.workloads.uniform_random.UniformRandom`.

The family composes with everything built on the ``Application`` ABC:
placement policies, every routing algorithm, pairwise/mixed studies, sweeps
and the result store.  Registry names are lowercase (``"hotspot"``,
``"bit-complement"``, …) so scenario presets read naturally
(``pairwise/UR+hotspot``).

Every pattern additionally supports an **offered-load mode**: constructing it
with ``offered_load=0.4`` switches :meth:`SyntheticPattern.program` to the
:class:`ContinuousInjection` driver, which injects open-loop at 40% of the
terminal link bandwidth *indefinitely* — the setup behind steady-state
latency-vs-offered-load curves.  Such runs are bounded by the simulation
config's warmup/measurement window rather than by rank completion (see
``SimulationConfig.measurement_ns``).
"""

from __future__ import annotations

import math
import numbers
import zlib
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple
if TYPE_CHECKING:  # pragma: no cover - engine imports workloads at runtime
    from repro.mpi.engine import RankContext, RankOp


import numpy as np

from repro.workloads.base import Application

__all__ = [
    "BitComplement",
    "Bursty",
    "ContinuousInjection",
    "Hotspot",
    "Permutation",
    "Shift",
    "SyntheticPattern",
    "Transpose",
    "check_offered_load",
]


def check_offered_load(offered_load: Optional[float]) -> None:
    """Reject an ``offered_load`` that is neither ``None`` nor a fraction in (0, 1].

    Every synthetic pattern applies this rule at construction, and
    :class:`~repro.experiments.configs.AppSpec` applies it when a job is
    described.
    """
    if offered_load is not None and not (
        isinstance(offered_load, numbers.Real) and 0.0 < offered_load <= 1.0
    ):
        raise ValueError(
            f"offered_load must be in (0, 1] (a fraction of the terminal "
            f"link bandwidth), got {offered_load!r}"
        )


class ContinuousInjection:
    """Open-loop injection driver: one pattern at a fixed *offered load*.

    Instead of a fixed message count, every rank injects one message per
    injection period, where the period is chosen so the average injection
    rate equals ``offered_load`` × the terminal link bandwidth — the classic
    open-loop setup behind latency-vs-offered-load curves.  Sends are never
    waited on (the load is *offered* whether or not the network keeps up),
    receives are never posted (arrivals park in the MPI unexpected-message
    queue), and the loop never terminates: the run must be bounded by a
    measurement window (``SimulationConfig.measurement_ns``) or another stop
    condition, which the experiment runner enforces.
    """

    def __init__(self, pattern: "SyntheticPattern", offered_load: float):
        self.pattern = pattern
        self.offered_load = float(offered_load)

    def period_ns(self, ctx: "RankContext") -> float:
        """Injection period (ns per iteration) realizing the offered load.

        Scaled by the pattern's long-run :meth:`SyntheticPattern.send_fraction`
        so gated patterns (bursty's OFF phases) still *average* the offered
        load: their ON-phase instantaneous rate is proportionally higher.
        """
        system = ctx.engine.config.system
        message = self.pattern.scaled(self.pattern.message_bytes)
        period = message / (self.offered_load * system.link_bandwidth_bytes_per_ns)
        return period * self.pattern.send_fraction()

    def program(self, ctx: "RankContext") -> Iterator["RankOp"]:
        pattern = self.pattern
        message = pattern.scaled(pattern.message_bytes)
        threshold = ctx.engine.config.eager_threshold_bytes
        if message > threshold:
            # Rendezvous needs a posted receive to progress; an open-loop
            # sender posts none, so the load would silently never be offered.
            raise ValueError(
                f"continuous injection requires eager messages: message size "
                f"{message} exceeds eager_threshold_bytes={threshold}"
            )
        period = self.period_ns(ctx)
        iteration = 0
        while True:
            if pattern.sends_in(iteration):
                dests = pattern._destinations_cached(iteration)
                # Every rank advances in lockstep (identical period), so maps
                # older than the previous iteration can never be needed again.
                pattern._dest_maps.pop(iteration - 2, None)
                pattern._source_maps.pop(iteration - 2, None)
                target = int(dests[ctx.rank])
                if 0 <= target < pattern.num_ranks and target != ctx.rank:
                    ctx.isend(target, message, tag=iteration)
            yield ctx.compute(period)
            iteration += 1


class SyntheticPattern(Application):
    """Base class of the synthetic traffic family.

    Each iteration every rank sends one ``message_bytes`` message to the
    destination given by :meth:`destinations` (a map shared by all ranks) and
    receives from every rank that targeted it.  Subclasses define the
    destination structure; :meth:`sends_in` gates iterations on/off (used by
    the bursty pattern).  A destination equal to the sender (or negative)
    means the rank stays silent that iteration.
    """

    name = "synthetic"
    pattern = "synthetic"

    def __init__(
        self,
        num_ranks: int,
        message_bytes: int = 2 * 1024,
        iterations: int = 30,
        compute_ns: float = 250.0,
        scale: float = 1.0,
        seed: int = 0,
        offered_load: Optional[float] = None,
    ):
        super().__init__(num_ranks, iterations=iterations, scale=scale, seed=seed)
        if message_bytes < 1:
            raise ValueError("message size must be positive")
        check_offered_load(offered_load)
        self.message_bytes = message_bytes
        self.compute_ns = float(compute_ns)
        #: When set, the pattern runs in :class:`ContinuousInjection` mode:
        #: open-loop injection at this fraction of terminal bandwidth,
        #: indefinitely, instead of ``iterations`` closed-loop exchanges.
        self.offered_load = float(offered_load) if offered_load is not None else None
        # One application instance is shared by every rank of a job, and the
        # destination map is a pure function of (seed, iteration): memoize it
        # so one rank's computation serves the whole job (O(n) per iteration
        # instead of O(n^2)).  Bounded by `iterations` entries.
        self._dest_maps: Dict[int, np.ndarray] = {}
        # Memoized inverse of each destination map: senders stably sorted by
        # destination plus the per-destination offsets, so a rank's source
        # list is one O(1) slice instead of an O(n) scan — without it every
        # rank scans the whole map and an iteration costs O(n^2) overall,
        # the difference between seconds and minutes at 100k ranks.
        self._source_maps: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # ----------------------------------------------------------- the pattern
    def destinations(self, iteration: int) -> np.ndarray:
        """Shared destination map: ``dest[i]`` is the target of rank ``i``.

        Every rank computes the identical array from ``(seed, iteration)``
        alone, so senders and receivers agree without coordination.
        """
        raise NotImplementedError

    def sends_in(self, iteration: int) -> bool:
        """Whether ``iteration`` is a sending (ON) iteration."""
        return True

    def send_fraction(self) -> float:
        """Long-run fraction of iterations that inject (1.0 = every one).

        Continuous-injection mode divides its period by this so a gated
        pattern still offers its configured *average* load.  (Self-targeting
        draws — e.g. a hotspot rank drawing itself, probability ~1/n — are a
        property of the destination distribution and are not compensated.)
        """
        return 1.0

    def _rng(self, iteration: int) -> np.random.Generator:
        """Deterministic per-iteration RNG shared by every rank.

        The seed mixes a per-class salt (crc32 of the pattern name —
        stable across processes, unlike ``hash()``), so two patterns — or a
        pattern and UR — co-running under the same application seed draw
        *different* destination streams instead of silently synchronizing.
        """
        salt = zlib.crc32(type(self).name.encode("utf-8"))
        return np.random.default_rng(((self.seed + 1) * 1_000_003 + iteration, salt))

    def _destinations_cached(self, iteration: int) -> np.ndarray:
        cached = self._dest_maps.get(iteration)
        if cached is None:
            cached = self.destinations(iteration)
            self._dest_maps[iteration] = cached
        return cached

    def sources_of(self, rank: int, iteration: int) -> np.ndarray:
        """Ranks targeting ``rank`` in ``iteration``, in ascending order.

        Equivalent to ``np.flatnonzero(destinations(iteration) == rank)``
        but served from a shared stable-sorted inverse map, so the whole
        job's receive matching costs O(n log n) once per iteration instead
        of O(n) per rank (O(n²) per iteration in total).
        """
        inverse = self._source_maps.get(iteration)
        if inverse is None:
            dests = self._destinations_cached(iteration)
            # Stable sort keeps equal destinations in ascending-sender order,
            # so each slice reproduces flatnonzero's ordering exactly.
            order = np.argsort(dests, kind="stable").astype(np.int64)
            starts = np.searchsorted(dests[order], np.arange(self.num_ranks + 1))
            inverse = (order, starts)
            self._source_maps[iteration] = inverse
        order, starts = inverse
        if not 0 <= rank < self.num_ranks:
            return np.empty(0, dtype=np.int64)
        return order[starts[rank] : starts[rank + 1]]

    # -------------------------------------------------------------- program
    def program(self, ctx: "RankContext") -> Iterator["RankOp"]:
        if self.offered_load is not None:
            return ContinuousInjection(self, self.offered_load).program(ctx)
        return self._fixed_program(ctx)

    def _fixed_program(self, ctx: "RankContext") -> Iterator["RankOp"]:
        message = self.scaled(self.message_bytes)
        for iteration in range(self.iterations):
            ctx.begin_iteration(iteration)
            if self.sends_in(iteration):
                dests = self._destinations_cached(iteration)
                requests = []
                target = int(dests[ctx.rank])
                if 0 <= target < self.num_ranks and target != ctx.rank:
                    requests.append(ctx.isend(target, message, tag=iteration))
                for source in self.sources_of(ctx.rank, iteration):
                    if int(source) != ctx.rank:
                        requests.append(ctx.irecv(int(source), tag=iteration))
                if requests:
                    yield ctx.waitall(requests)
            if self.compute_ns > 0:
                yield ctx.compute(self.compute_ns)
            ctx.end_iteration()

    # ------------------------------------------------------------- intensity
    def send_iterations(self) -> int:
        """Number of iterations in which ranks inject traffic."""
        return sum(1 for i in range(self.iterations) if self.sends_in(i))

    def peak_ingress_bytes(self) -> int:
        # One message at a time, like UR: the family stresses *where* traffic
        # goes (and when), not per-burst volume.
        return self.scaled(self.message_bytes)

    def message_volume_per_rank(self) -> int:
        return self.scaled(self.message_bytes) * self.send_iterations()

    # ---------------------------------------------------------------- extras
    def pattern_metrics(self) -> Dict[str, float]:
        """Numeric pattern knobs recorded per-app by ``flatten_run``."""
        metrics = {"send_iterations": float(self.send_iterations())}
        if self.offered_load is not None:
            metrics["offered_load"] = self.offered_load
        return metrics


class Permutation(SyntheticPattern):
    """One fixed random derangement: every rank always targets the same peer.

    The canonical adversarial pattern for minimal routing on a Dragonfly —
    a fixed pairing concentrates each flow on one minimal path for the whole
    run, so adaptive algorithms must spread it non-minimally.  The pairing
    is a *derangement* (no rank maps to itself), so every rank participates
    for the whole run and the analytic volume estimate is exact.
    """

    name = "permutation"
    pattern = "permutation"

    def __init__(self, num_ranks: int, **kwargs: Any):
        super().__init__(num_ranks, **kwargs)
        # Iteration-independent: the pairing is drawn once from the seed,
        # then fixed points are cycled among themselves (a lone fixed point
        # swaps with another slot) until none remain.
        perm = self._rng(-1).permutation(self.num_ranks)
        while self.num_ranks > 1:
            fixed = np.flatnonzero(perm == np.arange(self.num_ranks))
            if fixed.size == 0:
                break
            if fixed.size == 1:
                other = (int(fixed[0]) + 1) % self.num_ranks
                perm[[int(fixed[0]), other]] = perm[[other, int(fixed[0])]]
            else:
                perm[fixed] = perm[np.roll(fixed, 1)]
        self._pairing = perm

    def destinations(self, iteration: int) -> np.ndarray:
        return self._pairing


class Shift(SyntheticPattern):
    """Cyclic shift: rank ``i`` targets ``(i + shift) mod n``.

    ``shift=None`` (the default) redraws the shift uniformly from
    ``[1, n-1]`` every iteration (*random-shift*), sweeping traffic across
    group boundaries; a fixed ``shift`` gives the classic static pattern.
    """

    name = "shift"
    pattern = "shift"

    def __init__(self, num_ranks: int, shift: Optional[int] = None, **kwargs: Any):
        super().__init__(num_ranks, **kwargs)
        if shift is not None and int(shift) % max(num_ranks, 1) == 0:
            raise ValueError("a fixed shift must be non-zero modulo the rank count")
        self.shift = int(shift) if shift is not None else None

    def destinations(self, iteration: int) -> np.ndarray:
        n = self.num_ranks
        if n == 1:
            return np.zeros(1, dtype=int)
        if self.shift is not None:
            offset = self.shift % n
        else:
            offset = int(self._rng(iteration).integers(1, n))
        return (np.arange(n) + offset) % n

    def pattern_metrics(self) -> Dict[str, float]:
        metrics = super().pattern_metrics()
        if self.shift is not None:
            metrics["shift"] = float(self.shift)
        return metrics


class BitComplement(SyntheticPattern):
    """Bit-complement: rank ``i`` targets ``~i`` within the rank bit-width.

    On power-of-two rank counts this is the textbook worst case for
    dimension-ordered networks (every rank crosses the bisection); other
    counts wrap the complement modulo ``n``, which keeps the long-haul
    structure while every rank still participates.
    """

    name = "bit-complement"
    pattern = "bit-complement"

    def destinations(self, iteration: int) -> np.ndarray:
        n = self.num_ranks
        bits = max(1, (n - 1).bit_length())
        mask = (1 << bits) - 1
        return (np.arange(n) ^ mask) % n


class Transpose(SyntheticPattern):
    """Matrix transpose: swap the high and low halves of the rank's bits.

    Rank ``(r, c)`` of the implicit square grid targets ``(c, r)`` — the
    communication skeleton of a distributed matrix transpose (and of FFT
    corner turns), which concentrates traffic on the grid's anti-diagonal.
    """

    name = "transpose"
    pattern = "transpose"

    def destinations(self, iteration: int) -> np.ndarray:
        n = self.num_ranks
        bits = max(2, (n - 1).bit_length())
        half = bits // 2
        low_mask = (1 << half) - 1
        ranks = np.arange(n)
        return (((ranks & low_mask) << (bits - half)) | (ranks >> half)) % n


class Hotspot(SyntheticPattern):
    """Uniform-random traffic with a fraction aimed at a few hot ranks.

    Each iteration every rank draws a uniform-random destination, but with
    probability ``hot_fraction`` the destination is redrawn from the first
    ``num_hot`` ranks — modelling a popular server, a parallel-FS gateway or
    an incast endpoint.  The hot ranks' ejection ports saturate long before
    the fabric does, which is exactly the regime the paper's application
    catalog never enters.
    """

    name = "hotspot"
    pattern = "hotspot"

    def __init__(
        self,
        num_ranks: int,
        hot_fraction: float = 0.25,
        num_hot: int = 1,
        **kwargs: Any,
    ):
        super().__init__(num_ranks, **kwargs)
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 1 <= num_hot <= num_ranks:
            raise ValueError("num_hot must be in [1, num_ranks]")
        self.hot_fraction = float(hot_fraction)
        self.num_hot = int(num_hot)

    def destinations(self, iteration: int) -> np.ndarray:
        rng = self._rng(iteration)
        n = self.num_ranks
        dests = rng.integers(0, n, size=n)
        to_hot = rng.random(n) < self.hot_fraction
        count = int(to_hot.sum())
        if count:
            dests[to_hot] = rng.integers(0, self.num_hot, size=count)
        return dests

    def pattern_metrics(self) -> Dict[str, float]:
        metrics = super().pattern_metrics()
        metrics["hot_fraction"] = self.hot_fraction
        metrics["num_hot"] = float(self.num_hot)
        return metrics


class Bursty(SyntheticPattern):
    """ON/OFF uniform-random traffic with duty-cycle and burst-length knobs.

    Iterations are grouped into periods of ``burst_length / duty_cycle``
    iterations: the first ``burst_length`` of each period inject one
    uniform-random-permutation message per rank (ON), the remainder only
    compute (OFF).  ``duty_cycle=1`` degenerates to plain UR.  As a
    background workload this reproduces the oscillating interference the
    paper attributes to bursty neighbours.
    """

    name = "bursty"
    pattern = "bursty"

    def __init__(
        self,
        num_ranks: int,
        duty_cycle: float = 0.5,
        burst_length: int = 4,
        **kwargs: Any,
    ):
        super().__init__(num_ranks, **kwargs)
        if not 0.0 < duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be in (0, 1]")
        if burst_length < 1:
            raise ValueError("burst_length must be at least one iteration")
        self.duty_cycle = float(duty_cycle)
        self.burst_length = int(burst_length)
        # ceil: the integral period may only *lengthen* the OFF phase, so the
        # effective duty cycle never exceeds the requested one (rounding down
        # could silently degenerate to always-on, e.g. burst 2 at duty 0.8).
        self._period = max(self.burst_length, math.ceil(self.burst_length / self.duty_cycle))

    def sends_in(self, iteration: int) -> bool:
        return (iteration % self._period) < self.burst_length

    def send_fraction(self) -> float:
        return self.burst_length / self._period

    def destinations(self, iteration: int) -> np.ndarray:
        # A shared permutation per ON iteration (the UR trick): uniform-random
        # destinations with exactly one arrival per rank.
        return self._rng(iteration).permutation(self.num_ranks)

    def pattern_metrics(self) -> Dict[str, float]:
        metrics = super().pattern_metrics()
        metrics["duty_cycle"] = self.duty_cycle
        metrics["burst_length"] = float(self.burst_length)
        return metrics
