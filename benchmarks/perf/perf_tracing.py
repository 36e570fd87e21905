"""Spans and a sampling profiler that live in the harness, outside ``src/repro``.

A :class:`Tracer` records one span per call the harness makes into a public
``repro`` function (name, start, end, parent, workload, repetition) and keeps
them in memory until the run ends.  Spans are also how the harness times those
calls when tracing is off — they cost two ``perf_counter`` reads per public
call, a few dozen per repetition — so traced and untraced runs share one code
path and differ only in whether the :class:`Sampler` is armed.

The :class:`Sampler` splits the time *inside* ``Scenario.run`` (which the
harness cannot see into from outside) among the ``repro`` packages: a
``SIGPROF``/``ITIMER_PROF`` timer fires every 2 ms of process CPU time and the
handler charges the sample to the innermost frame whose file is under
``repro/<package>/``.  cProfile was measured at 4.2x slowdown on these
workloads and is rejected for that reason; this sampler costs 1.0–1.1x.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import FrameType
from typing import Dict, Iterator, List, Optional

#: Sampling period, seconds of process CPU time.
SAMPLE_INTERVAL_S = 0.002

#: Layer charged when no frame of the sampled stack is ``repro`` code.
OTHER_LAYER = "other"


@dataclass
class Span:
    """One timed call: ``end - start`` seconds of wall time on this process."""

    id: int
    parent: Optional[int]
    name: str
    workload: str
    repetition: int
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "workload": self.workload,
            "repetition": self.repetition,
            "start": self.start,
            "end": self.end,
            **self.attrs,
        }


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self) -> None:
        self.workload = ""  # set once the workload is built
        self.repetition = -1  # -1 = outside the timed repetitions (set-up, probes)
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Record a span around the ``with`` body (also when the body raises)."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            parent=parent,
            name=name,
            workload=self.workload,
            repetition=self.repetition,
            start=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self, repetition: int) -> Dict[str, float]:
        """Self time per span name in one repetition: duration minus children."""
        spans = [s for s in self.spans if s.repetition == repetition]
        child_time: Dict[int, float] = {}
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        totals: Dict[str, float] = {}
        for span in spans:
            own = span.duration - child_time.get(span.id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals


def layer_of(filename: str) -> Optional[str]:
    """``repro`` package a source file belongs to, or None for foreign code."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    rest = filename[at + len(marker):]
    head, sep, _ = rest.partition("/")
    # Top-level modules (repro/config.py, repro/cli.py) are their own layer.
    return head if sep else head.removesuffix(".py")


class Sampler:
    """CPU-time stack sampler attributing samples to ``repro`` packages.

    Arm it with :meth:`running` around the calls to be split; samples
    accumulate in :attr:`counts` under the label given to each arm.  Must run
    on the main thread (signal handlers do), which is where the harness makes
    every call.
    """

    def __init__(self) -> None:
        #: arm label -> layer -> samples
        self.counts: Dict[str, Dict[str, int]] = {}
        self._bucket: Dict[str, int] = {}
        self._layers: Dict[str, Optional[str]] = {}

    def _on_sample(self, signum: int, frame: Optional[FrameType]) -> None:
        layers = self._layers
        layer: Optional[str] = None
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename in layers:
                layer = layers[filename]
            else:
                layer = layers[filename] = layer_of(filename)
            if layer is not None:
                break
            frame = frame.f_back
        key = layer if layer is not None else OTHER_LAYER
        self._bucket[key] = self._bucket.get(key, 0) + 1

    @contextmanager
    def running(self, label: str) -> Iterator[None]:
        self._bucket = self.counts.setdefault(label, {})
        previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def shares(self, layers: List[str]) -> Dict[str, float]:
        """Share of all samples per named layer, the rest under ``other``."""
        shares = {layer: 0.0 for layer in [*layers, OTHER_LAYER]}
        # No CPU sample at all (a cold sweep sleeps on its workers): all zero.
        total = sum(sum(bucket.values()) for bucket in self.counts.values()) or 1
        for bucket in self.counts.values():
            for layer, count in bucket.items():
                shares[layer if layer in layers else OTHER_LAYER] += count / total
        return shares
