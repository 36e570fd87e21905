"""Deterministic discrete-event simulation engine.

The engine is a classic calendar built on :mod:`heapq`.  Time is measured in
nanoseconds (floats).  Determinism guarantees:

* events scheduled for the same time fire in the order they were scheduled;
* all randomness lives in :mod:`repro.core.rng`, never in the engine.

The engine is deliberately minimal: components schedule callbacks, the engine
fires them.  There is no process abstraction — higher layers (the MPI engine,
NICs, routers) implement their own state machines on top of callbacks.

Every event is ordered by its *key* ``(time, seq)``: ``seq`` is a counter
handed out in scheduling order, so it is unique and breaks time ties FIFO.
While an event fires, :attr:`Simulator.now` and :attr:`Simulator.now_seq`
hold its key.

Three ways to use a key:

* :meth:`Simulator.push` — fire-and-forget.  It allocates no handle and
  takes the callback's arguments as one tuple.  Link deliveries, routing
  feedback and MPI completions use it.
* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — a thin
  wrapper over ``push`` that returns a cancellable :class:`EventHandle`.
* :meth:`Simulator.reserve` — take a key without pushing anything.  A
  component that owns such a *reserved slot* treats it as having happened
  once :meth:`Simulator.reached` says the current key has reached it.  Only
  if somebody is waiting on it does the component push a real event with
  :meth:`Simulator.push_reserved`, under the same key.  Links use this for
  credit returns and link-free callbacks, which mostly find nobody waiting
  (see :mod:`repro.network.link`).  When the calendar drains, and at
  ``run(until=...)``, the clock moves over reserved slots exactly as if they
  had fired.

``max_events`` and :attr:`Simulator.events_fired` count calendar events
actually fired.  Reserved slots nobody waited on are not counted.  That
makes a packet run fire 33–60% fewer events than when every credit return
and link-free callback was its own event; every simulated time is
unchanged.

Implementation note: the calendar holds plain ``[time, seq, callback, args,
kind]`` lists rather than event objects.  Heap ordering compares ``time`` then
``seq`` (which is unique, so comparison never reaches the callback), and
cancellation nulls out the callback slot in place.  This keeps the per-event
cost of the hot loop — millions of heap pushes/pops per run — to plain list
indexing instead of dataclass construction and ``__lt__`` dispatch.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.core.events import EventKind

__all__ = ["EventHandle", "Simulator", "SimulationError"]

#: Calendar entry layout: [time, seq, callback, args, kind].
_TIME, _SEQ, _CALLBACK, _ARGS, _KIND = range(5)

_GENERIC = EventKind.GENERIC
_heappush = heapq.heappush


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Holding the handle allows the caller to cancel the event before it fires.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    @property
    def time(self) -> float:
        """Scheduled firing time in nanoseconds."""
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this handle."""
        return self._entry[_CALLBACK] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._entry[_CALLBACK] = None


class Simulator:
    """Single-threaded discrete-event simulator.

    Parameters
    ----------
    trace:
        When true, every fired event is appended to :attr:`trace_log` as a
        ``(time, kind, callback_name)`` tuple.  Only intended for debugging
        and small tests — tracing a large run is expensive.
    """

    def __init__(self, trace: bool = False):
        self._heap: List[list] = []
        #: Current simulated time in nanoseconds.
        self.now: float = 0.0
        #: ``seq`` of the event firing now.  Between runs every key handed
        #: out so far up to :attr:`now` counts as reached (see :meth:`reached`).
        self.now_seq: int = -1
        self._seq: int = 0
        #: Latest time of any reserved slot: where a drained calendar's last
        #: logical event happened if it was a reserved slot.
        self._horizon: float = 0.0
        self._fired: int = 0
        self._running = False
        self._stopped = False
        self._idled_from: Optional[float] = None
        self.trace = trace
        self.trace_log: list[tuple[float, EventKind, str]] = []

    # ------------------------------------------------------------------ time
    @property
    def last_event_time(self) -> float:
        """Time of the most recently fired event.

        Equals :attr:`now` except after a ``run(until=...)`` whose calendar
        drained early, where :attr:`now` idled forward to ``until`` while the
        last event fired earlier.  Callers that use ``until`` as a watchdog
        cutoff (rather than a simulation window) should report this as the
        completion time.  Reserved slots count as fired events here.
        """
        return self._idled_from if self._idled_from is not None else self.now

    @property
    def events_fired(self) -> int:
        """Total number of calendar events fired so far."""
        return self._fired

    @property
    def pending_events(self) -> int:
        """Number of events still in the calendar (including cancelled)."""
        return len(self._heap)

    def reached(self, time: float, seq: int) -> bool:
        """Whether the current key ``(now, now_seq)`` has reached ``(time, seq)``.

        A reserved slot at the current timestamp is visible to the event that
        holds its key and to later-``seq`` events, never to earlier ones.
        """
        now = self.now
        return time < now or (time == now and seq <= self.now_seq)

    # ------------------------------------------------------------- scheduling
    # reprolint: hot
    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        kind: EventKind = _GENERIC,
    ) -> list:
        """Fire ``callback(*args)`` at absolute ``time``; no handle, no checks.

        The caller guarantees ``time >= now``.  Returns the calendar entry.
        """
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback, args, kind]
        _heappush(self._heap, entry)
        return entry

    # reprolint: hot
    def reserve(self, time: float) -> int:
        """Take the key ``(time, seq)`` for a reserved slot; returns ``seq``.

        Nothing is pushed.  The caller guarantees ``time >= now``.
        """
        seq = self._seq
        self._seq = seq + 1
        if time > self._horizon:
            self._horizon = time
        return seq

    def push_reserved(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        kind: EventKind,
    ) -> None:
        """Turn the reserved slot ``(time, seq)`` into a real calendar event."""
        _heappush(self._heap, [time, seq, callback, args, kind])

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        kind: EventKind = _GENERIC,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` ns from now.

        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current timestamp.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay!r}")
        return EventHandle(self.push(self.now + delay, callback, args, kind))

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        kind: EventKind = _GENERIC,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self.now}"
            )
        return EventHandle(self.push(float(time), callback, args, kind))

    # -------------------------------------------------------------- execution
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the calendar drains, ``until`` is reached, or ``max_events`` fire.

        Returns the simulated time at which the run stopped.  ``until`` is an
        absolute time; events scheduled exactly at ``until`` still fire.

        ``until`` semantics: the clock always reaches ``until`` unless the run
        was cut short by :meth:`stop` or ``max_events``.  In particular, when
        the calendar drains *before* ``until`` the clock still advances to
        ``until`` — the system simply sat idle for the remainder — so
        ``run(until=t)`` post-condition ``now == t`` holds whether or not any
        event fired near the bound.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        self._idled_from = None
        bound = float("inf") if until is None else until
        limit = -1 if max_events is None else max_events
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        trace = self.trace
        try:
            # reprolint: hot
            # Entries are indexed with literals (see the layout above): no
            # global lookup per event.
            while heap:
                entry = heap[0]
                if entry[0] > bound or fired == limit:
                    break
                pop(heap)
                callback = entry[2]
                if callback is None:
                    continue
                self.now = entry[0]
                self.now_seq = entry[1]
                if trace:
                    name = getattr(callback, "__qualname__", repr(callback))
                    self.trace_log.append((entry[0], entry[4], name))
                callback(*entry[3])
                fired += 1
                if self._stopped:
                    break
        finally:
            self._fired += fired
            self._running = False
        if self._stopped or (heap and heap[0][0] <= bound):
            # Cut short by stop() or max_events: the clock stays put.
            return self.now
        # Every reserved slot up to the stopping point counts as fired.
        self.now_seq = self._seq
        if heap:
            # The next event lies beyond `until`.
            self.now = bound
        else:
            last = max(self.now, self._horizon)
            if last <= bound:
                self.now = last
                if until is not None and last < until:
                    # Calendar drained before the bound: idle out to `until`,
                    # remembering where the last event actually fired.
                    self._idled_from = last
                    self.now = until
            else:
                # A reserved slot lies beyond `until`.
                self.now = bound
        return self.now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def drain(self) -> int:
        """Discard all pending calendar events.  Returns the number discarded."""
        count = len(self._heap)
        self._heap.clear()
        return count

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.1f}ns, pending={len(self._heap)}, "
            f"fired={self._fired})"
        )
