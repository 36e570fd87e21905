"""Unit tests of the discrete-event engine."""

import pytest

from repro.core.engine import SimulationError, Simulator
from repro.core.events import EventKind


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30.0, fired.append, "c")
    sim.schedule(10.0, fired.append, "a")
    sim.schedule(20.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30.0


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for label in range(10):
        sim.schedule(5.0, fired.append, label)
    sim.run()
    assert fired == list(range(10))


def test_zero_delay_event_fires_after_current():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, fired.append, "nested")

    sim.schedule(1.0, first)
    sim.schedule(1.0, fired.append, "second")
    sim.run()
    assert fired == ["first", "second", "nested"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(5.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "early")
    sim.schedule(100.0, fired.append, "late")
    sim.run(until=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_when_calendar_drains_early():
    # Documented semantics: run(until=t) always ends with now == t unless cut
    # short by stop() or max_events — even if the calendar drains before t.
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "only")
    assert sim.run(until=50.0) == 50.0
    assert sim.now == 50.0
    assert fired == ["only"]
    # Scheduling resumes from the advanced clock.
    handle = sim.schedule(5.0, fired.append, "later")
    assert handle.time == 55.0


def test_last_event_time_tracks_fired_events_not_idle_advance():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=50.0)
    assert sim.now == 50.0
    assert sim.last_event_time == 10.0  # watchdog callers report completion
    sim.schedule(5.0, lambda: None)  # fires at t=55
    sim.run()
    assert sim.last_event_time == sim.now == 55.0


def test_run_until_advances_clock_on_empty_calendar():
    sim = Simulator()
    assert sim.run(until=25.0) == 25.0
    assert sim.now == 25.0


def test_stop_and_max_events_do_not_advance_to_until():
    sim = Simulator()
    sim.schedule(1.0, sim.stop)
    assert sim.run(until=100.0) == 1.0

    sim2 = Simulator()
    sim2.schedule(1.0, lambda: None)
    sim2.schedule(2.0, lambda: None)
    assert sim2.run(until=100.0, max_events=1) == 1.0


def test_run_max_events_limit():
    sim = Simulator()
    for i in range(20):
        sim.schedule(float(i), lambda: None)
    sim.run(max_events=7)
    assert sim.events_fired == 7


def test_stop_terminates_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1]
    assert sim.pending_events == 1


def test_drain_discards_pending_events():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.drain() == 2
    assert sim.run() == 0.0


def test_trace_records_event_kinds():
    sim = Simulator(trace=True)
    sim.schedule(1.0, lambda: None, kind=EventKind.NIC_INJECT)
    sim.run()
    assert len(sim.trace_log) == 1
    assert sim.trace_log[0][1] == EventKind.NIC_INJECT


def test_push_fires_without_a_handle():
    sim = Simulator()
    fired = []
    sim.push(5.0, fired.append, ("pushed",))
    sim.schedule(5.0, fired.append, "scheduled")
    sim.run()
    assert fired == ["pushed", "scheduled"]
    assert sim.events_fired == 2


def test_reserved_slot_is_visible_to_later_seq_only():
    sim = Simulator()
    seen = []
    slot = []

    def probe(label):
        seen.append((label, sim.reached(10.0, slot[0])))

    sim.schedule(5.0, probe, "earlier time")
    sim.schedule(10.0, probe, "earlier seq")
    slot.append(sim.reserve(10.0))
    sim.schedule(10.0, probe, "later seq")
    sim.schedule(11.0, probe, "later time")
    sim.run()
    assert seen == [
        ("earlier time", False),
        ("earlier seq", False),
        ("later seq", True),
        ("later time", True),
    ]
    assert sim.events_fired == 4  # the slot itself is not an event


def test_pushed_reserved_slot_fires_under_its_own_key():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "before")
    seq = sim.reserve(10.0)
    sim.schedule(10.0, fired.append, "after")
    sim.push_reserved(10.0, seq, lambda: fired.append(("slot", sim.reached(10.0, seq))),
                      (), EventKind.CREDIT_RETURN)
    sim.run()
    assert fired == ["before", ("slot", True), "after"]


def _eager_and_reserved(event_times, slot_times, **run_kwargs):
    """``(now, last_event_time)`` with the slots as events, then as reserved slots.

    The first is what a kernel that made every slot its own event reports.
    """
    clocks = []
    for reserve in (False, True):
        sim = Simulator()
        for time in event_times:
            sim.schedule_at(time, lambda: None)
        for time in slot_times:
            if reserve:
                sim.reserve(time)
            else:
                sim.schedule_at(time, lambda: None)
        sim.run(**run_kwargs)
        clocks.append((sim.now, sim.last_event_time))
    return clocks


@pytest.mark.parametrize(
    "until, expected",
    [
        (None, (30.0, 30.0)),  # no bound: the clock ends on the last slot
        (50.0, (50.0, 30.0)),  # a window: drained early, idles to the bound
        (25.0, (25.0, 25.0)),  # a watchdog: expires before the last slot
        (30.0, (30.0, 30.0)),  # a bound exactly on the last slot
    ],
)
def test_drain_over_reserved_slots_matches_eager_events(until, expected):
    eager, reserved = _eager_and_reserved([10.0], [20.0, 30.0], until=until)
    assert reserved == eager == expected


def test_run_until_over_reserved_slots_then_resume():
    sim = Simulator()
    seq = sim.reserve(40.0)
    sim.schedule(10.0, lambda: None)
    assert sim.run(until=20.0) == 20.0
    assert not sim.reached(40.0, seq)
    sim.schedule(5.0, lambda: None)
    assert sim.run() == 40.0
    assert sim.reached(40.0, seq)
    assert sim.last_event_time == 40.0


def test_run_is_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()
