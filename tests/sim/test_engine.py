"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(1.5, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for name in ("a", "b", "c"):
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(3.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [3.5]
    assert sim.now == 3.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "in")
    sim.schedule(5.0, fired.append, "out")
    sim.run(until=2.0)
    assert fired == ["in"]
    assert sim.now == 2.0  # clock advanced to the horizon
    sim.run()  # remaining event still runs later
    assert fired == ["in", "out"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "no")
    sim.schedule(2.0, fired.append, "yes")
    event.cancel()
    sim.run()
    assert fired == ["yes"]


def test_cancel_via_simulator_api():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.5, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.5


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_stop_halts_the_loop():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    assert sim.pending_events == 1


def test_max_events_limit():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    executed = sim.run(max_events=4)
    assert executed == 4


def test_run_returns_count_of_executed_events():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    event = sim.schedule(2.0, lambda: None)
    event.cancel()
    sim.schedule(3.0, lambda: None)
    assert sim.run() == 2


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    seen = []
    sim.schedule(0.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.0]


def test_run_until_with_max_events_keeps_clock_at_last_event():
    """A run cut short by max_events must not move the clock past events
    still due by ``until``: the next run would set it back."""
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule_at(t, fired.append, t)
    assert sim.run(until=10.0, max_events=1) == 1
    assert sim.now == 1.0
    sim.run()
    assert fired == [1.0, 2.0, 3.0]
    assert sim.now == 3.0


def test_run_until_with_max_events_advances_when_nothing_is_due():
    sim = Simulator()
    sim.schedule_at(1.0, lambda: None)
    sim.cancel(sim.schedule_at(2.0, lambda: None))
    sim.schedule_at(20.0, lambda: None)
    assert sim.run(until=10.0, max_events=1) == 1
    assert sim.now == 10.0


def test_cancel_during_run_preserves_execution_order():
    """Cancelling from inside a run must not reorder the surviving events."""
    sim = Simulator()
    fired = []
    for i in range(0, 100, 2):
        sim.schedule(float(i), fired.append, i)
    doomed = [sim.schedule(float(i), fired.append, i) for i in range(1, 100, 2)]
    sim.schedule(0.5, lambda: [event.cancel() for event in doomed])
    sim.run()
    assert fired == list(range(0, 100, 2))
    assert sim.stats().skipped == 50


def test_cancel_churn_during_run_preserves_execution_order():
    """Victims scheduled and cancelled from inside the run, each due between
    two live events, leave the live order untouched."""
    sim = Simulator()
    fired = []

    def churn():
        for i in range(500):
            sim.schedule(float(i), fired.append, i)
            sim.cancel(sim.schedule(float(i) + 0.25, fired.append, -i))

    sim.schedule(0.0, churn)
    sim.run()
    assert fired == list(range(500))


def test_cancelled_event_cannot_be_rekeyed():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    assert not sim.rekey(event, 2.0)
    sim.run()
    assert fired == []


def test_stats_counters():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    victim = sim.schedule(2.0, lambda: None)
    victim.cancel()
    victim.cancel()  # idempotent: must not double-count
    sim.run()
    stats = sim.stats()
    assert stats.executed == 1
    assert stats.cancelled == 1
    assert stats.skipped == 1
    assert stats.pending == 0
