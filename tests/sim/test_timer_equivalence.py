"""Property: a re-keyed :class:`Timer` fires exactly like an eager one.

:class:`~repro.sim.timers.Timer` restarts by moving its event to a new key
and cancels by disarming it; :class:`~repro.sim.timers.PeriodicTimer` is
built on it.  The references below are the plain cancel-and-schedule
timer and periodic timer.  The same random script of starts, cancels,
restarts, periodic starts and stops, plain events and raw cancels of plain
events is run once with each, and the fired ``(time, callback)`` sequences
must be identical — order at equal times included, since that is where a
wrong tie-break number would show.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Event, Simulator
from repro.sim.timers import PeriodicTimer, Timer


class EagerTimer:
    """Cancel the pending event and schedule a new one on every start."""

    def __init__(self, sim: Simulator, fn: Callable[..., Any]):
        self._sim = sim
        self._fn = fn
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float, *args: Any) -> None:
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire, args)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self, args: tuple) -> None:
        self._event = None
        self._fn(*args)


class EagerPeriodicTimer:
    """Cancel the pending tick and schedule a new one on every start."""

    def __init__(self, sim: Simulator, period: float, fn: Callable[[], Any]):
        self._sim = sim
        self.period = period
        self._fn = fn
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, initial_delay: Optional[float] = None) -> None:
        self.stop()
        delay = self.period if initial_delay is None else initial_delay
        self._event = self._sim.schedule(delay, self._tick)

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        self._event = self._sim.schedule(self.period, self._tick)
        self._fn()


# The implementation under test and its reference.
REKEYED = (Timer, PeriodicTimer)
EAGER = (EagerTimer, EagerPeriodicTimer)

NUM_TIMERS = 3
PERIOD = 0.5
MAX_TICKS = 6
# Far past every scripted deadline; bounds a timer that never stops.
HORIZON = 100.0
# Few distinct values, so that deadlines and control instants often tie.
delays = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
instants = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 2.0, 3.0])
op = st.tuples(
    instants,
    st.sampled_from(
        ["start", "cancel", "event", "cancel_event", "periodic_start", "periodic_stop"]
    ),
    st.integers(min_value=0, max_value=NUM_TIMERS - 1),
    delays,
)
# What a timer does when it fires: nothing, or start a timer (itself included).
reaction = st.one_of(
    st.none(),
    st.tuples(st.integers(min_value=0, max_value=NUM_TIMERS - 1), delays),
)


class Script:
    """One simulator driven by a script of control operations."""

    def __init__(self, impl, on_timer: Optional[Callable[..., Any]] = None):
        timer_cls, periodic_cls = impl
        self.sim = sim = Simulator()
        self.fired: List[tuple] = []
        fire = on_timer or self._record
        self.timers = [
            timer_cls(sim, lambda label, i=i: fire(i, label)) for i in range(NUM_TIMERS)
        ]
        self.periodic = periodic_cls(sim, PERIOD, self._tick)
        self.ticks = 0
        self.events: List[Event] = []

    def _record(self, index: int, label: int) -> None:
        self.fired.append((self.sim.now, index, label))

    def _tick(self) -> None:
        # Bounded: the periodic timer stops itself after MAX_TICKS ticks.
        self.ticks += 1
        self.fired.append((self.sim.now, "tick", self.ticks))
        if self.ticks >= MAX_TICKS:
            self.periodic.stop()

    def control(self, step: int, kind: str, target: int, delay: float) -> None:
        sim = self.sim
        if kind == "start":
            self.timers[target].start(delay, step)
        elif kind == "cancel":
            self.timers[target].cancel()
        elif kind == "event":
            event = sim.schedule(delay, lambda: self.fired.append((sim.now, "event", step)))
            self.events.append(event)
        elif kind == "cancel_event":
            if self.events:
                event = self.events[target % len(self.events)]
                if step % 2:
                    sim.cancel(event)
                else:
                    event.cancel()
        elif kind == "periodic_start":
            self.periodic.start(None if target == 0 else delay)
        else:
            self.periodic.stop()

    def schedule(self, ops) -> None:
        for step, (at, kind, target, delay) in enumerate(ops):
            self.sim.schedule_at(at, self.control, step, kind, target, delay)

    def running(self) -> List[bool]:
        return [timer.running for timer in self.timers] + [self.periodic.running]


def run_script(impl, ops, reactions) -> Tuple[List[tuple], int, List[bool]]:
    rearms = [0] * NUM_TIMERS

    def on_timer(index: int, label: int) -> None:
        script.fired.append((script.sim.now, "timer", index, label))
        follow = reactions[index]
        if follow is not None and rearms[index] < 3:
            rearms[index] += 1
            target, delay = follow
            script.timers[target].start(delay, label + 100)

    script = Script(impl, on_timer)
    script.schedule(ops)
    executed = script.sim.run(until=HORIZON)
    return script.fired, executed, script.running()


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(op, min_size=1, max_size=25),
    reactions=st.lists(reaction, min_size=NUM_TIMERS, max_size=NUM_TIMERS),
)
def test_rekeyed_timer_fires_like_eager_timer(ops, reactions):
    assert run_script(REKEYED, ops, reactions) == run_script(EAGER, ops, reactions)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(op, min_size=1, max_size=25))
def test_equivalence_holds_when_run_in_slices(ops):
    """Stopping at ``until`` between stale entries must not change order."""

    def sliced(impl):
        script = Script(impl)
        script.schedule(ops)
        for until in (0.25, 0.6, 1.0, 1.9, HORIZON):
            script.sim.run(until=until)
        return script.fired, script.running()

    assert sliced(REKEYED) == sliced(EAGER)


def test_start_at_reserved_key_fires_where_reserved():
    """A key reserved early keeps its place among events at the same time
    that were scheduled after the reservation, however late it is armed."""
    sim = Simulator()
    fired: List[str] = []
    timer = Timer(sim, lambda: fired.append("timer"))
    sim.schedule_at(1.0, fired.append, "before")
    seq = sim.reserve_seq()
    sim.schedule_at(1.0, fired.append, "after")
    sim.schedule_at(0.5, timer.start_at, 1.0, seq)
    sim.run()
    assert fired == ["before", "timer", "after"]
