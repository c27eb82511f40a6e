"""Property: a re-keyed :class:`Timer` fires exactly like an eager one.

:class:`~repro.sim.timers.Timer` restarts by moving its event to a new key
and cancels by disarming it.  The reference below is the plain
cancel-and-schedule timer.  The same random script of starts, cancels,
restarts and plain events is run once with each, and the fired
``(time, callback)`` sequences must be identical — order at equal times
included, since that is where a wrong tie-break number would show.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Event, Simulator
from repro.sim.timers import Timer


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


NUM_TIMERS = 3
# Few distinct values, so that deadlines and control instants often tie.
delays = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
instants = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 2.0, 3.0])
op = st.tuples(
    instants,
    st.sampled_from(["start", "cancel", "event"]),
    st.integers(min_value=0, max_value=NUM_TIMERS - 1),
    delays,
)
# What a timer does when it fires: nothing, or start a timer (itself included).
reaction = st.one_of(
    st.none(),
    st.tuples(st.integers(min_value=0, max_value=NUM_TIMERS - 1), delays),
)


def run_script(timer_cls, ops, reactions) -> Tuple[List[tuple], int, List[bool]]:
    sim = Simulator()
    fired: List[tuple] = []
    timers: List[Any] = []
    rearms = [0] * NUM_TIMERS

    def on_timer(index: int, label: int) -> None:
        fired.append((sim.now, "timer", index, label))
        follow = reactions[index]
        if follow is not None and rearms[index] < 3:
            rearms[index] += 1
            target, delay = follow
            timers[target].start(delay, label + 100)

    for index in range(NUM_TIMERS):
        timers.append(timer_cls(sim, lambda label, index=index: on_timer(index, label)))

    def control(step: int, kind: str, target: int, delay: float) -> None:
        if kind == "start":
            timers[target].start(delay, step)
        elif kind == "cancel":
            timers[target].cancel()
        else:
            sim.schedule(delay, lambda: fired.append((sim.now, "event", step)))

    for step, (at, kind, target, delay) in enumerate(ops):
        sim.schedule_at(at, control, step, kind, target, delay)
    executed = sim.run()
    return fired, executed, [timer.running for timer in timers]


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(op, min_size=1, max_size=25),
    reactions=st.lists(reaction, min_size=NUM_TIMERS, max_size=NUM_TIMERS),
)
def test_rekeyed_timer_fires_like_eager_timer(ops, reactions):
    assert run_script(Timer, ops, reactions) == run_script(EagerTimer, ops, reactions)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(op, min_size=1, max_size=25))
def test_equivalence_holds_when_run_in_slices(ops):
    """Stopping at ``until`` between stale entries must not change order."""

    def sliced(timer_cls):
        sim = Simulator()
        fired: List[tuple] = []
        timers = [
            timer_cls(sim, lambda label, i=i: fired.append((sim.now, i, label)))
            for i in range(NUM_TIMERS)
        ]

        def control(step: int, kind: str, target: int, delay: float) -> None:
            if kind == "start":
                timers[target].start(delay, step)
            elif kind == "cancel":
                timers[target].cancel()
            else:
                sim.schedule(delay, lambda: fired.append((sim.now, "event", step)))

        for step, (at, kind, target, delay) in enumerate(ops):
            sim.schedule_at(at, control, step, kind, target, delay)
        for until in (0.25, 0.6, 1.0, 1.9, 10.0):
            sim.run(until=until)
        return fired

    assert sliced(Timer) == sliced(EagerTimer)


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
