"""Restartable timers layered on top of the event scheduler.

Protocol code (MAC timeouts, route-discovery backoff, cache sweeps) wants a
timer object it can start, cancel and restart without tracking raw
:class:`~repro.sim.engine.Event` handles.  These helpers provide that.

A :class:`Timer` keeps one event for as long as it can.  Cancelling
disarms that event (:meth:`~repro.sim.engine.Simulator.disarm`); restarting
moves it to the new deadline with :meth:`~repro.sim.engine.Simulator.rekey`
while its heap entry is still there and the deadline does not move
earlier — the common pattern of a MAC backoff that is paused and resumed.
Only a timer whose entry has left the heap, or whose deadline moves
earlier, pushes a new event.  Each deadline gets the tie-break number an
eager cancel-and-schedule would have taken, so the timer fires at exactly
the same point of the event order.  A timer therefore holds at most one
heap entry at a time.

A :class:`PeriodicTimer` is a :class:`Timer` that restarts itself on every
tick.  Both expose the function they call as ``callback``, which is what
the engine profiler names their events by.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator


class Timer:
    """A one-shot, restartable timer.

    ``start`` on a running timer reschedules it (the previous deadline is
    superseded), which is the semantics every protocol timeout here needs.
    """

    def __init__(self, sim: Simulator, fn: Callable[..., Any]):
        self._sim = sim
        self._fn = fn
        # The timer's event: pending, or disarmed and possibly still in the
        # heap (and then reusable); None once it has fired.
        self._event: Optional[Event] = None

    @property
    def callback(self) -> Callable[..., Any]:
        """The function the timer calls when it fires."""
        return self._fn

    @property
    def running(self) -> bool:
        """True if the timer is pending and will fire unless cancelled."""
        return self._event is not None and self._event.seq is not None

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time the timer will fire, or None if not running."""
        if self.running:
            assert self._event is not None
            return self._event.time
        return None

    def start(self, delay: float, *args: Any) -> None:
        """(Re)arm the timer to fire ``delay`` seconds from now."""
        self._arm(self._sim.now + delay, None, args)

    def start_at(self, time: float, seq: int, *args: Any) -> None:
        """(Re)arm the timer to fire at the key ``(time, seq)``, where
        ``seq`` was taken earlier with
        :meth:`~repro.sim.engine.Simulator.reserve_seq`: the timer fires
        where an event scheduled at reservation time would have."""
        self._arm(time, seq, args)

    def _arm(self, time: float, seq: Optional[int], args: tuple) -> None:
        sim = self._sim
        event = self._event
        if event is not None:
            if sim.rekey(event, time, seq):
                event.args = (args,)
                return
            sim.disarm(event)
        if seq is None:
            self._event = sim.schedule_at(time, self._fire, args)
        else:
            self._event = sim.schedule_reserved(time, seq, self._fire, args)

    def cancel(self) -> None:
        """Disarm the timer if it is pending."""
        if self._event is not None:
            self._sim.disarm(self._event)

    def _fire(self, args: tuple) -> None:
        self._event = None
        self._fn(*args)


class PeriodicTimer:
    """A timer that re-arms itself every ``period`` seconds until stopped.

    Used, e.g., for the paper's cache-expiry sweep that runs every 0.5 s.
    """

    def __init__(self, sim: Simulator, period: float, fn: Callable[[], Any]):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = period
        self._fn = fn
        self._timer = Timer(sim, self._tick)

    @property
    def callback(self) -> Callable[[], Any]:
        """The function called on every tick."""
        return self._fn

    @property
    def running(self) -> bool:
        return self._timer.running

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Start ticking.  The first tick fires after ``initial_delay``
        (default: one full period)."""
        self._timer.start(self.period if initial_delay is None else initial_delay)

    def stop(self) -> None:
        self._timer.cancel()

    def _tick(self) -> None:
        self._timer.start(self.period)
        self._fn()
