"""The discrete-event scheduler at the heart of the simulator.

The design is deliberately minimal: a binary heap of :class:`Event` objects
ordered by ``(time, sequence_number)``.  The sequence number makes event
ordering total and deterministic — two events scheduled for the same instant
fire in the order they were scheduled, which in turn makes whole simulations
reproducible for a given seed.

An event carries its current key, and its heap entry may lag behind it.
There is one way to retire an event before it fires: clear its key.

* :meth:`Simulator.disarm` stops an event but keeps it for a later
  :meth:`~Simulator.rekey`;
* :meth:`Simulator.cancel` (or :meth:`Event.cancel`) stops it for good;
* :meth:`Simulator.rekey` gives a pending or disarmed event that is still in
  the heap a new key no earlier than its entry's, without a push.

Each of these leaves the event's heap entry stale.  When a stale entry
reaches the top, the run loop re-files it under the event's new key or, if
the event has no key, drops it.  So each call is O(1) and adds no heap
entry, and restartable timers (:mod:`repro.sim.timers`) avoid the heap on
most restarts.

A key that a caller wants to use later can be taken now with
:meth:`reserve_seq` and pushed with :meth:`schedule_reserved`.  Either way an
event fires at exactly the ``(time, seq)`` an eager cancel-and-
:meth:`schedule_at` would have given it, so the executed sequence is
unchanged.  :meth:`Simulator.run` counts callbacks run; dropping or
re-filing a stale entry runs no callback and is not counted.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    Events compare by ``(time, seq)`` so the heap ordering is total and
    deterministic.  Use :meth:`cancel` to prevent a pending event from firing.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "queued")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
    ) -> None:
        self.time = time
        # The key the event fires at; None while disarmed or once cancelled.
        self.seq: Optional[int] = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # True while a heap entry refers to this event (see Simulator.rekey).
        self.queued = False

    def cancel(self) -> None:
        """Stop the event for good: it never fires and cannot be re-armed."""
        self.cancelled = True
        self.seq = None

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} seq={self.seq} fn={name}{state}>"


@dataclass(frozen=True)
class ProfileEntry:
    """Wall-clock attribution for one event-callback identity.

    ``key`` is the callback's ``__qualname__`` (e.g. ``DcfMac._defer_expired``)
    so entries group naturally by component class.  A timer's events are
    keyed by the function the timer calls, not by the timer's own method.
    """

    key: str
    calls: int
    wall_s: float


@dataclass(frozen=True)
class SimulatorStats:
    """Lifetime counters for benchmarking the event engine."""

    executed: int  # events whose callback ran
    cancelled: int  # events cancelled while in the heap
    skipped: int  # entries of cancelled events dropped at the top
    stale: int  # entries of disarmed or re-keyed events dropped or re-filed
    pending: int  # heap entries (live and stale)
    #: Per-callback wall-clock attribution, sorted by wall time descending;
    #: None unless :meth:`Simulator.enable_profiling` was called.
    profile: Optional[Tuple[ProfileEntry, ...]] = None


def _callback_name(fn: Callable[..., Any]) -> str:
    """The profile key of an event callback: its ``__qualname__``, except
    that an event firing a timer (:mod:`repro.sim.timers`) is named after
    the function the timer calls, which the timer exposes as ``callback``."""
    owner = getattr(fn, "__self__", None)
    if hasattr(owner, "callback"):
        return _callback_name(owner.callback)
    return getattr(fn, "__qualname__", "") or type(fn).__qualname__


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        # Heap entries are (time, seq, event) tuples: the heap invariant is
        # maintained with C-level float/int comparisons instead of a Python
        # __lt__ call per sift step, and seq uniqueness guarantees the event
        # object itself is never compared.
        self._heap: list[tuple[float, int, Event]] = []
        # ``now`` is a plain attribute, not a property: it is read on every
        # timestamp/emit/defer decision (hundreds of thousands of times per
        # run) and the descriptor indirection is measurable.  Treat it as
        # read-only outside the simulator.
        self.now = 0.0
        self._seq = 0
        self._running = False
        self._stopped = False
        # Lifetime counters (see stats()).
        self._executed_total = 0
        self._skipped_total = 0
        self._stale_total = 0
        # Opt-in wall-clock profiling: None means off.  Keyed by
        # _callback_name(); value is [calls, wall_seconds].
        self._profile: Optional[Dict[str, List[float]]] = None

    @property
    def pending_events(self) -> int:
        """Number of entries still in the heap (including stale ones)."""
        return len(self._heap)

    def stats(self) -> SimulatorStats:
        """Lifetime engine counters (events executed / cancelled / ...)."""
        in_heap = sum(1 for entry in self._heap if entry[2].cancelled)
        return SimulatorStats(
            executed=self._executed_total,
            cancelled=self._skipped_total + in_heap,
            skipped=self._skipped_total,
            stale=self._stale_total,
            pending=len(self._heap),
            profile=self.profile_entries(),
        )

    # -- opt-in wall-clock profiling --------------------------------------

    def enable_profiling(self) -> None:
        """Attribute wall-clock and call counts to event callbacks.

        Profiling observes wall time only — it never touches simulation
        state or event ordering, so metrics are bit-identical with it on.
        Accumulation survives multiple :meth:`run` calls until
        :meth:`disable_profiling`.
        """
        if self._profile is None:
            self._profile = {}

    def disable_profiling(self) -> None:
        """Stop profiling and discard the accumulated attribution."""
        self._profile = None

    @property
    def profiling_enabled(self) -> bool:
        return self._profile is not None

    def profile_entries(self) -> Optional[Tuple[ProfileEntry, ...]]:
        """Accumulated per-callback attribution (None when profiling is off),
        sorted by wall time descending, ties broken by key for determinism."""
        if self._profile is None:
            return None
        entries = [
            ProfileEntry(key=key, calls=int(acc[0]), wall_s=acc[1])
            for key, acc in self._profile.items()
        ]
        entries.sort(key=lambda entry: (-entry.wall_s, entry.key))
        return tuple(entries)

    @staticmethod
    def _profiled_call(
        profile: Dict[str, List[float]], fn: Callable[..., Any], args: tuple
    ) -> None:
        """Run ``fn(*args)`` and charge its wall time to its profile row."""
        # Operator-facing wall-clock attribution; never feeds simulation
        # state, which runs purely on sim.now.
        clock = time.perf_counter  # repro-lint: disable=DET001
        start = clock()
        fn(*args)
        elapsed = clock() - start
        key = _callback_name(fn)
        acc = profile.get(key)
        if acc is None:
            profile[key] = [1.0, elapsed]
        else:
            acc[0] += 1.0
            acc[1] += elapsed

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        seq = self._seq + 1
        self._seq = seq
        # Build the event without routing through Event.__init__: this is
        # the hottest allocation in the engine and the extra call frame per
        # schedule shows up in whole-run profiles.
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.fn = fn
        event.args = args
        event.cancelled = False
        event.queued = True
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def reserve_seq(self) -> int:
        """Take the next tie-break number without scheduling anything.

        An event later pushed with it (:meth:`schedule_reserved`, or moved
        to it with :meth:`rekey`) fires exactly where one scheduled now
        with :meth:`schedule_at` would have.
        """
        seq = self._seq + 1
        self._seq = seq
        return seq

    def schedule_reserved(
        self, time: float, seq: int, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``fn(*args)`` at the key ``(time, seq)``, where ``seq``
        came from :meth:`reserve_seq`.

        The key must still lie ahead of the event being executed: ``time``
        later than now, or equal to now with ``seq`` reserved after the
        current event was scheduled.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        if seq > self._seq:
            raise SimulationError(f"tie-break number {seq} was never reserved")
        event = Event(time, seq, fn, args)
        event.queued = True
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def rekey(self, event: Event, time: float, seq: Optional[int] = None) -> bool:
        """Give a pending or disarmed ``event`` the key ``(time, seq)``
        without a heap push.

        ``seq`` is a number from :meth:`reserve_seq` taken after the event's
        current key was given; by default the next one is taken now, as
        :meth:`schedule_at` would.  The move is possible only while the
        event is still in the heap, has not been cancelled, and ``time`` is
        no earlier than its current key's.  Returns False, without taking a
        number or changing anything, when it is not possible.
        """
        if not event.queued or event.cancelled or time < event.time:
            return False
        if seq is None:
            seq = self._seq + 1
            self._seq = seq
        event.time = time
        event.seq = seq
        return True

    def disarm(self, event: Event) -> None:
        """Stop ``event`` from firing but keep it for a later :meth:`rekey`.

        Its heap entry goes stale and is dropped, counted by ``stale``, if
        it reaches the top before a rekey arms the event again.
        """
        event.seq = None

    def cancel(self, event: Event) -> None:
        """Cancel a pending event for good (no-op if it already fired).

        Like :meth:`disarm`, but the event cannot be re-armed, and its
        entry is counted by ``skipped`` when it is dropped.
        """
        event.cancel()

    def stop(self) -> None:
        """Stop the run loop after the currently executing event returns."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events in order.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after this
            time; the clock is then advanced to ``until``.
        max_events:
            Safety valve: stop after executing this many events.  The clock
            stays at the last event run while another is due by ``until``.

        Returns
        -------
        int
            The number of event callbacks run.  Dropping or re-filing a
            stale entry (see :meth:`rekey` and :meth:`cancel`) runs no
            callback and counts neither here nor towards ``max_events``.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        executed = 0
        heap = self._heap
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        profile = self._profile
        try:
            while heap and not self._stopped:
                entry = heap[0]
                event = entry[2]
                if entry[1] != event.seq:
                    # Stale entry: re-file it under the event's new key, or
                    # drop it if the event is disarmed or cancelled.
                    if event.seq is not None:
                        self._stale_total += 1
                        heapreplace(heap, (event.time, event.seq, event))
                        continue
                    heappop(heap)
                    event.queued = False
                    if event.cancelled:
                        self._skipped_total += 1
                    else:
                        self._stale_total += 1
                    continue
                if until is not None and entry[0] > until:
                    break
                if max_events is not None and executed >= max_events:
                    # An event is due by ``until``: the clock stays put.
                    return executed
                heappop(heap)
                event.queued = False
                self.now = entry[0]
                if profile is None:
                    event.fn(*event.args)
                else:
                    self._profiled_call(profile, event.fn, event.args)
                executed += 1
            if until is not None and not self._stopped and self.now < until:
                self.now = until
            return executed
        finally:
            self._executed_total += executed
            self._running = False
