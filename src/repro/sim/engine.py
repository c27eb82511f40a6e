"""The discrete-event scheduler at the heart of the simulator.

The design is deliberately minimal: a binary heap of :class:`Event` objects
ordered by ``(time, sequence_number)``.  The sequence number makes event
ordering total and deterministic — two events scheduled for the same instant
fire in the order they were scheduled, which in turn makes whole simulations
reproducible for a given seed.

Cancellation is *lazy*: cancelled events stay in the heap but are skipped when
popped.  This keeps :meth:`Simulator.cancel` O(1), which matters because MAC
timeouts are cancelled far more often than they fire.  Lazy cancellation alone,
however, lets the heap fill with dead events (every successful CTS/ACK leaves
one behind), inflating every subsequent push/pop by the log of the garbage.
The simulator therefore *compacts* the heap — filters out cancelled events and
re-heapifies — whenever the cancelled fraction crosses a threshold.  Compaction
only removes events that would have been skipped anyway and preserves the
``(time, seq)`` order of the survivors, so the executed-event sequence (and
with it, determinism) is unchanged.

Restartable timers avoid the heap on most restarts.  An event carries its
current key, and its heap entry may lag behind it:

* :meth:`Simulator.disarm` stops an event without cancelling it: its key is
  cleared, and its entry is dropped if it reaches the top still disarmed;
* :meth:`Simulator.rekey` gives a pending or disarmed event that is still in
  the heap a new key no earlier than its entry's, without a push; the entry
  is re-filed under the new key when it reaches the top.

A key that a caller wants to use later can be taken now with
:meth:`reserve_seq` and pushed with :meth:`schedule_reserved`.  Either way an
event fires at exactly the ``(time, seq)`` an eager cancel-and-
:meth:`schedule_at` would have given it, so the executed sequence is
unchanged.  :meth:`Simulator.run` counts callbacks run; dropping or
re-filing a stale entry and skipping a cancelled event run no callback and
are not counted.
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

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "owner", "queued")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        owner: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        # The key the event fires at; None while disarmed (see disarm()).
        self.seq: Optional[int] = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.owner = owner
        # True while a heap entry refers to this event (see Simulator.rekey).
        self.queued = False

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancelled()

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
    so entries group naturally by component class.
    """

    key: str
    calls: int
    wall_s: float


@dataclass(frozen=True)
class SimulatorStats:
    """Cheap lifetime counters for benchmarking the event engine."""

    executed: int  # events whose callback ran
    cancelled: int  # cancel() calls on not-yet-cancelled events
    skipped: int  # cancelled events discarded at pop time
    stale: int  # entries of disarmed or re-keyed events dropped or re-filed
    compactions: int  # heap rebuilds that purged cancelled events
    pending: int  # heap entries (live, cancelled and stale)
    pending_cancelled: int  # cancelled events currently in the heap
    #: Per-callback wall-clock attribution, sorted by wall time descending;
    #: None unless :meth:`Simulator.enable_profiling` was called.
    profile: Optional[Tuple[ProfileEntry, ...]] = None


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

    Parameters
    ----------
    compact_min_heap:
        Never compact below this heap size (a rebuild of a tiny heap costs
        more in constant factors than the garbage does).
    compact_ratio:
        Compact once cancelled events exceed this fraction of the heap.
    """

    def __init__(
        self,
        compact_min_heap: int = 256,
        compact_ratio: float = 0.5,
    ) -> None:
        if not 0.0 < compact_ratio <= 1.0:
            raise SimulationError("compact_ratio must be in (0, 1]")
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
        self._compact_min_heap = max(1, compact_min_heap)
        self._compact_ratio = compact_ratio
        # Lifetime counters (see stats()).
        self._cancelled_in_heap = 0
        self._executed_total = 0
        self._cancelled_total = 0
        self._skipped_total = 0
        self._stale_total = 0
        self._compactions = 0
        # Opt-in wall-clock profiling: None means off, and the run loop
        # chooses a branch *once per run() call*, so the off path executes
        # exactly the pre-profiler instruction sequence (zero cost).
        # Keyed by callback __qualname__; value is [calls, wall_seconds].
        self._profile: Optional[Dict[str, List[float]]] = None

    @property
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    def stats(self) -> SimulatorStats:
        """Lifetime engine counters (events executed / cancelled / ...)."""
        return SimulatorStats(
            executed=self._executed_total,
            cancelled=self._cancelled_total,
            skipped=self._skipped_total,
            stale=self._stale_total,
            compactions=self._compactions,
            pending=len(self._heap),
            pending_cancelled=self._cancelled_in_heap,
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
        event.owner = self
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
        event = Event(time, seq, fn, args, self)
        event.queued = True
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def rekey(self, event: Event, time: float, seq: Optional[int] = None) -> bool:
        """Give a pending or disarmed ``event`` the key ``(time, seq)``
        without a heap push.

        ``seq`` is a number from :meth:`reserve_seq` taken after the event's
        current key was given; by default the next one is taken now, as
        :meth:`schedule_at` would.  The move is possible only while the
        event is still in the heap and ``time`` is no earlier than its
        current key's.  Returns False, without taking a number or changing
        anything, when it is not possible.
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

        Unlike :meth:`cancel` this is not a cancellation: the event's heap
        entry goes stale and is dropped, uncounted by ``skipped``, if it
        reaches the top before a rekey arms the event again.
        """
        event.seq = None

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        event.cancel()

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`.

        The in-heap cancelled count can overestimate if an event is cancelled
        *after* it fired (a no-op semantically); compaction resets the count
        from truth, so the drift is self-healing and only ever makes
        compaction slightly eager.
        """
        self._cancelled_total += 1
        self._cancelled_in_heap += 1
        heap_size = len(self._heap)
        if (
            heap_size >= self._compact_min_heap
            and self._cancelled_in_heap >= self._compact_ratio * heap_size
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify.

        Safe at any point (including from inside a running event): the run
        loop re-reads the heap on every iteration, survivors keep their
        ``(time, seq)`` identity, and only events that would have been
        skipped at pop time are removed — the executed sequence is untouched.
        """
        kept = []
        for entry in self._heap:
            if entry[2].cancelled:
                entry[2].queued = False
            else:
                kept.append(entry)
        heapq.heapify(kept)
        self._heap = kept
        self._cancelled_in_heap = 0
        self._compactions += 1

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
            time; the clock is advanced to ``until``.
        max_events:
            Safety valve: stop after executing this many events.

        Returns
        -------
        int
            The number of event callbacks run.  Skipping a cancelled event
            and dropping or re-filing a stale entry (see :meth:`rekey`) run
            no callback and count neither here nor towards ``max_events``.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        executed = 0
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        profile = self._profile
        # The loop is duplicated rather than branched per event: profiling
        # must be *zero*-cost when off, so the unprofiled path keeps exactly
        # the original instruction sequence.  Both loops pop, skip and
        # advance identically; the profiled one only adds observation.
        try:
            if profile is None:
                while self._heap and not self._stopped:
                    entry = self._heap[0]
                    event = entry[2]
                    if event.cancelled:
                        heappop(self._heap)
                        event.queued = False
                        self._skipped_total += 1
                        self._cancelled_in_heap -= 1
                        continue
                    if entry[1] != event.seq:
                        # Stale entry: drop it if the event is disarmed,
                        # else re-file it under the event's new key.
                        self._stale_total += 1
                        if event.seq is None:
                            heappop(self._heap)
                            event.queued = False
                        else:
                            heapreplace(self._heap, (event.time, event.seq, event))
                        continue
                    if until is not None and entry[0] > until:
                        break
                    heappop(self._heap)
                    event.queued = False
                    self.now = entry[0]
                    event.fn(*event.args)
                    executed += 1
                    if max_events is not None and executed >= max_events:
                        break
            else:
                # Operator-facing wall-clock attribution; never feeds
                # simulation state, which runs purely on sim.now.
                clock = time.perf_counter  # repro-lint: disable=DET001
                while self._heap and not self._stopped:
                    entry = self._heap[0]
                    event = entry[2]
                    if event.cancelled:
                        heappop(self._heap)
                        event.queued = False
                        self._skipped_total += 1
                        self._cancelled_in_heap -= 1
                        continue
                    if entry[1] != event.seq:
                        # Stale entry: drop it if the event is disarmed,
                        # else re-file it under the event's new key.
                        self._stale_total += 1
                        if event.seq is None:
                            heappop(self._heap)
                            event.queued = False
                        else:
                            heapreplace(self._heap, (event.time, event.seq, event))
                        continue
                    if until is not None and entry[0] > until:
                        break
                    heappop(self._heap)
                    event.queued = False
                    self.now = entry[0]
                    fn = event.fn
                    start_wall = clock()
                    fn(*event.args)
                    elapsed = clock() - start_wall
                    key = getattr(fn, "__qualname__", "") or type(fn).__qualname__
                    acc = profile.get(key)
                    if acc is None:
                        profile[key] = [1.0, elapsed]
                    else:
                        acc[0] += 1.0
                        acc[1] += elapsed
                    executed += 1
                    if max_events is not None and executed >= max_events:
                        break
            if until is not None and not self._stopped and self.now < until:
                self.now = until
            return executed
        finally:
            self._executed_total += executed
            self._running = False
