"""A CSMA/CA MAC modelled on the IEEE 802.11 distributed coordination
function (DCF).

Simplifications relative to the full standard, none of which affect the
phenomena the paper studies:

* backoff is tracked as continuous remaining time rather than aligned slot
  boundaries (pause/resume semantics are preserved);
* a single retry counter per packet (default limit 7) instead of separate
  short/long counters;
* SIFS responses (CTS, ACK) are always attempted unless the radio is mid
  transmission.

The crucial behaviour for DSR — **link-layer failure feedback** — is exact:
when the retry limit is exhausted for a unicast packet, the MAC reports the
failed packet and next hop to the routing layer.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.mac.frames import Frame, FrameKind
from repro.mac.ifq import InterfaceQueue
from repro.mac.timing import MacTiming
from repro.net.addresses import BROADCAST
from repro.net.packet import Packet
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.sim.trace import Tracer


class _Attempt:
    """The unicast (or broadcast) currently being worked on."""

    __slots__ = ("packet", "next_hop", "retries", "seq")

    def __init__(self, packet: Packet, next_hop: int, seq: int):
        self.packet = packet
        self.next_hop = next_hop
        self.retries = 0
        self.seq = seq


class DcfMac:
    """Per-node DCF MAC instance.

    Upper-layer wiring (set by :class:`repro.net.node.Node`):

    * ``deliver(packet)`` — a decoded network packet addressed to this node
      (or broadcast).
    * ``promiscuous(packet)`` — an overheard data frame destined elsewhere.
    * ``on_unicast_success(packet, next_hop)`` — ACK received.
    * ``on_unicast_failure(packet, next_hop)`` — retry limit exhausted; this
      is DSR's link-break feedback.
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        radio: Radio,
        rng: np.random.Generator,
        timing: Optional[MacTiming] = None,
        tracer: Optional[Tracer] = None,
        queue_capacity: int = 50,
    ):
        self.node_id = node_id
        self._sim = sim
        self._radio = radio
        self._rng = rng
        self.timing = timing or MacTiming()
        self._tracer = tracer or Tracer()
        self.queue = InterfaceQueue(queue_capacity)
        radio.mac = self

        # Upper-layer callbacks (wired by the node).
        self.deliver: Callable[[Packet], None] = lambda packet: None
        self.promiscuous: Callable[[Packet], None] = lambda packet: None
        self.on_unicast_success: Callable[[Packet, int], None] = (
            lambda packet, next_hop: None
        )
        self.on_unicast_failure: Callable[[Packet, int], None] = (
            lambda packet, next_hop: None
        )

        self._current: Optional[_Attempt] = None
        self._awaiting: Optional[str] = None  # 'cts' | 'ack'
        self._cw = self.timing.cw_min
        self._backoff_remaining = 0.0
        self._defer_started: Optional[float] = None
        self._defer_ifs = self.timing.difs  # IFS in force for the current defer
        self._eifs_pending = False
        self._defer_timer = Timer(sim, self._defer_expired)
        self._response_timer = Timer(sim, self._response_timeout)
        # Virtual carrier sense.  _medium_free reads the NAV expiry; the
        # wake-up at the expiry is armed only while an attempt is in flight
        # (it cannot change anything otherwise), at the key reserved when
        # the NAV was last extended, so it fires where an eager one would.
        self._nav_until = 0.0
        self._nav_seq = 0
        self._nav_timer = Timer(sim, self.on_medium_change)
        self._seq = 0
        self._last_seq: Dict[int, int] = {}
        self._sync_edges()

    # ------------------------------------------------------------------
    # Upper-layer entry point
    # ------------------------------------------------------------------

    def enqueue(self, packet: Packet, next_hop: int) -> bool:
        """Queue a packet for transmission to ``next_hop`` (MAC address).

        Returns False if the interface queue dropped it.
        """
        accepted = self.queue.push(packet, next_hop)
        if not accepted and self._tracer.wants("ifq.drop"):
            self._tracer.emit(
                self._sim.now,
                "ifq.drop",
                node=self.node_id,
                pkt_kind=packet.kind.value,
                uid=packet.uid,
            )
        self._try_start()
        return accepted

    # ------------------------------------------------------------------
    # Transmit pipeline
    # ------------------------------------------------------------------

    def _try_start(self) -> None:
        if self._current is not None:
            return
        entry = self.queue.pop()
        if entry is None:
            return
        self._seq += 1
        self._current = _Attempt(entry.packet, entry.next_hop, self._seq)
        self._sync_edges()
        if self._nav_until > self._sim.now:
            self._nav_timer.start_at(self._nav_until, self._nav_seq)
        self._cw = self.timing.cw_min
        self._draw_backoff()
        self._begin_defer()

    def _draw_backoff(self) -> None:
        slots = int(self._rng.integers(0, self._cw + 1))
        self._backoff_remaining = slots * self.timing.slot

    def _medium_free(self) -> bool:
        radio = self._radio
        return (
            radio.heard == 0
            and radio.sending is None
            and self._sim.now >= self._nav_until
        )

    def _sync_edges(self) -> None:
        """Ask the radio for exactly the medium edges that can change our
        state: busy edges while the defer timer runs for an attempt (they
        pause it), free edges while an attempt waits to start deferring.
        ``on_medium_change`` is a no-op at every other edge."""
        radio = self._radio
        if self._current is None:
            radio.notify_busy = radio.notify_free = False
        else:
            deferring = self._defer_started is not None
            radio.notify_busy = deferring
            radio.notify_free = not deferring and self._awaiting is None

    def _begin_defer(self) -> None:
        if self._current is None or self._awaiting is not None:
            return
        # _defer_started is non-None exactly while the defer timer runs, and
        # testing the attribute is far cheaper than Timer.running.
        if self._defer_started is not None:
            return
        if not self._medium_free():
            return  # resumed by on_medium_change when the medium clears
        self._start_defer()

    def _start_defer(self) -> None:
        self._defer_started = self._sim.now
        self._defer_ifs = (
            self.timing.eifs
            if (self.timing.use_eifs and self._eifs_pending)
            else self.timing.difs
        )
        self._defer_timer.start(self._defer_ifs + self._backoff_remaining)
        radio = self._radio
        radio.notify_busy = True
        radio.notify_free = False

    def _pause_defer(self) -> None:
        # Called for every overheard NAV update: keep the idle test cheap.
        if self._defer_started is None:
            return
        elapsed = self._sim.now - self._defer_started
        consumed = max(0.0, elapsed - self._defer_ifs)
        self._backoff_remaining = max(0.0, self._backoff_remaining - consumed)
        self._defer_timer.cancel()
        self._defer_started = None
        radio = self._radio
        radio.notify_busy = False
        radio.notify_free = self._current is not None and self._awaiting is None

    def _defer_expired(self) -> None:
        self._defer_started = None
        if self._current is None:
            return
        self._sync_edges()
        if not self._medium_free():  # defensive: same-instant race
            self._begin_defer()
            return
        attempt = self._current
        packet_bytes = attempt.packet.size_bytes()
        timing = self.timing
        if attempt.next_hop == BROADCAST:
            frame = Frame(
                FrameKind.DATA,
                self.node_id,
                BROADCAST,
                duration=0.0,
                seq=attempt.seq,
                packet=attempt.packet,
            )
            self._transmit(frame, timing.data_airtime(packet_bytes))
        elif packet_bytes >= timing.rts_threshold:
            nav = (
                timing.cts_airtime
                + timing.data_airtime(packet_bytes)
                + timing.ack_airtime
                + 3 * timing.sifs
            )
            frame = Frame(
                FrameKind.RTS,
                self.node_id,
                attempt.next_hop,
                duration=nav,
                seq=attempt.seq,
            )
            self._transmit(frame, timing.rts_airtime)
        else:
            self._send_data_unicast()

    def _send_data_unicast(self) -> None:
        if self._current is None:
            return
        attempt = self._current
        timing = self.timing
        nav = timing.ack_airtime + timing.sifs
        frame = Frame(
            FrameKind.DATA,
            self.node_id,
            attempt.next_hop,
            duration=nav,
            seq=attempt.seq,
            packet=attempt.packet,
        )
        self._transmit(frame, timing.data_airtime(attempt.packet.size_bytes()))

    def _transmit(self, frame: Frame, airtime: float) -> None:
        if self._tracer.wants("mac.tx"):
            pkt_kind = frame.packet.kind.value if frame.packet is not None else None
            self._tracer.emit(
                self._sim.now,
                "mac.tx",
                node=self.node_id,
                frame_kind=frame.kind.value,
                dst=frame.dst,
                pkt_kind=pkt_kind,
            )
        self._radio.transmit(frame, airtime)

    # ------------------------------------------------------------------
    # Radio callbacks
    # ------------------------------------------------------------------

    def on_medium_change(self) -> None:
        """The radio's busy state (or the NAV) may have changed."""
        if self._current is None:
            # No attempt in flight: nothing to start or pause.  The radio
            # only calls in here when it can matter (see _sync_edges), but
            # a NAV wake-up or a custom radio may still arrive now.
            return
        if not self._medium_free():
            self._pause_defer()
        elif self._awaiting is None and self._defer_started is None:
            self._start_defer()

    def on_tx_complete(self, frame: Frame) -> None:
        """Our own frame just left the antenna; sequence the exchange."""
        attempt = self._current
        if attempt is None:
            return  # a SIFS response (CTS/ACK); nothing to sequence
        timing = self.timing
        if frame.kind is FrameKind.RTS and frame.seq == attempt.seq:
            self._awaiting = "cts"
            self._sync_edges()
            self._response_timer.start(timing.cts_timeout)
        elif frame.kind is FrameKind.DATA and frame.seq == attempt.seq:
            if frame.is_broadcast:
                self._finish_current(success=True)
            else:
                self._awaiting = "ack"
                self._sync_edges()
                self._response_timer.start(timing.ack_timeout)

    def on_corrupt_frame(self) -> None:
        """The radio heard a frame it could not decode: defer EIFS next
        (802.11's protection for the unseen exchange's ACK)."""
        if self.timing.use_eifs:
            self._eifs_pending = True

    def on_frame(self, frame: Frame) -> None:
        """A frame decoded by our radio."""
        self._eifs_pending = False  # a correct reception resets EIFS
        if frame.dst == self.node_id:
            self._on_frame_for_us(frame)
            return
        if frame.dst == BROADCAST:
            if frame.kind is FrameKind.DATA and frame.packet is not None:
                self.deliver(frame.packet)
            return
        # Overheard unicast traffic: honour the NAV, then snoop.
        if frame.duration > 0:
            self._set_nav(self._sim.now + frame.duration)
        if frame.kind is FrameKind.DATA and frame.packet is not None:
            self.promiscuous(frame.packet)

    def _on_frame_for_us(self, frame: Frame) -> None:
        timing = self.timing
        if frame.kind is FrameKind.RTS:
            cts = Frame(
                FrameKind.CTS,
                self.node_id,
                frame.src,
                duration=max(0.0, frame.duration - timing.cts_airtime - timing.sifs),
            )
            self._sim.schedule(timing.sifs, self._send_response, cts, timing.cts_airtime)
        elif frame.kind is FrameKind.CTS:
            if (
                self._awaiting == "cts"
                and self._current is not None
                and frame.src == self._current.next_hop
            ):
                self._response_timer.cancel()
                self._awaiting = None
                self._sync_edges()
                self._sim.schedule(timing.sifs, self._data_after_cts)
        elif frame.kind is FrameKind.DATA:
            ack = Frame(FrameKind.ACK, self.node_id, frame.src, duration=0.0)
            self._sim.schedule(timing.sifs, self._send_response, ack, timing.ack_airtime)
            if self._last_seq.get(frame.src) != frame.seq:
                self._last_seq[frame.src] = frame.seq
                if frame.packet is not None:
                    self.deliver(frame.packet)
        elif frame.kind is FrameKind.ACK:
            if self._awaiting == "ack" and self._current is not None:
                self._response_timer.cancel()
                self._awaiting = None
                self._finish_current(success=True)

    # ------------------------------------------------------------------
    # Exchange continuation and failure handling
    # ------------------------------------------------------------------

    def _send_response(self, frame: Frame, airtime: float) -> None:
        if self._radio.transmitting:
            return  # cannot respond mid-transmission; peer will retry
        self._transmit(frame, airtime)

    def _data_after_cts(self) -> None:
        if self._current is None:
            return
        if self._radio.transmitting:  # pragma: no cover - defensive
            self._handle_retry()
            return
        self._send_data_unicast()

    def _response_timeout(self) -> None:
        self._awaiting = None
        self._sync_edges()
        self._handle_retry()

    def _handle_retry(self) -> None:
        attempt = self._current
        if attempt is None:
            return
        attempt.retries += 1
        if attempt.retries > self.timing.retry_limit:
            self._finish_current(success=False)
            return
        self._cw = min(2 * (self._cw + 1) - 1, self.timing.cw_max)
        self._draw_backoff()
        self._begin_defer()

    def _finish_current(self, success: bool) -> None:
        attempt = self._current
        assert attempt is not None
        self._current = None
        self._awaiting = None
        self._sync_edges()
        self._nav_timer.cancel()
        self._cw = self.timing.cw_min
        if attempt.next_hop != BROADCAST:
            if success:
                self.on_unicast_success(attempt.packet, attempt.next_hop)
            else:
                if self._tracer.wants("mac.fail"):
                    self._tracer.emit(
                        self._sim.now,
                        "mac.fail",
                        node=self.node_id,
                        next_hop=attempt.next_hop,
                        pkt_kind=attempt.packet.kind.value,
                        uid=attempt.packet.uid,
                    )
                self.on_unicast_failure(attempt.packet, attempt.next_hop)
        self._try_start()

    # ------------------------------------------------------------------
    # NAV
    # ------------------------------------------------------------------

    def _set_nav(self, until: float) -> None:
        if until <= self._nav_until:
            return
        self._nav_until = until
        # The defer timer can run with no attempt in flight (our own
        # transmission's end may arm it), so pause it regardless.
        self._pause_defer()
        self._nav_seq = self._sim.reserve_seq()
        if self._current is not None:
            self._nav_timer.start_at(until, self._nav_seq)
