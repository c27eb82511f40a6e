"""Per-node half-duplex transceiver.

The radio holds its node's view of the medium and decides, per
transmission, whether the frame survives: decodable means the frame was in
receive range, no other heard transmission overlapped any part of it, and
this radio was not itself transmitting at any point during it.

On the common path (no capture model) the :class:`~repro.phy.channel.Channel`
keeps that view itself, in one pass over a frame's listeners at its start
and one at its end, with no method call per listener.  The view is three
fields:

* ``heard`` — transmissions currently heard, decodable or not;
* ``sending`` — our own transmission in flight, or None;
* ``rx`` — the one heard transmission that can still be decoded.  A frame
  becomes ``rx`` only if the medium was idle when it started (nothing
  heard, nothing sent); any later start here — a heard frame or our own —
  clears it, so a frame is decoded iff it is still ``rx`` when it ends.

With a capture model an overlap no longer corrupts unconditionally; the
channel then calls :meth:`Radio.energy_start` and :meth:`Radio.energy_end`
per listener, which track every decodable reception.

The MAC attaches via three callbacks:

* ``on_medium_change()`` — physical carrier-sense transitions,
* ``on_frame(frame)`` — a successfully decoded frame,
* ``on_tx_complete(frame)`` — the radio finished sending our own frame.

``on_medium_change`` goes out only for the edges the MAC has asked for:
``notify_busy`` covers the medium turning busy (and the start of our own
transmission), ``notify_free`` the medium turning idle.  Both default to
True, so a MAC that does not manage them hears every transition; the DCF
MAC keeps them True only while the callback can change its state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import SimulationError
from repro.phy.channel import Channel, Transmission

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.frames import Frame


class Radio:
    """A node's interface to the shared channel."""

    def __init__(self, node_id: int, channel: Channel):
        self.node_id = node_id
        self._channel = channel
        self.mac = None  # set by the MAC layer during stack wiring
        self.notify_busy = True
        self.notify_free = True
        # Medium state; see the module docstring.
        self.heard = 0
        self.sending: Optional[Transmission] = None
        self.rx: Optional[Transmission] = None
        # Capture (profile opt-in): the threshold the channel's CaptureModel
        # configured, the relative power of every transmission currently
        # heard, and whether each decodable one is corrupt so far.
        capture = channel.capture
        self._capture_db: Optional[float] = (
            None if capture is None else capture.threshold_db
        )
        self._heard_power: Dict[Transmission, float] = {}
        self._receptions: Dict[Transmission, bool] = {}
        channel.attach(self)

    # -- state queries -----------------------------------------------------

    @property
    def busy(self) -> bool:
        """Physical carrier sense: energy on the air or transmitting."""
        return self.heard > 0 or self.sending is not None

    @property
    def transmitting(self) -> bool:
        return self.sending is not None

    # -- transmit path -----------------------------------------------------

    def transmit(self, frame: "Frame", duration: float) -> None:
        """Hand a frame to the channel (the MAC has already deferred)."""
        if self.sending is not None:
            raise SimulationError(
                f"node {self.node_id} started a transmission while already sending"
            )
        self._channel.transmit(self, frame, duration)

    def begin_transmit(self, tx: Transmission) -> None:
        self.sending = tx
        # Half duplex: anything we were receiving is lost.
        self.rx = None
        receptions = self._receptions
        for heard_tx in receptions:
            receptions[heard_tx] = True
        if self.notify_busy and self.mac is not None:
            self.mac.on_medium_change()

    def end_transmit(self, tx: Transmission) -> None:
        self.sending = None
        mac = self.mac
        if mac is not None:
            # The medium turns idle here unless another frame is still heard.
            if self.notify_free if self.heard == 0 else self.notify_busy:
                mac.on_medium_change()
            mac.on_tx_complete(tx.frame)

    # -- receive path under a capture model --------------------------------

    def energy_start(
        self, tx: Transmission, receivable: bool, power: float = 0.0
    ) -> None:
        """A heard transmission starts (capture model only).

        Pairwise strongest-interferer capture: an overlap no longer corrupts
        unconditionally.  Each decodable frame already on the air survives
        the new arrival iff its power exceeds the new arrival's by the
        threshold; the new arrival starts clean iff we are not transmitting
        and it beats the *strongest* energy currently heard by the threshold.
        Half duplex is unchanged — our own transmission always wins.
        """
        receptions = self._receptions
        heard = self._heard_power
        threshold = self._capture_db
        busy = self.heard > 0 or self.sending is not None
        for rx_tx in receptions:
            if heard[rx_tx] < power + threshold:
                receptions[rx_tx] = True
        if receivable:
            receptions[tx] = self.sending is not None or any(
                power < other + threshold for other in heard.values()
            )
        heard[tx] = power
        self.heard += 1
        if not busy and self.notify_busy and self.mac is not None:
            self.mac.on_medium_change()

    def energy_end(self, tx: Transmission) -> None:
        """A heard transmission ends (capture model only)."""
        del self._heard_power[tx]
        self.heard -= 1
        corrupt = self._receptions.pop(tx, None)
        mac = self.mac
        if mac is None:
            return
        if corrupt:
            # A decodable frame was ruined (collision / half duplex): the
            # MAC may apply EIFS deference.
            on_corrupt = getattr(mac, "on_corrupt_frame", None)
            if on_corrupt is not None:
                on_corrupt()
        if self.heard == 0 and self.sending is None and self.notify_free:
            mac.on_medium_change()
        if corrupt is False:
            mac.on_frame(tx.frame)
