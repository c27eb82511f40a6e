"""The shared wireless medium.

A transmission is broadcast energy: every node within carrier-sense range of
the sender hears it for the frame's duration; nodes within receive range can
decode it *iff* no other transmission (or their own) overlaps the frame at
their location.  By default there is no capture effect — any overlap
corrupts, which matches the conservative ns-2 configuration used by the
paper.  Radio profiles may opt into capture by passing a
:class:`~repro.phy.profiles.CaptureModel`: the plan then carries a relative
received power per listener and the radio lets the stronger frame survive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.phy.fading import LossModel, NoLoss
from repro.phy.neighbors import NeighborCache
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.frames import Frame
    from repro.phy.energy import EnergyLedger
    from repro.phy.profiles import CaptureModel
    from repro.phy.radio import Radio


class Transmission:
    """One frame in flight on the medium."""

    __slots__ = ("sender", "frame", "start", "end")

    def __init__(self, sender: int, frame: "Frame", start: float, end: float):
        self.sender = sender
        self.frame = frame
        self.start = start
        self.end = end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Transmission {self.frame.kind} from {self.sender} "
            f"[{self.start:.6f}, {self.end:.6f}]>"
        )


class Channel:
    """Connects all radios through the :class:`NeighborCache` geometry."""

    def __init__(
        self,
        sim: Simulator,
        neighbors: NeighborCache,
        tracer: Optional[Tracer] = None,
        loss_model: Optional[LossModel] = None,
        rng: Optional[np.random.Generator] = None,
        energy: Optional["EnergyLedger"] = None,
        capture: Optional["CaptureModel"] = None,
    ):
        self._sim = sim
        self._neighbors = neighbors
        self._tracer = tracer or Tracer()
        self._radios: Dict[int, "Radio"] = {}
        self._loss_model = loss_model or NoLoss()
        self._lossy = not isinstance(self._loss_model, NoLoss)
        self.capture = capture
        if self._lossy and rng is None:
            # A silent fallback generator here would give every scenario the
            # same fading draws regardless of its seed (found by repro-lint
            # DET002): probabilistic loss needs an explicitly seeded stream,
            # e.g. RandomStreams(seed).stream("fading") as the builder wires.
            raise SimulationError(
                "a probabilistic loss model requires an explicit rng "
                "(pass a seeded stream such as RandomStreams(seed).stream('fading'))"
            )
        self._rng = rng
        self.energy = energy
        # Per-quantum delivery plans:
        # sender -> [(radio, in_rx, distance, power_db)].  Geometry is frozen
        # within a neighbour-cache quantum, so the radio lookups, range tests
        # and power proxies for a sender can be done once per quantum instead
        # of once per frame.
        self._plans: Dict[int, List[tuple]] = {}
        self._plans_tick = -1

    @property
    def neighbors(self) -> NeighborCache:
        return self._neighbors

    def attach(self, radio: "Radio") -> None:
        if radio.node_id in self._radios:
            raise SimulationError(f"radio for node {radio.node_id} already attached")
        self._radios[radio.node_id] = radio

    def radio(self, node_id: int) -> "Radio":
        return self._radios[node_id]

    def transmit(self, sender: "Radio", frame: "Frame", duration: float) -> None:
        """Put ``frame`` on the air for ``duration`` seconds."""
        now = self._sim.now
        tx = Transmission(sender.node_id, frame, now, now + duration)
        if self._tracer.wants("phy.tx"):
            self._tracer.emit(
                now,
                "phy.tx",
                sender=sender.node_id,
                frame_kind=frame.kind.value,
                dst=frame.dst,
                duration=duration,
            )
        sender.begin_transmit(tx)
        plan = self._plan_for(sender.node_id, now)
        if self.capture is not None:
            lossy = self._lossy
            loss_model = self._loss_model
            rng = self._rng
            for radio, in_rx, distance, power in plan:
                receivable = in_rx and (
                    not lossy or loss_model.delivered(distance, rng)
                )
                radio.energy_start(tx, receivable, power)
        else:
            if self._lossy:
                # This frame's own copy of the plan, with in_rx replaced by
                # the delivery draw: one draw per in-range listener, in
                # carrier-sense neighbour order (the MAC callbacks below
                # never touch this stream).
                loss_model = self._loss_model
                rng = self._rng
                plan = [
                    (radio, in_rx and loss_model.delivered(distance, rng), distance, power)
                    for radio, in_rx, distance, power in plan
                ]
            # One pass over the listeners, updating each radio's medium
            # state inline (see repro.phy.radio).
            for radio, receivable, _distance, _power in plan:
                if radio.heard or radio.sending is not None:
                    # Overlap: whatever this radio was decoding is lost, and
                    # the new frame cannot be decoded either.
                    radio.heard += 1
                    radio.rx = None
                else:
                    radio.heard = 1
                    radio.rx = tx if receivable else None
                    if radio.notify_busy and radio.mac is not None:
                        radio.mac.on_medium_change()
        energy = self.energy
        if energy is not None:
            for entry in plan:
                energy.charge_rx(entry[0].node_id, duration)
            energy.charge_tx(sender.node_id, duration)
        self._sim.schedule(duration, self._finish, tx, sender, plan)

    def _plan_for(self, sender_id: int, now: float) -> List[tuple]:
        """The sender's listeners for the current quantum.

        Each entry is ``(radio, in_rx, distance, power_db)``; ``distance``
        is only computed when a loss or capture model needs it, and
        ``power_db`` only when capture is enabled (carrier-sense-only
        listeners then need it too — their energy is what receptions must
        capture over).  Plan lists are replaced (never mutated) on quantum
        change, so an in-flight :meth:`_finish` holding a stale plan still
        sees the listeners its frame actually reached.
        """
        neighbors = self._neighbors
        tick = neighbors.tick(now)
        if tick != self._plans_tick:
            self._plans.clear()
            self._plans_tick = tick
        plan = self._plans.get(sender_id)
        if plan is None:
            rx_set = neighbors.rx_set(sender_id, now)
            cs_list = neighbors.cs_neighbors(sender_id, now)
            radios = self._radios
            capture = self.capture
            distance_of: Dict[int, float] = {}
            if capture is not None:
                values = neighbors.distances(sender_id, list(cs_list), now)
                distance_of = dict(zip(cs_list, values.tolist()))
            elif self._lossy:
                # One vectorized sqrt for every in-range listener, instead of
                # a scalar np.sqrt per receiver (np.sqrt is correctly rounded,
                # so each element is bit-identical to the scalar path).
                rx_listeners = [nid for nid in cs_list if nid in rx_set]
                values = neighbors.distances(sender_id, rx_listeners, now)
                distance_of = dict(zip(rx_listeners, values.tolist()))
            plan = []
            for node_id in cs_list:
                radio = radios.get(node_id)
                if radio is None:
                    continue
                in_rx = node_id in rx_set
                distance = distance_of.get(node_id, 0.0)
                power = 0.0 if capture is None else capture.power_db(distance)
                plan.append((radio, in_rx, distance, power))
            self._plans[sender_id] = plan
        return plan

    def _finish(self, tx: Transmission, sender: "Radio", plan: List[tuple]) -> None:
        # End energy at listeners first so the sender's completion callback
        # observes a consistent medium.
        if self.capture is not None:
            for entry in plan:
                entry[0].energy_end(tx)
            sender.end_transmit(tx)
            return
        frame = tx.frame
        for radio, receivable, _distance, _power in plan:
            heard = radio.heard - 1
            radio.heard = heard
            if radio.rx is tx:
                # Decoded.  Nothing else started here since this frame did,
                # and the medium was idle then, so it is idle again now.
                radio.rx = None
                mac = radio.mac
                if mac is not None:
                    if radio.notify_free:
                        mac.on_medium_change()
                    mac.on_frame(frame)
                continue
            if receivable and radio.mac is not None:
                # A decodable frame was ruined (collision / half duplex): the
                # MAC may apply EIFS deference.
                on_corrupt = getattr(radio.mac, "on_corrupt_frame", None)
                if on_corrupt is not None:
                    on_corrupt()
            if (
                radio.notify_free
                and not heard
                and radio.sending is None
                and radio.mac is not None
            ):
                radio.mac.on_medium_change()
        sender.end_transmit(tx)
