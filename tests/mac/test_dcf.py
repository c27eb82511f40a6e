"""Behavioural tests of the DCF MAC over a real channel (no routing layer).

Each test wires radios + MACs over a static topology and records what the
upper layer would see: delivered packets, success/failure feedback, and the
frames on the air.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.mac.dcf import DcfMac
from repro.mac.timing import MacTiming
from repro.mobility.static import StaticModel
from repro.net.addresses import BROADCAST
from repro.net.packet import Packet, PacketKind
from repro.phy.channel import Channel
from repro.phy.neighbors import NeighborCache
from repro.phy.propagation import DiskPropagation
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


class UpperRecorder:
    def __init__(self):
        self.delivered: List[Packet] = []
        self.snooped: List[Packet] = []
        self.successes: List[Tuple[Packet, int]] = []
        self.failures: List[Tuple[Packet, int]] = []


def build_macs(positions, seed=3, tracer=None):
    sim = Simulator()
    tracer = tracer or Tracer()
    mobility = StaticModel(positions)
    neighbors = NeighborCache(mobility, DiskPropagation())
    channel = Channel(sim, neighbors, tracer=tracer)
    macs: Dict[int, DcfMac] = {}
    uppers: Dict[int, UpperRecorder] = {}
    for node_id in mobility.node_ids:
        radio = Radio(node_id, channel)
        mac = DcfMac(
            node_id,
            sim,
            radio,
            rng=np.random.default_rng(seed * 100 + node_id),
            timing=MacTiming(),
            tracer=tracer,
        )
        upper = UpperRecorder()
        mac.deliver = upper.delivered.append
        mac.promiscuous = upper.snooped.append
        mac.on_unicast_success = lambda p, nh, u=upper: u.successes.append((p, nh))
        mac.on_unicast_failure = lambda p, nh, u=upper: u.failures.append((p, nh))
        macs[node_id] = mac
        uppers[node_id] = upper
    return sim, macs, uppers, tracer


def _packet(src, dst, uid=1, payload=512):
    return Packet(kind=PacketKind.DATA, src=src, dst=dst, uid=uid, payload_bytes=payload)


def test_unicast_delivery_and_success_feedback():
    sim, macs, uppers, _ = build_macs([(0.0, 0.0), (200.0, 0.0)])
    packet = _packet(0, 1)
    macs[0].enqueue(packet, 1)
    sim.run(until=1.0)
    assert [p.uid for p in uppers[1].delivered] == [1]
    assert len(uppers[0].successes) == 1
    assert uppers[0].failures == []


def test_unicast_uses_full_rts_cts_data_ack_exchange():
    records = []
    tracer = Tracer()
    tracer.subscribe("mac.tx", records.append)
    sim, macs, uppers, _ = build_macs([(0.0, 0.0), (200.0, 0.0)], tracer=tracer)
    macs[0].enqueue(_packet(0, 1), 1)
    sim.run(until=1.0)
    kinds = [r.fields["frame_kind"] for r in records]
    assert kinds == ["rts", "cts", "data", "ack"]


def test_unicast_to_unreachable_node_fails_after_retries():
    sim, macs, uppers, _ = build_macs([(0.0, 0.0), (1000.0, 0.0)])
    packet = _packet(0, 1)
    macs[0].enqueue(packet, 1)
    sim.run(until=5.0)
    assert uppers[1].delivered == []
    assert len(uppers[0].failures) == 1
    failed, next_hop = uppers[0].failures[0]
    assert failed.uid == packet.uid and next_hop == 1


def test_retry_count_respects_limit():
    records = []
    tracer = Tracer()
    tracer.subscribe("mac.tx", records.append)
    sim, macs, uppers, _ = build_macs([(0.0, 0.0), (1000.0, 0.0)], tracer=tracer)
    macs[0].enqueue(_packet(0, 1), 1)
    sim.run(until=10.0)
    rts_count = sum(1 for r in records if r.fields["frame_kind"] == "rts")
    assert rts_count == MacTiming().retry_limit + 1  # initial + retries


def test_broadcast_reaches_all_neighbors_without_acks():
    records = []
    tracer = Tracer()
    tracer.subscribe("mac.tx", records.append)
    sim, macs, uppers, _ = build_macs(
        [(0.0, 0.0), (200.0, 0.0), (100.0, 100.0), (900.0, 0.0)], tracer=tracer
    )
    macs[0].enqueue(_packet(0, BROADCAST), BROADCAST)
    sim.run(until=1.0)
    assert len(uppers[1].delivered) == 1
    assert len(uppers[2].delivered) == 1
    assert uppers[3].delivered == []
    kinds = [r.fields["frame_kind"] for r in records]
    assert kinds == ["data"]  # no RTS/CTS/ACK for broadcast


def test_queue_drains_in_order():
    sim, macs, uppers, _ = build_macs([(0.0, 0.0), (200.0, 0.0)])
    for uid in (1, 2, 3):
        macs[0].enqueue(_packet(0, 1, uid=uid), 1)
    sim.run(until=1.0)
    assert [p.uid for p in uppers[1].delivered] == [1, 2, 3]


def test_two_contending_senders_both_deliver():
    sim, macs, uppers, _ = build_macs(
        [(0.0, 0.0), (200.0, 0.0), (100.0, 150.0)]
    )
    macs[0].enqueue(_packet(0, 1, uid=10), 1)
    macs[2].enqueue(_packet(2, 1, uid=20), 1)
    sim.run(until=2.0)
    assert sorted(p.uid for p in uppers[1].delivered) == [10, 20]


def test_promiscuous_tap_on_overheard_unicast():
    sim, macs, uppers, _ = build_macs(
        [(0.0, 0.0), (200.0, 0.0), (100.0, 100.0)]
    )
    macs[0].enqueue(_packet(0, 1, uid=5), 1)
    sim.run(until=1.0)
    assert [p.uid for p in uppers[2].snooped] == [5]
    assert uppers[2].delivered == []


def test_duplicate_data_not_delivered_twice():
    """If the ACK is lost the sender retries; the receiver must not deliver
    the same frame twice.  We force this by placing the receiver where it can
    hear the sender but the sender cannot hear the ACK (asymmetry via a
    range trick is impossible with a disk model, so instead we check the
    dedup logic directly)."""
    sim, macs, uppers, _ = build_macs([(0.0, 0.0), (200.0, 0.0)])
    from repro.mac.frames import Frame, FrameKind

    mac = macs[1]
    frame = Frame(FrameKind.DATA, src=0, dst=1, seq=7, packet=_packet(0, 1, uid=9))
    mac._on_frame_for_us(frame)
    mac._on_frame_for_us(frame)  # retransmission with the same MAC seq
    sim.run(until=0.1)
    assert len(uppers[1].delivered) == 1


def test_mac_failure_trace_emitted():
    failures = []
    tracer = Tracer()
    tracer.subscribe("mac.fail", failures.append)
    sim, macs, uppers, _ = build_macs([(0.0, 0.0), (1000.0, 0.0)], tracer=tracer)
    macs[0].enqueue(_packet(0, 1), 1)
    sim.run(until=5.0)
    assert len(failures) == 1
    assert failures[0].fields["next_hop"] == 1


def test_backoff_defers_while_medium_busy():
    """While a long broadcast occupies the channel, a pending unicast must
    wait: its first RTS appears only after the broadcast ends."""
    records = []
    tracer = Tracer()
    tracer.subscribe("phy.tx", records.append)
    sim, macs, uppers, _ = build_macs([(0.0, 0.0), (200.0, 0.0)], tracer=tracer)
    big = _packet(0, BROADCAST, uid=1, payload=1400)
    macs[0].enqueue(big, BROADCAST)
    sim.run(max_events=2)  # get the broadcast onto the air
    macs[1].enqueue(_packet(1, 0, uid=2), 0)
    sim.run(until=1.0)
    tx_by_1 = [r for r in records if r.fields["sender"] == 1]
    tx_by_0 = [r for r in records if r.fields["sender"] == 0]
    assert tx_by_1[0].time > tx_by_0[0].time + 0.005  # after the ~6 ms frame
    assert [p.uid for p in uppers[0].delivered] == [2]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known defect: Radio.end_transmit calls on_medium_change before "
        "on_tx_complete, so the defer timer is re-armed from the stale backoff "
        "before _awaiting is set and a second RTS leaves while the CTS is awaited"
    ),
)
def test_no_rts_while_awaiting_cts():
    """An RTS is answered by a CTS or by the CTS timeout: the sender must
    not put another RTS on the air while it still awaits the first CTS."""
    tracer = Tracer()
    sim, macs, uppers, _ = build_macs([(0.0, 0.0), (2000.0, 0.0)], seed=2, tracer=tracer)
    awaiting_at_rts = []

    def on_tx(record):
        if record.fields["node"] == 0 and record.fields["frame_kind"] == "rts":
            awaiting_at_rts.append(macs[0]._awaiting)

    tracer.subscribe("mac.tx", on_tx)
    macs[0].enqueue(_packet(0, 1), 1)  # node 1 is out of range: no CTS ever
    sim.run(until=1.0)
    assert len(uppers[0].failures) == 1
    assert len(awaiting_at_rts) > 1
    assert "cts" not in awaiting_at_rts
