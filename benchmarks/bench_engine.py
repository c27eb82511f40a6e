"""Microbenchmarks of the simulation substrate itself.

Not a paper artifact — these measure the kernel's raw capacity (events/s,
channel transmissions/s, full-stack packets/s) so performance regressions
in the substrate are caught before they silently stretch every experiment.
Unlike the experiment benches these use multiple pytest-benchmark rounds.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.timers import Timer


def test_engine_event_throughput(benchmark):
    """Schedule-and-run cost of 10k chained events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    result = benchmark(run)
    assert result == 10_000


def test_engine_heap_churn(benchmark):
    """Cost of scheduling 10k events up front and cancelling half."""

    def run():
        sim = Simulator()
        rng = np.random.default_rng(1)
        events = [
            sim.schedule(float(delay), lambda: None)
            for delay in rng.uniform(0.0, 100.0, size=10_000)
        ]
        for event in events[::2]:
            event.cancel()
        return sim.run()

    executed = benchmark(run)
    assert executed == 5_000


def test_channel_transmission_throughput(benchmark):
    """End-to-end PHY cost: 1k broadcast frames across a 25-node cell."""
    from repro.mac.frames import Frame, FrameKind
    from repro.mobility.grid import grid_positions
    from repro.mobility.static import StaticModel
    from repro.net.addresses import BROADCAST
    from repro.phy.channel import Channel
    from repro.phy.neighbors import NeighborCache
    from repro.phy.propagation import DiskPropagation
    from repro.phy.radio import Radio

    def run():
        sim = Simulator()
        mobility = StaticModel(grid_positions(5, 5, 100.0))
        neighbors = NeighborCache(mobility, DiskPropagation())
        channel = Channel(sim, neighbors)
        radios = {}
        for node_id in mobility.node_ids:
            radio = Radio(node_id, channel)
            radio.mac = type(
                "M", (), {"on_frame": lambda *a: None, "on_tx_complete": lambda *a: None, "on_medium_change": lambda *a: None}
            )()
            radios[node_id] = radio
        for i in range(1_000):
            sim.schedule(
                i * 0.002,
                radios[i % 25].transmit,
                Frame(FrameKind.DATA, i % 25, BROADCAST),
                0.001,
            )
        return sim.run()

    executed = benchmark(run)
    assert executed >= 1_000


def test_full_stack_packet_throughput(benchmark):
    """Complete protocol stack: one CBR second over a 12-node network."""
    from repro.scenarios.presets import tiny_scenario
    from repro.scenarios.builder import build_simulation

    def run():
        handle = build_simulation(tiny_scenario(seed=1).but(duration=10.0))
        handle.sim.run(until=10.0)
        return handle.metrics.data_received

    delivered = benchmark(run)
    assert delivered > 0


def test_engine_timer_churn(benchmark):
    """MAC-like churn: every tick starts a timeout, which is cancelled
    before it expires and restarted on the next tick.

    This is the access pattern of ``DcfMac``'s CTS/ACK timeouts, which are
    cancelled far more often than they fire.  A cancelled ``Timer`` is
    disarmed and a restart re-keys it, so the timer holds at most one heap
    entry and the heap stays at its live size however long the run.
    """

    def run():
        sim = Simulator()
        timeout = Timer(sim, lambda: None)
        count = [0]
        peak = [0]

        def tick():
            count[0] += 1
            peak[0] = max(peak[0], sim.pending_events)
            timeout.start(0.01)
            sim.schedule(0.0005, timeout.cancel)
            if count[0] < 50_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim.stats(), peak[0]

    stats, peak = benchmark(run)
    assert stats.executed == 100_000
    # At a tick only the timer's own entry is queued, after any number of
    # restarts; raw cancel-and-schedule would leave one corpse per tick.
    assert peak == 1
    assert stats.pending == 0
    assert stats.skipped == 0


def test_engine_stats_smoke(benchmark):
    """stats() is cheap and its counters add up."""

    def run():
        sim = Simulator()
        for i in range(1_000):
            keep = sim.schedule(float(i), lambda: None)
            victim = sim.schedule(float(i) + 0.5, lambda: None)
            victim.cancel()
            assert keep is not None
        executed = sim.run()
        stats = sim.stats()
        assert stats.executed == executed == 1_000
        assert stats.cancelled == 1_000
        assert stats.skipped == 1_000
        return stats

    benchmark(run)
