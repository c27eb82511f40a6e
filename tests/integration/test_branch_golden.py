"""Golden digests for the PHY/MAC branches beside the default path.

``test_index_golden`` pins the default configuration: wavelan disk radio,
no loss, DSR.  The channel and MAC also carry a capture path, a lossy
path, an EIFS path and an energy-accounting path, and the other routing
agents drive the MAC differently.  Each run below is the same 100-node,
12 s scenario with one of those branches switched on, pinned by a sha256
over every :class:`~repro.metrics.collector.SimulationResult` field (floats
at full precision), so any change in arithmetic or event order shows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.scenarios.builder import build_simulation, run_scenario
from tests.integration.test_index_golden import _scenario


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


BRANCHES = {
    # Capture model, grey-zone loss and 11 Mb/s timing.
    "urban": (
        {"radio_profile": "urban"},
        "7617dea81b44f20f96211ef0e95f8803494d53b3ed35ded26dc1af6fd8e5879e",
    ),
    # Distance-independent loss: one RNG draw per in-range listener.
    "link_loss": (
        {"link_loss": 0.15},
        "43f4ece736b35fb3c28443636bfcb0508163fb6ba38e552df1606ba1f7e00857",
    ),
    # Capture with kilometre reach: nearly every node hears every frame.
    "longhaul": (
        {"radio_profile": "longhaul"},
        "26d611f8054798705b28ac39a2dd32ce85afca3066687013bc34b385f80494e4",
    ),
    "use_eifs": (
        {"use_eifs": True},
        "dc5c4be5565d900f46222ce65ba3db3aadd0b7dc2da131a11f36f70228201788",
    ),
    "aodv": (
        {"protocol": "aodv"},
        "f2ea9ef3a8176763257be17e98d8f04a9d13097a6dfb5cef6d3a3c30dfbd7710",
    ),
    "flooding": (
        {"protocol": "flooding"},
        "88724752a04f6de40861897ae889fb107df595175b47e6cc07fea3ab0dc238be",
    ),
}


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_branch_result_digest(branch):
    overrides, expected = BRANCHES[branch]
    result = run_scenario(_scenario("auto").but(**overrides))
    assert _digest(dataclasses.asdict(result)) == expected, f"golden drift in {branch}"


def test_energy_ledger_totals():
    handle = build_simulation(_scenario("auto").but(track_energy=True))
    result = handle.run()
    ledger = handle.energy
    # Energy accounting only observes airtime: the result is the default
    # path's, and the ledger totals are pinned on top.
    assert _digest(dataclasses.asdict(result)) == (
        "9f3ee9b918e77f637c2c9fc9c2d94a16e05a70b3883aa491d419fcf2f2c54349"
    )
    assert ledger.total_joules(result.duration, len(handle.nodes)) == 1028.326228720001
    assert ledger.communication_joules() == 182.66450720000427
    per_node = sorted(
        [node_id, ledger.tx_time(node_id), ledger.rx_time(node_id)]
        for node_id in handle.nodes
    )
    assert _digest(per_node) == (
        "e74f49dd23e9c9ce135d97b2d45d8e7635030dbbc6dc3d9b0b636523bfef4a73"
    )
