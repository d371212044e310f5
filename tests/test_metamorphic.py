"""Exact relations between two runs that differ in one respect.

Random streams are keyed by (seed, name), so two scenarios that differ in one
respect share every other draw (common random numbers), and some relations
between their runs hold exactly, with no golden to compare against.
"""

import pytest
import yaml

from loraguard.scenario import parse_scenario, shipped_scenario_path
from loraguard.simulation import Simulation


def shipped_doc(name, ups):
    doc = yaml.safe_load(shipped_scenario_path(name).read_text())
    doc["stop"] = {"ups": ups}
    return doc


RX_ONLY_GW2 = {"id": "gw2", "role": "rx_only"}


@pytest.mark.parametrize("name, key, added_gateways", [
    ("test2_dl_priority", "devices", []),
    ("test1_sf_pairs", "devices", []),
    ("burst_cluster15", "devices", []),
    ("test3_dual_gw", "devices", []),
    ("test3_dual_gw", "gateways", []),
    # Same-channel SF7/SF8 pairs: each gateway draws capture from its own stream.
    ("calibration_pairs_sf7_sf8", "gateways", [RX_ONLY_GW2]),
])
def test_a_run_does_not_depend_on_the_order_of_a_list(name, key, added_gateways):
    doc = shipped_doc(name, 500)
    doc["gateways"] += [dict(gw) for gw in added_gateways]
    report = Simulation(parse_scenario(doc)).run()
    doc[key].reverse()
    reordered = Simulation(parse_scenario(doc)).run()
    # The digest hashes the scenario text, which lists the entries in order.
    assert reordered.pop("scenario_digest") != report.pop("scenario_digest")
    assert reordered == report


def test_a_receive_only_gateway_leaves_the_uplink_schedule_unchanged(frames):
    # Nothing a device does depends on which gateways hear it, so dropping
    # test3's receive-only gw2 keeps every frame: its uid, kind, sender, start
    # and end.  The outcomes are coupled, not equal: reports that only gw2
    # decodes still get a DCP from gw1.
    doc = shipped_doc("test3_dual_gw", 1_000)

    def schedule(scenario_doc):
        frames.clear()
        Simulation(parse_scenario(scenario_doc)).run()
        return [(tx.uid, tx.kind, tx.source, tx.start_us, tx.end_us) for tx in frames]

    with_gw2 = schedule(doc)
    doc["gateways"].remove(RX_ONLY_GW2)
    assert schedule(doc) == with_gw2
    assert {kind for _uid, kind, *_rest in with_gw2} == {"RP", "UP"}
