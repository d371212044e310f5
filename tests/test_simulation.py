"""End-to-end simulation behavior on small scripted and shipped scenarios."""

import json

import jsonschema
import pytest

from loraguard.metrics import CAUSE_DUTY_CYCLE, emit_report, latency_of
from loraguard.phy import RadioParams, Transmission, TransmissionKind, default_eu868_plan
from loraguard.scenario import load_scenario, parse_scenario, shipped_scenario_path
from loraguard.simulation import Simulation


def scripted_scenario(times, **top_level):
    doc = {
        "name": "scripted",
        "seed": 1,
        "stop": {"ups": len(times)},
        "gateways": [{"id": "gw1"}],
        "clusters": [{"id": "c1", "members": ["ed1"], "dcp_gateway": "gw1"}],
        "devices": [{"id": "ed1", "cluster": "c1", "rp_period": None,
                     "assignment": {"channel": "867.1 MHz", "sf": 9}}],
        "alarms": [{"kind": "script", "species": "methane", "level": "1.2 %vol",
                    "devices": ["ed1"], "times": list(times)}],
    }
    doc.update(top_level)
    return parse_scenario(doc)


class TestScriptedRuns:
    def test_band_off_time_kills_a_prompt_second_alarm(self):
        # Device policy "offtime": the 267 ms SF9 uplink blocks the 1% band
        # for 26.5 s, so an alarm 5 s later has nowhere to go and is lost,
        # not delayed: a stale urgent alarm is worthless.
        sim = Simulation(scripted_scenario(["10 s", "15 s"]))
        report = sim.run()
        up = report["kinds"]["UP"]
        assert (up["generated"], up["delivered"]) == (2, 1)
        assert up["losses"] == {CAUSE_DUTY_CYCLE: 1}
        first, second = sim.up_outcomes
        assert first.delivered and latency_of(first) == 287_264
        assert not second.delivered and second.cause == CAUSE_DUTY_CYCLE
        assert second.start_us is None  # never reached the air

    def test_half_duplex_device_defers_an_overlapping_alarm(self):
        # Hourly-budget policy: the second alarm fires while the device is
        # still keyed up, waits for its own radio, then goes out immediately.
        sim = Simulation(scripted_scenario(["10 s", "10.001 s"],
                                           device_duty_policy="window"))
        report = sim.run()
        up = report["kinds"]["UP"]
        assert (up["generated"], up["delivered"], up["deferrals"]) == (2, 2, 1)
        first, second = sim.up_outcomes
        # 287264 us = 267264 us of SF9 airtime + 20 ms backhaul.
        assert latency_of(first) == 287_264
        # Deferred start at 10.267264 s + airtime + backhaul - 10.001 s trigger.
        assert latency_of(second) == 553_528
        assert second.start_us == first.end_us

    def test_subthreshold_exposure_triggers_nothing(self):
        # 0.9 %vol methane reads 0.45 V, below the 0.5 V trip point: the
        # exposure is logged by the sensor but no urgent uplink is sent.
        scenario = parse_scenario({
            "name": "subthreshold",
            "stop": {"duration": "60 s"},
            "gateways": [{"id": "gw1"}],
            "clusters": [{"id": "c1", "members": ["ed1"], "dcp_gateway": "gw1"}],
            "devices": [{"id": "ed1", "cluster": "c1", "rp_period": "10 s",
                         "assignment": {"channel": "867.1 MHz", "sf": 9}}],
            "alarms": [{"kind": "script", "species": "methane",
                        "level": "0.9 %vol", "devices": ["ed1"],
                        "times": ["10 s", "20 s"]}],
        })
        report = Simulation(scenario).run()
        assert "UP" not in report["kinds"]
        assert report["kinds"]["RP"]["generated"] >= 5
        assert report["ended_at_us"] == 60_000_000

    def test_stop_duration_is_exact(self):
        scenario = scripted_scenario(["10 s"], stop={"duration": "45 s"})
        report = Simulation(scenario).run()
        assert report["ended_at_us"] == 45_000_000
        assert report["kinds"]["UP"]["generated"] == 1


@pytest.fixture(scope="module")
def demo_run():
    scenario = load_scenario(shipped_scenario_path("demo_small"))
    sim = Simulation(scenario)
    sim.transmission_log = []
    report = sim.run()
    return scenario, sim, report


class TestDemoRun:
    def test_packet_conservation(self, demo_run):
        _scenario, sim, report = demo_run
        up = report["kinds"]["UP"]
        assert up["generated"] == 1500
        assert up["generated"] == up["delivered"] + up["lost"]
        assert len(sim.up_outcomes) == up["generated"]
        for outcome in sim.up_outcomes:
            assert outcome.delivered == (outcome.cause is None)
            if outcome.delivered:
                assert outcome.delivered_at_us >= outcome.trigger_us

    def test_dcp_counter_identities(self, demo_run):
        scenario, _sim, report = demo_run
        dcp = report["dcp"]
        # Every requested downlink is either sent or skipped, except the few
        # whose receive window had not yet arrived when the run stopped: at
        # most one in-flight control chain per device.
        accounted = (dcp["sent_rx1"] + dcp["sent_rx2"] + dcp["skipped_tx_busy"]
                     + dcp["skipped_duty_cycle"] + dcp["skipped_rx_only"]
                     + dcp["skipped_too_late"])
        in_flight = dcp["requested"] - accounted
        assert 0 <= in_flight <= len(scenario.devices)
        arrived = (dcp["received"] + dcp["missed_window"]
                   + dcp["missed_device_busy"])
        landing = dcp["sent_rx1"] + dcp["sent_rx2"] - arrived
        assert 0 <= landing <= len(scenario.devices)
        assert dcp["requested"] > 0 and dcp["received"] > 0

    def test_uplinks_respect_band_and_sf_discipline(self, demo_run):
        scenario, sim, _report = demo_run
        plan = default_eu868_plan()
        rp_channels = set(plan.subband(scenario.rp_subband).channels)
        up_channels = set(plan.subband(scenario.up_subband).channels)
        assert sim.transmission_log
        kinds_seen = set()
        for tx in sim.transmission_log:
            kinds_seen.add(tx.kind)
            assert tx.airtime_us > 0 and tx.end_us > tx.start_us
            if tx.kind == TransmissionKind.RP:
                assert tx.freq_hz in rp_channels
                assert tx.params.sf == 7
            elif tx.kind == TransmissionKind.UP:
                assert tx.freq_hz in up_channels
                assert 7 <= tx.params.sf <= 10
        assert kinds_seen == {TransmissionKind.RP, TransmissionKind.UP}

    def test_report_matches_the_published_schema(self, demo_run, docs_dir):
        _scenario, _sim, report = demo_run
        schema = json.loads((docs_dir / "report.schema.json").read_text())
        jsonschema.validate(json.loads(emit_report(report)), schema)

    def test_replays_are_identical(self, demo_run):
        scenario, _sim, report = demo_run
        assert Simulation(scenario).run() == report

    def test_seed_override_changes_the_trajectory(self, demo_run):
        scenario, _sim, report = demo_run
        other = Simulation(scenario.with_seed(99)).run()
        assert other["seed"] == 99
        skip = {"seed", "scenario_digest"}  # the digest hashes the seed too
        trimmed = {k: v for k, v in report.items() if k not in skip}
        other_trimmed = {k: v for k, v in other.items() if k not in skip}
        assert trimmed != other_trimmed


def test_uid_sequences_do_not_depend_on_other_simulations():
    # Each simulation numbers its own frames from 1, so two runs in one
    # process (and frames built outside any simulation) cannot interleave.
    scenario = load_scenario(shipped_scenario_path("demo_small"))
    first, second = Simulation(scenario), Simulation(scenario)
    first.transmission_log, second.transmission_log = [], []
    first.run()
    Transmission(source="x", kind=TransmissionKind.UP, freq_hz=867_100_000,
                 params=RadioParams(sf=7), start_us=0, airtime_us=1, uid=1)
    second.run()
    uids = [tx.uid for tx in first.transmission_log]
    assert uids == list(range(1, len(uids) + 1))
    assert [tx.uid for tx in second.transmission_log] == uids


def test_each_decoded_report_requests_one_downlink():
    # Reports decoded by both gateways still provoke a single control downlink.
    scenario = parse_scenario({
        "name": "two_gateways",
        "seed": 5,
        "stop": {"duration": "600 s"},
        "gateways": [{"id": "gw1"}, {"id": "gw2", "role": "rx_only"}],
        "clusters": [{"id": "c1", "members": ["ed1", "ed2"], "dcp_gateway": "gw1"}],
        "devices": [{"id": "ed1", "cluster": "c1", "rp_period": "10 s"},
                    {"id": "ed2", "cluster": "c1", "rp_period": "10 s"}],
        "alarms": [{"kind": "script", "species": "methane", "level": "1.2 %vol",
                    "devices": ["ed1"], "times": ["100 s"]}],
    })
    report = Simulation(scenario).run()
    delivered = report["kinds"]["RP"]["delivered"]
    decoded_copies = sum(report["gateways"][gw]["decoded"].get("RP", 0)
                         for gw in ("gw1", "gw2"))
    assert decoded_copies > delivered > 0
    assert report["dcp"]["requested"] == delivered
