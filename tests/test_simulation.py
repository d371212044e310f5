"""End-to-end simulation behavior on small scripted and shipped scenarios."""

import collections
import gc
import hashlib
import itertools
import json
import logging
import signal
import tracemalloc
from dataclasses import replace

import jsonschema
import pytest

from loraguard.engine import Engine, RandomStreams
from loraguard.gateway import Gateway
from loraguard.metrics import (CAUSE_DUTY_CYCLE, KINDS, MetricsCollector, emit_report,
                               latency_of)
from loraguard.phy import (BUDGETS, ChannelPlan, RadioParams, Transmission, airtime_us,
                           default_eu868_plan)
from loraguard.scenario import StopSpec, load_scenario, parse_scenario, shipped_scenario_path
from loraguard.sensor import generate_events
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
        # The deferred row's times come back exact from its trigger and shape.
        assert (second.trigger_us, second.start_us) == (10_001_000, 10_267_264)
        assert second.end_us - second.start_us == 267_264
        assert second.delivered_at_us - second.end_us == 20_000
        assert len(sim.up_outcomes._shapes) == 2

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

    def test_a_burst_member_lost_at_once_does_not_end_the_run_early(self):
        # ed1 spends its band at 10 s, so the 15 s alarm loses it to the duty
        # cycle on the spot, which reaches stop.ups = 2.  ed2, triggered by
        # the same alarm, is still on the air and must be finalized first.
        scenario = scripted_scenario(
            [], stop={"ups": 2},
            clusters=[{"id": "c1", "members": ["ed1", "ed2"], "dcp_gateway": "gw1"}],
            devices=[{"id": f"ed{i}", "cluster": "c1", "rp_period": None,
                      "assignment": {"channel": channel, "sf": 9}}
                     for i, channel in ((1, "867.1 MHz"), (2, "867.3 MHz"))],
            alarms=[{"kind": "script", "species": "methane", "level": "1.2 %vol",
                     "devices": devices, "times": [at]}
                    for devices, at in ((["ed1"], "10 s"), (["ed1", "ed2"], "15 s"))])
        sim = Simulation(scenario)
        report = sim.run()
        up = report["kinds"]["UP"]
        assert (up["generated"], up["delivered"], up["losses"]) == (3, 2, {CAUSE_DUTY_CYCLE: 1})
        assert len(sim.up_outcomes) == 3
        assert report["ended_at_us"] == 15_000_000 + 267_264  # ed2's frame ends

    def test_run_ends_when_every_alarm_source_runs_dry(self):
        # stop.ups is out of reach: the run ends with the last uplink.
        report = Simulation(scripted_scenario(["10 s", "50 s"], stop={"ups": 5})).run()
        assert report["kinds"]["UP"]["generated"] == 2
        assert report["ended_at_us"] == 50_000_000 + 267_264

    def test_stop_duration_is_exact(self):
        # The alarm at 50 s lies after the end and never runs.
        scenario = scripted_scenario(["10 s", "50 s"], stop={"duration": "45 s"})
        report = Simulation(scenario).run()
        assert report["ended_at_us"] == 45_000_000
        assert report["kinds"]["UP"]["generated"] == 1


def shipped_with_ups(name, ups):
    scenario = load_scenario(shipped_scenario_path(name))
    return replace(scenario, stop=StopSpec(ups=ups))


# sha256 of the repr of every up_outcomes row of calibration_pairs_sf7 at
# 2,000 UPs, one row per line, as the run kept them when each finalized
# uplink was first built as a PacketOutcome and then stored by column.
CALIBRATION_OUTCOMES_SHA256 = "5e4e206fbccd78148b979eb992f8754e6cbfe952499de19da331772d765e1d8e"


@pytest.fixture(scope="module")
def calibration_run():
    # Same-channel SF7 pairs: some uplinks are delivered, some lost on the air.
    sim = Simulation(shipped_with_ups("calibration_pairs_sf7", 2_000))
    return sim, sim.run()


class TestRetainedOutcomes:
    def test_every_row_equals_the_recorded_outcome(self, calibration_run):
        sim, report = calibration_run
        rows = list(sim.up_outcomes)
        assert len(rows) == len(sim.up_outcomes) == report["kinds"]["UP"]["generated"]
        assert {row.delivered for row in rows} == {True, False}
        text = "".join(f"{row!r}\n" for row in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == CALIBRATION_OUTCOMES_SHA256
        assert [sim.up_outcomes[i] for i in (0, -1)] == [rows[0], rows[-1]]

    def test_rows_with_equal_per_gateway_maps_share_one_map(self, calibration_run):
        sim, _report = calibration_run
        shared = {}
        for row in sim.up_outcomes:
            key = tuple(sorted(row.per_gateway.items()))
            assert shared.setdefault(key, row.per_gateway) is row.per_gateway
        assert len(shared) >= 2  # decoded and collided

    def test_delivered_uplinks_count_by_latency(self, calibration_run):
        sim, _report = calibration_run
        assert sim.metrics.up_latencies_us == collections.Counter(
            latency_of(row) for row in sim.up_outcomes if row.delivered)

    def test_retained_memory_per_urgent_uplink_is_small(self):
        # What a run keeps per finalized urgent uplink (its columns in
        # up_outcomes and nothing per uplink elsewhere) must stay near the
        # 20 bytes of its row: uid and trigger instant, and its shape's position.
        sim = Simulation(shipped_with_ups("burst_cluster15", 6_000))
        gc.collect()
        tracemalloc.start()  # traces only what run() allocates from here on
        try:
            report = sim.run()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        generated = report["kinds"]["UP"]["generated"]
        assert generated == len(sim.up_outcomes) == 6_000
        assert retained <= 28 * generated


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
            if tx.kind == "RP":
                assert tx.freq_hz in rp_channels
                assert tx.sf == 7
            elif tx.kind == "UP":
                assert tx.freq_hz in up_channels
                assert 7 <= tx.sf <= 10
                # Every urgent frame uses its sender's commissioned resource.
                assert (tx.freq_hz, tx.sf) == scenario.assignments[tx.source]
        assert kinds_seen == set(KINDS)

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
    Transmission(source="x", kind="UP", freq_hz=867_100_000, sf=7, start_us=0, airtime_us=1,
                 uid=1, rx_power_dbm=0.0)
    second.run()
    uids = [tx.uid for tx in first.transmission_log]
    assert uids == list(range(1, len(uids) + 1))
    assert [tx.uid for tx in second.transmission_log] == uids


def test_frames_carry_their_senders_received_power():
    scenario = scripted_scenario(["10 s"])
    device = replace(scenario.devices[0], rx_power_dbm=-7.5)
    sim = Simulation(replace(scenario, devices=(device,)))
    sim.transmission_log = []
    sim.run()
    assert [tx.rx_power_dbm for tx in sim.transmission_log] == [-7.5]


def test_each_decoded_report_requests_one_downlink(two_gateway_scenario):
    # Reports decoded by both gateways still provoke a single control downlink.
    report = Simulation(two_gateway_scenario).run()
    delivered = report["kinds"]["RP"]["delivered"]
    decoded_copies = sum(report["gateways"][gw]["decoded"].get("RP", 0)
                         for gw in ("gw1", "gw2"))
    assert decoded_copies > delivered > 0
    assert report["dcp"]["requested"] == delivered


def _dcp_counts(backhaul, alarm_offsets, reports):
    """DCP counters of one reporting device over its first ``reports`` reports.

    ``alarm_offsets`` maps a report index to an alarm time relative to that
    report's RX1 instant.  A probe run without alarms finds the report times;
    alarms draw nothing from the report stream, so the reports stay put.
    """
    def scenario(alarm_times, end_us):
        return parse_scenario({
            "name": "dcp_receipt",
            "seed": 3,
            "stop": {"duration": f"{end_us} us"},
            "gateways": [{"id": "gw1", "backhaul": backhaul}],
            "clusters": [{"id": "c1", "members": ["ed1"], "dcp_gateway": "gw1"}],
            "devices": [{"id": "ed1", "cluster": "c1", "rp_period": "100 s",
                         "clock_sigma": "0 s", "rp_channels": ["868.1 MHz"],
                         "assignment": {"channel": "867.1 MHz", "sf": 9}}],
            "alarms": [{"kind": "script", "species": "methane", "level": "1.2 %vol",
                        "devices": ["ed1"], "times": [f"{at} us" for at in alarm_times]}]
            if alarm_times else [],
            "device_duty_policy": "window",
        })

    probe = Simulation(scenario([], 100_000_000 * reports))
    probe.transmission_log = []
    probe.run()
    rps = probe.transmission_log[:reports]
    end_us = rps[-1].end_us + 4_000_000  # past the end of an SF12 DCP in RX2
    rx1 = [rp.end_us + 1_000_000 for rp in rps]
    sim = Simulation(scenario([rx1[i] + dt for i, dt in alarm_offsets.items()], end_us))
    sim.transmission_log = []
    dcp = sim.run()["dcp"]
    assert [tx.start_us for tx in sim.transmission_log
            if tx.kind == "RP"] == [rp.start_us for rp in rps]
    return dcp


def test_dcp_receipt_paths():
    # Report 0 hears its RX1 DCP.  Report 1's device keys an urgent uplink
    # between the report's end and RX1, so RX1 is no longer its open window.
    # Report 2's device keys up 10 ms into the 82,176 us DCP.  Report 3's
    # keys up the instant its DCP ends, having heard all of it.
    dcp = _dcp_counts("20 ms", {1: -500_000, 2: 10_000, 3: 82_176}, reports=4)
    assert (dcp["requested"], dcp["sent_rx1"], dcp["sent_rx2"]) == (4, 4, 0)
    assert (dcp["received"], dcp["missed_window"], dcp["missed_device_busy"]) == (2, 1, 1)
    # A 600 ms backhaul round trip misses the 1 s RX1; the DCP goes out in RX2.
    dcp = _dcp_counts("600 ms", {}, reports=1)
    assert (dcp["requested"], dcp["skipped_too_late"]) == (1, 1)
    assert (dcp["sent_rx1"], dcp["sent_rx2"], dcp["received"]) == (0, 1, 1)


def test_a_round_trip_longer_than_rx2_sends_no_downlink(monkeypatch):
    # 2 x 1.5 s misses the 2 s RX2 as well: the report is answered by nothing.
    scheduled = scheduled_kinds(monkeypatch)
    dcp = _dcp_counts("1.5 s", {}, reports=1)
    assert dcp["requested"] == dcp["skipped_too_late"] == 1
    assert dcp["sent_rx1"] == dcp["sent_rx2"] == dcp["received"] == 0
    assert not any(kind in ("dl", "dl-end") for kind, _at in scheduled)


def dcp_fallback_scenario():
    """Eight reporters every 20 s, answered by one gateway under the off-time rule.

    The gateway's window-1 budget runs out, so DCPs fall back to window 2,
    and some find that budget spent as well.
    """
    ids = [f"ed{i}" for i in range(1, 9)]
    return parse_scenario({
        "name": "dcp_fallback",
        "seed": 5,
        "stop": {"duration": "600 s"},
        "gateways": [{"id": "gw1", "duty_policy": "offtime"}],
        "clusters": [{"id": "c1", "members": ids, "dcp_gateway": "gw1"}],
        "devices": [{"id": m, "cluster": "c1", "rp_period": "20 s"} for m in ids],
    })


def test_dcp_fallback_paths():
    assert Simulation(dcp_fallback_scenario()).run()["dcp"] == {
        "requested": 234, "sent_rx1": 60, "sent_rx2": 30, "received": 90,
        "skipped_duty_cycle": 86, "skipped_tx_busy": 58, "skipped_rx_only": 0,
        "skipped_too_late": 0, "missed_device_busy": 0, "missed_window": 0}


def test_a_run_resolves_no_subband_and_no_airtime(monkeypatch):
    # The DCP-fallback run spends the gateway's window-1 and window-2 budgets.
    sim = Simulation(dcp_fallback_scenario())
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ChannelPlan, "subband_of",
                        counted("subband_of", ChannelPlan.subband_of))
    monkeypatch.setattr("loraguard.simulation.airtime_us",
                        counted("airtime_us", airtime_us))
    # Every duty-cycle budget is bound while the simulation is built.
    for cls in BUDGETS.values():
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    assert sim.run()["dcp"]["sent_rx2"] > 0
    assert calls == {}


@pytest.mark.parametrize("name", ["dcp_fallback", "demo_small"])
def test_budgets_are_bound_once_per_transmitter_and_band(name):
    scenario = (dcp_fallback_scenario() if name == "dcp_fallback"
                else load_scenario(shipped_scenario_path(name)))
    sim = Simulation(scenario)
    held = [resource[-1] for resource in sim._up_resources.values()]
    for reporter in sim._reporters:
        held += [*reporter.budgets, *reporter.dcp_budgets, reporter.rx2_dcp[0]]
    policy = {g.id: g.duty_policy for g in scenario.gateways}
    bound = {}
    for budget in held:
        # One (transmitter, sub-band) pair holds one object, of its
        # transmitter's policy.
        assert bound.setdefault((budget.transmitter, budget.band.name), budget) is budget
        assert type(budget) is BUDGETS[policy.get(budget.transmitter,
                                                  scenario.device_duty_policy)]
    assert len(bound) < len(held)  # the cluster's reporters share their gateway's


def test_simulations_share_no_budget():
    """Each simulation builds its own budgets, so what one run spends never
    delays another run of the same scenario."""
    scenario = dcp_fallback_scenario()
    first, second = Simulation(scenario), Simulation(scenario)

    def held(sim):
        budgets = [resource[-1] for resource in sim._up_resources.values()]
        for reporter in sim._reporters:
            budgets += [*reporter.budgets, *reporter.dcp_budgets, reporter.rx2_dcp[0]]
        return {id(budget) for budget in budgets}

    assert held(first) and not held(first) & held(second)
    assert first.run() == second.run()


SHIPPED = ["test1_sf_pairs", "test2_dl_priority", "test3_dual_gw", "calibration_pairs_sf7",
           "calibration_pairs_sf7_sf8", "demo_small", "burst_cluster15"]


def scheduled_kinds(monkeypatch):
    """Record the ``(kind, at)`` of every event any engine schedules from now on."""
    scheduled = []
    schedule = Engine.schedule

    def recording(engine, at, action, kind=""):
        scheduled.append((kind, at))
        schedule(engine, at, action, kind)

    monkeypatch.setattr(Engine, "schedule", recording)
    return scheduled


class TestBurstCloseOut:
    def test_one_close_out_per_distinct_end_instant_of_a_burst(self, monkeypatch):
        # 15 simultaneous uplinks on SFs 8/9/10 end at three instants.
        scheduled = scheduled_kinds(monkeypatch)
        sim = Simulation(shipped_with_ups("burst_cluster15", 600))
        up = sim.run()["kinds"]["UP"]
        alarms, rest = divmod(up["generated"], 15)
        assert alarms >= 40 and rest == 0 and up["deferrals"] == 0
        assert len({o.end_us - o.start_us for o in sim.up_outcomes}) == 3
        kinds = collections.Counter(kind for kind, _at in scheduled)
        assert kinds["up-end"] == 3 * alarms
        assert kinds["up"] == 0

    def test_a_deferred_member_is_closed_out_alone_and_later_members_regroup(
            self, monkeypatch):
        # ed1 is still sending its report when the alarm fires: its uplink is
        # retried when the report ends.  ed0, ed2 and ed3 send equally long
        # uplinks at the alarm instant, but ed2 and ed3 start after the
        # deferral and form a group of their own.
        def scenario(alarm_at_us, end_us):
            return parse_scenario({
                "name": "deferred_burst_member",
                "seed": 3,
                "stop": {"duration": f"{end_us} us"},
                "gateways": [{"id": "gw1"}],
                "clusters": [{"id": "c1", "members": ["ed0", "ed1", "ed2", "ed3"],
                              "dcp_gateway": "gw1"}],
                "devices": [{"id": f"ed{i}", "cluster": "c1",
                             "rp_period": "100 s" if i == 1 else None,
                             "clock_sigma": "0 s", "rp_channels": ["868.1 MHz"],
                             "assignment": {"channel": channel, "sf": 9}}
                            for i, channel in enumerate(
                                ["867.1 MHz", "867.3 MHz", "867.5 MHz", "867.7 MHz"])],
                "alarms": [{"kind": "script", "species": "methane", "level": "1.2 %vol",
                            "devices": ["ed0", "ed1", "ed2", "ed3"],
                            "times": [f"{alarm_at_us} us"]}] if alarm_at_us else [],
            })

        probe = Simulation(scenario(None, 100_000_000))
        probe.transmission_log = []
        probe.run()
        report_tx = probe.transmission_log[0]
        alarm_at = report_tx.start_us + 1_000
        scheduled = scheduled_kinds(monkeypatch)
        sim = Simulation(scenario(alarm_at, report_tx.end_us + 10_000_000))
        sim.transmission_log = []
        up = sim.run()["kinds"]["UP"]
        assert (up["generated"], up["deferrals"]) == (4, 1)

        ups = [tx for tx in sim.transmission_log if tx.kind == "UP"]
        assert [tx.source for tx in ups] == ["ed0", "ed2", "ed3", "ed1"]
        air = ups[0].airtime_us
        assert [tx.start_us for tx in ups] == [alarm_at] * 3 + [report_tx.end_us]
        assert [at for kind, at in scheduled if kind == "up-end"] == [
            alarm_at + air, alarm_at + air, report_tx.end_us + air]
        assert [at for kind, at in scheduled if kind == "up"] == [report_tx.end_us]
        # One outcome per uplink, in close-out order, with its frame's fields.
        assert [(o.uid, o.device, o.trigger_us, o.start_us, o.end_us)
                for o in sim.up_outcomes] == [
            (tx.uid, tx.source, alarm_at, tx.start_us, tx.end_us) for tx in ups]
        assert all(o.delivered for o in sim.up_outcomes)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_uplinks_are_finalized_in_end_then_start_order(self, name):
        sim = Simulation(shipped_with_ups(name, 300))
        sim.transmission_log = []
        sim.run()
        # A frame's uid is drawn when it starts.  Uplinks lost to the duty
        # cycle never reach the air and are finalized when they are attempted.
        aired = [(o.end_us, o.uid) for o in sim.up_outcomes if o.end_us is not None]
        assert aired == sorted(aired)
        assert len(aired) == sum(tx.kind == "UP"
                                 for tx in sim.transmission_log)


@pytest.mark.parametrize("name, ups, gateways", [("burst_cluster15", 600, 1),
                                                  ("test2_dl_priority", 40, 1),
                                                  ("test3_dual_gw", 40, 2)])
def test_each_uplink_reaches_each_gateway_boundary_once(monkeypatch, name, ups, gateways):
    # The traced benchmark's gateway.uplink_start, gateway.uplink_end and
    # metrics.gateway_outcome rows count calls of these three methods, so the
    # simulation calls each once per uplink per gateway.
    calls = collections.Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in ((Gateway, "on_uplink_start"), (Gateway, "on_uplink_end"),
                        (MetricsCollector, "on_gateway_outcome")):
        monkeypatch.setattr(owner, attr, counted(getattr(owner, attr)))
    sim = Simulation(shipped_with_ups(name, ups))
    sim.transmission_log = []
    kinds = sim.run()["kinds"]
    assert len(sim.gateways) == gateways
    aired = len(sim.transmission_log)
    # Every report generated and every urgent uplink not lost to the duty
    # cycle before it started was closed out; reports still on the air when
    # the run stopped were not, at most one per device.
    ended = (kinds.get("RP", {}).get("generated", 0) + kinds["UP"]["generated"]
             - kinds["UP"]["losses"].get(CAUSE_DUTY_CYCLE, 0))
    assert aired - len(sim.devices) <= ended <= aired
    assert calls == {"on_uplink_start": aired * gateways,
                     "on_uplink_end": ended * gateways,
                     "on_gateway_outcome": ended * gateways}


# A CO exposure of 50 ppm reads below the 100 ppm trip point.
QUIET_CO = {"kind": "random", "species": "co", "level": "50 ppm", "devices": ["ed2"],
            "interarrival": {"min": "5 s", "max": "6 s"}}


def two_device_scenario(alarms, stop):
    """ed1 (SF9) reports every 10 s; ed2 (SF10) only sends urgent uplinks."""
    return parse_scenario({
        "name": "two_devices",
        "seed": 4,
        "stop": stop,
        "gateways": [{"id": "gw1"}],
        "clusters": [{"id": "c1", "members": ["ed1", "ed2"], "dcp_gateway": "gw1"}],
        "devices": [{"id": "ed1", "cluster": "c1", "rp_period": "10 s",
                     "assignment": {"channel": "867.1 MHz", "sf": 9}},
                    {"id": "ed2", "cluster": "c1", "rp_period": None,
                     "assignment": {"channel": "867.3 MHz", "sf": 10}}],
        "alarms": alarms,
    })


SCRIPTED_ED1 = {"kind": "script", "species": "methane", "level": "1.2 %vol",
                "devices": ["ed1"], "times": ["10 s", "40 s"]}


class TestNonTrippingSources:
    def test_a_source_that_cannot_trip_schedules_no_alarm(self, monkeypatch):
        scheduled = scheduled_kinds(monkeypatch)
        stop = {"duration": "120 s"}
        report = Simulation(two_device_scenario([SCRIPTED_ED1, QUIET_CO], stop)).run()
        kinds = collections.Counter(kind for kind, _at in scheduled)
        assert kinds["alarm"] == 2  # the scripted source's two exposures
        alone = Simulation(two_device_scenario([SCRIPTED_ED1], stop)).run()
        assert report["scenario_digest"] != alone["scenario_digest"]
        del report["scenario_digest"], alone["scenario_digest"]
        assert report == alone
        assert report["kinds"]["UP"]["generated"] == 2

    def test_a_stop_ups_run_ends_despite_an_endless_quiet_source(self):
        # stop.ups is out of reach once the scripted source runs dry; the
        # random CO source never trips, so the run ends with the last uplink.
        def timed_out(_signum, _frame):
            raise TimeoutError("the run did not end")

        scenario = scripted_scenario(
            ["10 s"], stop={"ups": 3},
            clusters=[{"id": "c1", "members": ["ed1", "ed2"], "dcp_gateway": "gw1"}],
            devices=[{"id": f"ed{i}", "cluster": "c1", "rp_period": None,
                      "assignment": {"channel": channel, "sf": 9}}
                     for i, channel in ((1, "867.1 MHz"), (2, "867.3 MHz"))],
            alarms=[{"kind": "script", "species": "methane", "level": "1.2 %vol",
                     "devices": ["ed1"], "times": ["10 s"]}, QUIET_CO])
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            report = Simulation(scenario).run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert report["kinds"]["UP"]["generated"] == 1
        assert report["ended_at_us"] == 10_000_000 + 267_264

    def test_a_tripping_source_keeps_its_trigger_index_stream(self):
        tripping = {**QUIET_CO, "species": "methane", "level": "1.2 %vol"}
        scenario = two_device_scenario([QUIET_CO, tripping], {"ups": 3})
        sim = Simulation(scenario)
        sim.run()
        stream = RandomStreams(scenario.seed).stream("alarm:1")
        expected = list(itertools.islice(generate_events(scenario.triggers[1], stream), 3))
        assert [o.trigger_us for o in sim.up_outcomes] == expected

    def test_a_clamped_reading_warns_once_per_source(self, caplog):
        clamped = {"kind": "script", "species": "co", "level": "600 ppm",
                   "devices": ["ed2"], "times": ["10 s", "20 s", "30 s"]}
        # The scenario decides which sources trip, so building it warns.
        with caplog.at_level(logging.WARNING, logger="loraguard.sensor"):
            report = Simulation(two_device_scenario([clamped], {"duration": "60 s"})).run()
        assert report["kinds"]["UP"]["generated"] == 3  # 600 ppm reads 500 ppm
        assert [r.getMessage() for r in caplog.records] == [
            "CO reading 600.0 ppm clamped to 500.0"]

    def test_the_model_ignores_the_scope_of_a_source_that_cannot_trip(self):
        # ed2's SF10 uplink would be the longer one, but its alarm never trips.
        inputs = Simulation(
            two_device_scenario([SCRIPTED_ED1, QUIET_CO], {"ups": 2})).model_inputs()
        assert inputs.up_airtime_s == airtime_us(RadioParams(sf=9), 37) / 1e6


@pytest.mark.parametrize("delay2_us, terms", [(20_000, 1), (1_000_000, 2)])
def test_only_reporters_whose_downlinks_reach_a_window_give_model_terms(
        two_gateway_scenario, delay2_us, terms):
    # gw1's 20 ms backhaul makes a 40 ms round trip: it misses ed2's windows
    # at 10 and 20 ms, so ed2 adds no term; a window-2 reporter keeps its
    # window-1 term.
    ed1, ed2 = two_gateway_scenario.devices
    late = replace(two_gateway_scenario, devices=(ed1, replace(
        ed2, receive_delay1_us=10_000, receive_delay2_us=delay2_us)))
    full = Simulation(two_gateway_scenario).model_inputs()
    assert len(full.dcp_airtimes_s) == 2
    assert Simulation(late).model_inputs() == full._replace(
        dcp_airtimes_s=full.dcp_airtimes_s[:terms])
