"""Loss accounting, Wilson intervals, latency statistics, report shape."""

import json
import math
from collections import Counter
from dataclasses import replace
from types import MappingProxyType

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from loraguard.metrics import (
    CAUSE_COLLISION,
    CAUSE_DUTY_CYCLE,
    CAUSE_GW_PREEMPTED,
    CAUSE_NO_DEMOD_PATH,
    CAUSE_PRIORITY,
    CAUSE_TX_BUSY,
    KINDS,
    NO_GATEWAYS,
    WILSON_Z,
    KindStats,
    MetricsCollector,
    OutcomeLog,
    PacketOutcome,
    build_report,
    emit_report,
    latency_of,
    plr,
    system_cause,
    wilson_interval,
)


class TestWilsonInterval:
    def test_zero_losses_upper_bound_closed_form(self):
        n = 100
        lo, hi = wilson_interval(0, n)
        assert lo == 0.0
        assert hi == pytest.approx(WILSON_Z**2 / (n + WILSON_Z**2), rel=1e-12)

    def test_all_losses_mirror_zero_losses(self):
        lo0, hi0 = wilson_interval(0, 250)
        lo1, hi1 = wilson_interval(250, 250)
        assert lo1 == pytest.approx(1.0 - hi0, abs=1e-12)
        assert hi1 == 1.0

    def test_mirror_symmetry(self):
        lo, hi = wilson_interval(3, 50)
        lo_m, hi_m = wilson_interval(47, 50)
        assert lo == pytest.approx(1.0 - hi_m, abs=1e-12)
        assert hi == pytest.approx(1.0 - lo_m, abs=1e-12)

    def test_interval_narrows_with_sample_size(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(100, 1000)
        assert hi2 - lo2 < hi1 - lo1
        # Both contain the common point estimate.
        assert lo1 < 0.1 < hi1 and lo2 < 0.1 < hi2

    def test_point_estimate_and_interval(self):
        point, (lo, hi) = plr(732, 20_000)
        assert point == 0.0366
        assert lo < point < hi

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            plr(0, 0)


class TestOutcomes:
    def test_latency_is_trigger_to_server(self):
        out = PacketOutcome(uid=1, device="ed1", trigger_us=10_000_000,
                            delivered=True, delivered_at_us=10_287_264)
        assert latency_of(out) == 287_264

    def test_undelivered_has_no_latency(self):
        with pytest.raises(ValueError):
            latency_of(PacketOutcome(uid=2, device="ed1", trigger_us=0))

    @pytest.mark.parametrize("causes,expected", [
        ({"gw1": CAUSE_COLLISION, "gw2": CAUSE_TX_BUSY}, CAUSE_COLLISION),
        ({"gw1": CAUSE_GW_PREEMPTED, "gw2": CAUSE_TX_BUSY}, CAUSE_TX_BUSY),
        ({"gw1": CAUSE_NO_DEMOD_PATH, "gw2": CAUSE_COLLISION}, CAUSE_COLLISION),
        ({"gw1": CAUSE_DUTY_CYCLE, "gw2": CAUSE_COLLISION}, CAUSE_DUTY_CYCLE),
        ({"gw1": CAUSE_DUTY_CYCLE}, CAUSE_DUTY_CYCLE),
        ({"gw1": CAUSE_GW_PREEMPTED}, CAUSE_GW_PREEMPTED),
    ])
    def test_system_cause_priority(self, causes, expected):
        assert system_cause(causes) == expected

    def test_unknown_cause_rejected(self):
        with pytest.raises(ValueError):
            system_cause({"gw1": "meteor-strike"})
        with pytest.raises(ValueError):
            system_cause({})


class TestCollector:
    def test_kind_stats_accumulate(self):
        stats = KindStats()
        stats.add_loss(CAUSE_COLLISION)
        stats.add_loss(CAUSE_COLLISION)
        stats.add_loss(CAUSE_TX_BUSY)
        assert stats.losses == {CAUSE_COLLISION: 2, CAUSE_TX_BUSY: 1}
        assert stats.lost == 3

    def test_dcp_counter_names(self):
        assert set(MetricsCollector().dcp) == {
            "requested", "sent_rx1", "sent_rx2", "received",
            "skipped_duty_cycle", "skipped_tx_busy", "skipped_rx_only",
            "skipped_too_late", "missed_device_busy", "missed_window",
        }

    def test_gateway_outcomes_split_decoded_and_lost(self):
        coll = MetricsCollector()
        coll.on_gateway_outcome("UP", "gw1", None)
        coll.on_gateway_outcome("UP", "gw1", None)
        coll.on_gateway_outcome("UP", "gw1", CAUSE_COLLISION)
        coll.on_gateway_outcome("RP", "gw2", CAUSE_TX_BUSY)
        assert coll.gateway_outcomes == {
            "gw1": {"UP": {None: 2, CAUSE_COLLISION: 1}},
            "gw2": {"RP": {CAUSE_TX_BUSY: 1}},
        }
        report = build_report(coll, scenario_name="unit", seed=1, scenario_digest="0" * 16,
                              ended_at_us=0, assignments={})
        assert report["gateways"] == {
            "gw1": {"decoded": {"UP": 2}, "losses": {"UP": {CAUSE_COLLISION: 1}}},
            "gw2": {"decoded": {}, "losses": {"RP": {CAUSE_TX_BUSY: 1}}},
        }

    def test_latency_summary_nearest_rank(self):
        coll = MetricsCollector()
        coll.up_latencies_us = Counter([4000, 1000, 3000, 2000])
        summary = coll.latency_summary()
        assert summary == {"mean_ms": 2.5, "p50_ms": 2.0, "p95_ms": 4.0,
                           "p99_ms": 4.0, "max_ms": 4.0}

    def test_latency_summary_empty_is_none(self):
        assert MetricsCollector().latency_summary() is None


@settings(max_examples=200, deadline=None)
@given(latencies=st.one_of(
    st.lists(st.integers(0, 10**9), min_size=1, max_size=300),
    st.lists(st.sampled_from([0, 1, 287_264, 553_528, 10**9]), min_size=1, max_size=300),
    st.integers(0, 10**9).map(lambda v: [v])))
def test_latency_summary_equals_nearest_rank_over_every_latency(latencies):
    # Reference: nearest rank and math.fsum over the expanded sorted list.
    values = sorted(latencies)

    def nearest_rank(q):
        return values[max(1, math.ceil(q * len(values))) - 1]

    coll = MetricsCollector()
    coll.up_latencies_us = Counter(latencies)
    summary = coll.latency_summary()
    assert summary == {
        "mean_ms": math.fsum(values) / len(values) / 1000.0,
        "p50_ms": nearest_rank(0.50) / 1000.0,
        "p95_ms": nearest_rank(0.95) / 1000.0,
        "p99_ms": nearest_rank(0.99) / 1000.0,
        "max_ms": values[-1] / 1000.0,
    }
    # Bit for bit.
    assert (summary["mean_ms"].hex()
            == (math.fsum(values) / len(values) / 1000.0).hex())


DELIVERED = PacketOutcome(
    uid=7, device="ed1", trigger_us=10_000_000, start_us=10_000_000, end_us=10_267_264,
    delivered=True, delivered_at_us=10_287_264,
    per_gateway=MappingProxyType({"gw1": "decoded", "gw2": CAUSE_COLLISION}))
LOST_ON_AIR = PacketOutcome(
    uid=8, device="ed2", trigger_us=0, start_us=0, end_us=267_264,
    cause=CAUSE_GW_PREEMPTED,
    per_gateway=MappingProxyType({"gw1": CAUSE_GW_PREEMPTED, "gw2": CAUSE_COLLISION}))
LOST_TO_DUTY_CYCLE = PacketOutcome(uid=0, device="ed1", trigger_us=15_000_000,
                                   cause=CAUSE_DUTY_CYCLE)


def write(log, outcome):
    """Write ``outcome``'s fields, as a run writes a finalized uplink."""
    assert (outcome.start_us is None) == (outcome.end_us is None)
    assert outcome.delivered == (outcome.delivered_at_us is not None)
    aired = outcome.start_us is not None
    log.write(outcome.uid, outcome.device, outcome.trigger_us,
              outcome.start_us - outcome.trigger_us if aired else None,
              outcome.end_us - outcome.start_us if aired else None,
              outcome.delivered_at_us - outcome.end_us if outcome.delivered else None,
              outcome.cause, outcome.per_gateway)


class TestOutcomeLog:
    @pytest.fixture
    def log(self):
        log = OutcomeLog()
        for outcome in (DELIVERED, LOST_ON_AIR, LOST_TO_DUTY_CYCLE):
            write(log, outcome)
        return log

    @pytest.mark.parametrize("index,outcome", [
        (0, DELIVERED), (1, LOST_ON_AIR), (2, LOST_TO_DUTY_CYCLE),
        (-3, DELIVERED), (-2, LOST_ON_AIR), (-1, LOST_TO_DUTY_CYCLE)])
    def test_each_item_comes_back_as_appended(self, log, index, outcome):
        item = log[index]
        assert item == outcome
        assert item.per_gateway is outcome.per_gateway

    def test_absent_times_come_back_as_none(self, log):
        lost = log[2]
        assert (lost.start_us, lost.end_us, lost.delivered_at_us) == (None, None, None)
        assert log[1].start_us == 0  # a time of 0 is not an absent one

    def test_iteration_and_length(self, log):
        assert len(log) == 3
        items = list(log)
        assert items == [DELIVERED, LOST_ON_AIR, LOST_TO_DUTY_CYCLE]
        assert all(a.per_gateway is b.per_gateway
                   for a, b in zip(items, (DELIVERED, LOST_ON_AIR, LOST_TO_DUTY_CYCLE)))

    def test_each_item_keeps_its_own_per_gateway_map(self, log):
        # Same device, delivery and cause; one map differs, one is an equal copy.
        other = replace(DELIVERED, per_gateway=MappingProxyType({"gw1": "decoded",
                                                                 "gw2": "decoded"}))
        copy = replace(DELIVERED, per_gateway=MappingProxyType(dict(DELIVERED.per_gateway)))
        write(log, other)
        write(log, copy)
        assert log[0].per_gateway is DELIVERED.per_gateway
        assert log[3].per_gateway is other.per_gateway
        assert log[4].per_gateway is copy.per_gateway

    def test_unpacking(self):
        log = OutcomeLog()
        write(log, DELIVERED)
        write(log, LOST_TO_DUTY_CYCLE)
        first, second = log
        assert (first, second) == (DELIVERED, LOST_TO_DUTY_CYCLE)

    def test_rows_that_differ_only_in_wait_get_two_shapes(self):
        # A deferred copy: its start, end and delivered-at all 1 us later.
        deferred = replace(DELIVERED, start_us=DELIVERED.start_us + 1,
                           end_us=DELIVERED.end_us + 1,
                           delivered_at_us=DELIVERED.delivered_at_us + 1)
        log = OutcomeLog()
        write(log, DELIVERED)
        write(log, deferred)
        write(log, DELIVERED)
        assert list(log) == [DELIVERED, deferred, DELIVERED]
        assert len(log._shapes) == 2

    def test_out_of_range_and_slices_rejected(self, log):
        with pytest.raises(IndexError):
            log[3]
        with pytest.raises(IndexError):
            log[-4]
        with pytest.raises(TypeError):
            log[0:2]
        assert not OutcomeLog()


# Per-gateway maps for the round trip: two equal but distinct objects.
_MAPS = (NO_GATEWAYS, MappingProxyType({"gw1": "decoded"}),
         MappingProxyType({"gw1": CAUSE_COLLISION}), MappingProxyType({"gw1": CAUSE_COLLISION}))


@st.composite
def outcomes(draw, uid):
    trigger = draw(st.integers(0, 10**12))
    wait = draw(st.one_of(st.none(), st.just(0), st.integers(1, 10**7)))
    aired = wait is not None
    delivered = aired and draw(st.booleans())
    start = trigger + wait if aired else None
    end = start + draw(st.sampled_from([1, 41_216, 267_264])) if aired else None
    return PacketOutcome(
        uid=uid, device=draw(st.sampled_from(["ed1", "ed2"])), trigger_us=trigger,
        start_us=start, end_us=end, delivered=delivered,
        delivered_at_us=end + draw(st.sampled_from([0, 20_000])) if delivered else None,
        cause=None if delivered else draw(st.sampled_from(CAUSE_PRIORITY)),
        per_gateway=draw(st.sampled_from(_MAPS)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**40).flatmap(outcomes), max_size=30))
def test_outcome_log_returns_every_row_as_written(written):
    log = OutcomeLog()
    for outcome in written:
        write(log, outcome)
    n = len(written)
    assert len(log) == n
    for i, outcome in enumerate(written):
        for item in (log[i], log[i - n]):
            assert item == outcome
            assert item.per_gateway is outcome.per_gateway
    items = list(log)
    assert items == written
    assert all(a.per_gateway is b.per_gateway for a, b in zip(items, written))
    # One shape per distinct (device, cause, map, wait, airtime, delay).
    assert len(log._shapes) == len({
        (o.device, o.cause, id(o.per_gateway),
         None if o.start_us is None else o.start_us - o.trigger_us,
         None if o.end_us is None else o.end_us - o.start_us,
         None if o.delivered_at_us is None else o.delivered_at_us - o.end_us)
        for o in written})


def make_collector():
    coll = MetricsCollector()
    up = coll.kind("UP")
    up.generated, up.delivered = 4, 3
    up.add_loss(CAUSE_COLLISION)
    rp = coll.kind("RP")
    rp.generated, rp.delivered = 2, 2
    coll.up_latencies_us = Counter([250_000, 300_000, 350_000])
    coll.on_gateway_outcome("UP", "gw1", None)
    coll.on_gateway_outcome("UP", "gw1", CAUSE_COLLISION)
    coll.dcp["requested"] = 3
    coll.dcp["sent_rx1"] = 2
    coll.dcp["received"] = 2
    coll.dcp["skipped_tx_busy"] = 1
    return coll


def make_report():
    return build_report(make_collector(), scenario_name="unit", seed=5,
                        scenario_digest="0123456789abcdef", ended_at_us=1_000_000,
                        assignments={"ed1": (868_100_000, 7), "ed2": (867_100_000, 8)})


class TestReport:
    def test_plr_fields_present_when_traffic_ran(self):
        report = make_report()
        up = report["kinds"]["UP"]
        assert up["plr"] == 0.25
        lo, hi = up["plr_ci95"]
        assert lo < 0.25 < hi
        assert up["latency"]["p50_ms"] == 300.0
        assert report["kinds"]["RP"]["plr"] == 0.0

    def test_assignments_and_gateways_shape(self):
        report = make_report()
        assert report["assignments"]["ed1"] == {"channel_hz": 868_100_000, "sf": 7}
        assert report["gateways"]["gw1"]["decoded"] == {"UP": 1}
        assert report["gateways"]["gw1"]["losses"] == {"UP": {CAUSE_COLLISION: 1}}

    def test_matches_published_schema(self, docs_dir):
        schema = json.loads((docs_dir / "report.schema.json").read_text())
        jsonschema.validate(make_report(), schema)

    def test_schema_rejects_malformed_documents(self, docs_dir):
        schema = json.loads((docs_dir / "report.schema.json").read_text())
        bad = make_report()
        bad["scenario_digest"] = "not-a-digest"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)
        bad = make_report()
        del bad["dcp"]["requested"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)

    def test_schema_lists_exactly_the_causes_and_kinds_a_run_counts(self, docs_dir):
        schema = json.loads((docs_dir / "report.schema.json").read_text())
        causes = schema["definitions"]["cause_histogram"]["propertyNames"]["enum"]
        kinds = schema["properties"]["kinds"]["propertyNames"]["enum"]
        assert sorted(causes) == sorted(CAUSE_PRIORITY)
        assert sorted(kinds) == sorted(KINDS)

    def test_json_emission_is_deterministic(self):
        report = make_report()
        text = emit_report(report, "json")
        assert text == emit_report(make_report(), "json")
        assert text.endswith("\n")
        assert json.loads(text) == report

    def test_csv_emission_is_flat_and_sorted(self):
        lines = emit_report(make_report(), "csv").splitlines()
        assert lines[0] == "key,value"
        keys = [line.split(",", 1)[0] for line in lines[1:]]
        assert keys == sorted(keys)
        assert "kinds.UP.generated" in keys
        assert "assignments.ed1.channel_hz" in keys

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(make_report(), "xml")
