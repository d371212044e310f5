"""Loss accounting, Wilson intervals, latency statistics, report shape."""

import json

import jsonschema
import pytest

from loraguard.metrics import (
    CAUSE_COLLISION,
    CAUSE_DUTY_CYCLE,
    CAUSE_GW_PREEMPTED,
    CAUSE_NO_DEMOD_PATH,
    CAUSE_PRIORITY,
    CAUSE_TX_BUSY,
    WILSON_Z,
    KindStats,
    MetricsCollector,
    PacketOutcome,
    build_report,
    emit_report,
    latency_of,
    plr,
    system_cause,
    wilson_interval,
)
from loraguard.phy import TransmissionKind


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
        assert coll.gateway_decoded == {"gw1": {"UP": 2}}
        assert coll.per_gateway_losses == {
            "gw1": {"UP": {CAUSE_COLLISION: 1}},
            "gw2": {"RP": {CAUSE_TX_BUSY: 1}},
        }

    def test_latency_summary_nearest_rank(self):
        coll = MetricsCollector()
        coll.up_latencies_us = [4000, 1000, 3000, 2000]
        summary = coll.latency_summary()
        assert summary == {"mean_ms": 2.5, "p50_ms": 2.0, "p95_ms": 4.0,
                           "p99_ms": 4.0, "max_ms": 4.0}

    def test_latency_summary_empty_is_none(self):
        assert MetricsCollector().latency_summary() is None


def make_collector():
    coll = MetricsCollector()
    up = coll.kind("UP")
    up.generated, up.delivered = 4, 3
    up.add_loss(CAUSE_COLLISION)
    rp = coll.kind("RP")
    rp.generated, rp.delivered = 2, 2
    coll.up_latencies_us = [250_000, 300_000, 350_000]
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
        assert sorted(kinds) == sorted(kind.value for kind in TransmissionKind)

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
