"""Scenario documents: unit-suffixed quantities, validation, round-trips."""

import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from loraguard import scenario as scenario_module
from loraguard.scenario import (
    Scenario,
    ScenarioError,
    StopSpec,
    load_scenario,
    parse_duration,
    parse_frequency,
    parse_scenario,
    save_scenario,
    scenario_digest,
    scenario_to_dict,
    shipped_scenario_path,
    urgent_resources,
)
from loraguard.phy import default_eu868_plan
from loraguard.sensor import SensorProfile
from loraguard.server import assign_resources
from loraguard.simulation import Simulation

SHIPPED = [
    "test1_sf_pairs",
    "test2_dl_priority",
    "test3_dual_gw",
    "calibration_pairs_sf7",
    "calibration_pairs_sf7_sf8",
    "demo_small",
    "burst_cluster15",
]


class TestQuantityParsing:
    @pytest.mark.parametrize("text,expected", [
        ("10 us", 10),
        ("50 ms", 50_000),
        ("70 s", 70_000_000),
        ("0.5 s", 500_000),
        ("2 min", 120_000_000),
        ("1 h", 3_600_000_000),
        ("70s", 70_000_000),
    ])
    def test_durations(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("text,expected", [
        ("867.1 MHz", 867_100_000),
        ("868 mhz", 868_000_000),
        ("869525 kHz", 869_525_000),
        ("1 GHz", 1_000_000_000),
        ("125000 Hz", 125_000),
    ])
    def test_frequencies(self, text, expected):
        assert parse_frequency(text) == expected

    def test_bare_numbers_are_rejected_with_the_field_path(self):
        with pytest.raises(ScenarioError, match="stop.duration"):
            parse_duration(70, "stop.duration")
        with pytest.raises(ScenarioError, match="assignment.channel"):
            parse_frequency(867.1, "assignment.channel")

    def test_unknown_units_are_rejected(self):
        with pytest.raises(ScenarioError, match="duration unit"):
            parse_duration("70 parsec")
        with pytest.raises(ScenarioError, match="frequency unit"):
            parse_frequency("867 THz")

    def test_garbage_strings_are_rejected(self):
        with pytest.raises(ScenarioError):
            parse_duration("fast")
        with pytest.raises(ScenarioError):
            parse_duration("")


class TestShippedScenarios:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_loads_and_validates(self, name):
        scenario = load_scenario(shipped_scenario_path(name))
        assert scenario.name == name
        assert scenario.devices and scenario.gateways and scenario.clusters

    def test_unknown_name_rejected(self):
        with pytest.raises(FileNotFoundError):
            shipped_scenario_path("no_such_scenario")


class TestRoundTrip:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_serialization_round_trips_exactly(self, name):
        original = load_scenario(shipped_scenario_path(name))
        doc = yaml.safe_load(yaml.safe_dump(scenario_to_dict(original)))
        assert parse_scenario(doc) == original
        assert scenario_digest(parse_scenario(doc)) == scenario_digest(original)

    def test_digest_shape_and_sensitivity(self):
        scenario = load_scenario(shipped_scenario_path("demo_small"))
        digest = scenario_digest(scenario)
        assert re.fullmatch(r"[0-9a-f]{16}", digest)
        assert scenario_digest(scenario.with_seed(scenario.seed + 1)) != digest

    def test_save_and_reload(self, tmp_path):
        original = load_scenario(shipped_scenario_path("test2_dl_priority"))
        out = tmp_path / "copy.yaml"
        save_scenario(original, out)
        assert load_scenario(out) == original

    def test_device_lookup(self):
        scenario = load_scenario(shipped_scenario_path("test2_dl_priority"))
        assert scenario.device("ed1").cluster == "c1"
        with pytest.raises(KeyError):
            scenario.device("ghost")


def minimal_doc():
    return {
        "name": "unit",
        "stop": {"ups": 5},
        "gateways": [{"id": "gw1"}],
        "clusters": [{"id": "c1", "members": ["ed1"], "dcp_gateway": "gw1"}],
        "devices": [{"id": "ed1", "cluster": "c1"}],
    }


class TestDocumentValidation:
    def test_minimal_document_parses_with_defaults(self):
        scenario = parse_scenario(minimal_doc())
        assert scenario.seed == 0
        assert scenario.device("ed1").rp_period_us == 70_000_000
        assert scenario.rp_subband == "g1" and scenario.up_subband == "g"
        assert scenario.device_duty_policy == "offtime"

    def test_unknown_fields_are_rejected(self):
        doc = minimal_doc()
        doc["warp_factor"] = 9
        with pytest.raises(ScenarioError, match="unknown fields.*warp_factor"):
            parse_scenario(doc)
        doc = minimal_doc()
        doc["devices"][0]["antenna"] = "yagi"
        with pytest.raises(ScenarioError, match=r"devices\[0\]\(ed1\).*antenna"):
            parse_scenario(doc)

    def test_stop_requires_exactly_one_of_ups_or_duration(self):
        doc = minimal_doc()
        doc["stop"] = {"ups": 5, "duration": "30 s"}
        with pytest.raises(ScenarioError, match="exactly one"):
            parse_scenario(doc)
        doc["stop"] = {}
        with pytest.raises(ScenarioError, match="exactly one"):
            parse_scenario(doc)
        with pytest.raises(ScenarioError):
            StopSpec(ups=0)

    @pytest.mark.parametrize("seed", [True, -1, "7"])
    def test_bad_seeds_rejected(self, seed):
        doc = minimal_doc()
        doc["seed"] = seed
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(doc)

    def test_duplicate_and_shared_ids_rejected(self):
        doc = minimal_doc()
        doc["devices"].append({"id": "ed1", "cluster": "c1"})
        with pytest.raises(ScenarioError, match="duplicate ids"):
            parse_scenario(doc)
        doc = minimal_doc()
        doc["devices"][0]["id"] = "gw1"
        doc["clusters"][0]["members"] = ["gw1"]
        with pytest.raises(ScenarioError, match="both a device and a gateway"):
            parse_scenario(doc)

    def test_membership_must_be_consistent(self):
        doc = minimal_doc()
        doc["clusters"][0]["members"] = ["ed1", "ghost"]
        with pytest.raises(ScenarioError, match="unknown device 'ghost'"):
            parse_scenario(doc)
        doc = minimal_doc()
        doc["clusters"].append({"id": "c2", "members": ["ed1"], "dcp_gateway": "gw1"})
        with pytest.raises(ScenarioError, match="already in"):
            parse_scenario(doc)
        doc = minimal_doc()
        doc["devices"][0]["cluster"] = "c9"
        with pytest.raises(ScenarioError, match="unknown cluster 'c9'"):
            parse_scenario(doc)
        doc = minimal_doc()
        doc["clusters"][0]["members"] = ["ed1", "ed1"]
        with pytest.raises(ScenarioError, match=re.escape(
                "clusters(c1).members: 'ed1' already in 'c1'")):
            parse_scenario(doc)

    def test_empty_cluster_rejected(self):
        doc = minimal_doc()
        doc["clusters"].append({"id": "c2", "members": [], "dcp_gateway": "gw1"})
        with pytest.raises(ScenarioError, match=re.escape("clusters(c2).members: empty")):
            parse_scenario(doc)

    def test_control_gateway_must_exist_and_transmit(self):
        doc = minimal_doc()
        doc["clusters"][0]["dcp_gateway"] = "gw9"
        with pytest.raises(ScenarioError, match="unknown gateway 'gw9'"):
            parse_scenario(doc)
        doc = minimal_doc()
        doc["gateways"][0]["role"] = "rx_only"
        with pytest.raises(ScenarioError, match="receive-only"):
            parse_scenario(doc)

    def test_assignment_constraints(self):
        doc = minimal_doc()
        doc["devices"][0]["assignment"] = {"channel": "868.1 MHz", "sf": 7}
        with pytest.raises(ScenarioError, match="not an urgent channel"):
            parse_scenario(doc)
        doc = minimal_doc()
        doc["devices"][0]["assignment"] = {"channel": "867.1 MHz", "sf": 11}
        with pytest.raises(ScenarioError, match=r"sf: 11 outside \[7, 10\]"):
            parse_scenario(doc)

    def test_channel_occupancy_capped_at_three(self):
        doc = minimal_doc()
        ids = ["ed1", "ed2", "ed3", "ed4"]
        doc["clusters"][0]["members"] = ids
        doc["devices"] = [
            {"id": i, "cluster": "c1",
             "assignment": {"channel": "867.1 MHz", "sf": sf}}
            for i, sf in zip(ids, (7, 8, 9, 10))
        ]
        with pytest.raises(ScenarioError, match="more than 3 devices"):
            parse_scenario(doc)

    def test_trigger_references_and_levels(self):
        doc = minimal_doc()
        doc["alarms"] = [{"kind": "script", "species": "methane",
                          "level": "1.2 %vol", "devices": ["ghost"],
                          "times": ["10 s"]}]
        with pytest.raises(ScenarioError, match="unknown device 'ghost'"):
            parse_scenario(doc)
        doc["alarms"] = [{"kind": "script", "species": "methane",
                          "level": "1.2 %vol", "times": ["10 s"]}]
        with pytest.raises(ScenarioError, match="needs 'devices' or 'cluster'"):
            parse_scenario(doc)
        doc["alarms"] = [{"kind": "script", "species": "co",
                          "level": "150 %vol", "devices": ["ed1"],
                          "times": ["10 s"]}]
        with pytest.raises(ScenarioError, match="co levels use 'ppm'"):
            parse_scenario(doc)
        doc["alarms"] = [{"kind": "script", "species": "methane",
                          "level": 1.2, "devices": ["ed1"], "times": ["10 s"]}]
        with pytest.raises(ScenarioError, match=r"alarms\[0\].level"):
            parse_scenario(doc)

    def test_capture_overrides_validated(self):
        doc = minimal_doc()
        doc["capture"] = {"survival": {"7-8": 0.5}}
        with pytest.raises(ScenarioError, match="own_sf/other_sf"):
            parse_scenario(doc)
        doc["capture"] = {"survival": {"7/8": 1.5}}
        with pytest.raises(ScenarioError, match=r"outside \[0, 1\]"):
            parse_scenario(doc)
        doc["capture"] = {"mode": "psychic"}
        with pytest.raises(ScenarioError, match="capture.mode"):
            parse_scenario(doc)

    def test_policies_and_subbands_validated(self):
        doc = minimal_doc()
        doc["device_duty_policy"] = "hourly"
        with pytest.raises(ScenarioError, match="device_duty_policy"):
            parse_scenario(doc)
        doc = minimal_doc()
        doc["rp_subband"] = "g9"
        with pytest.raises(ScenarioError, match="unknown sub-band 'g9'"):
            parse_scenario(doc)
        doc = minimal_doc()
        doc["gateways"][0]["duty_policy"] = "hourly"
        with pytest.raises(ScenarioError, match="duty_policy"):
            parse_scenario(doc)

    def test_report_channels_must_sit_in_the_report_band(self):
        doc = minimal_doc()
        doc["devices"][0]["rp_channels"] = ["867.1 MHz"]
        with pytest.raises(ScenarioError, match="outside sub-band g1"):
            parse_scenario(doc)

    def test_every_problem_is_reported_at_once(self):
        doc = minimal_doc()
        doc["gateways"].append({"id": "gw1"})            # duplicate gateway id
        doc["clusters"][0]["members"] = ["ed1", "ghost"]  # unknown member
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        message = str(err.value)
        assert "duplicate ids" in message
        assert "unknown device 'ghost'" in message
        assert "; " in message

    def test_invalid_yaml_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: [unclosed\n")
        with pytest.raises(ScenarioError, match="not valid YAML"):
            load_scenario(bad)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "nope.yaml")


# Sets every declared field, and every hand-written alarm and sensor key, to a
# value other than its default; ed2 sits on the inclusive range bounds.  The
# digest was recorded with the hand-written parsers and serialiser that the
# field declarations replaced.
EVERY_FIELD_DOC = {
    "name": "every_field",
    "seed": 11,
    "stop": {"duration": "2 h"},
    "gateways": [
        {"id": "gw1", "role": "full", "demod_paths": 4, "backhaul": "35 ms",
         "duty_policy": "offtime"},
        {"id": "gw2", "role": "rx_only", "demod_paths": 2, "backhaul": "250 us",
         "duty_policy": "window"},
    ],
    "clusters": [
        {"id": "c1", "members": ["ed1", "ed2"], "dcp_gateway": "gw1",
         "up_channels": ["868.1 MHz", "868.3 MHz"]},
    ],
    "devices": [
        {"id": "ed1", "cluster": "c1", "rp_period": "30 s", "clock_sigma": "20 ms",
         "rp_sf": 9, "rp_payload": 20, "rp_channels": ["869.525 MHz"],
         "up_payload": 12, "assignment": {"channel": "868.1 MHz", "sf": 8},
         "rx_power": "-3.5 dBm", "receive_delay1": "1500 ms",
         "receive_delay2": "2500 ms", "rp_floor": "250 ms"},
        {"id": "ed2", "cluster": "c1", "rp_period": None, "clock_sigma": "0 s",
         "rp_sf": 12, "rp_payload": 255, "rp_channels": ["869.525 MHz"],
         "up_payload": 0, "assignment": {"channel": "868.3 MHz", "sf": 10},
         "rx_power": "4 dBm", "receive_delay1": "3 s",
         "receive_delay2": "4 s", "rp_floor": "0 s"},
    ],
    "alarms": [
        {"kind": "script", "species": "co", "level": "150 ppm", "devices": ["ed1"],
         "times": ["10 s", "90 s"]},
        {"kind": "random", "species": "propane", "level": "0.9 %vol", "cluster": "c1",
         "devices": ["ed2"], "interarrival": {"min": "200 s", "max": "300 s"}},
    ],
    "capture": {"mode": "threshold", "co_sf_margin": "4.5 dB",
                "survival": {"8/7": 0.75, "7/8": 0.25}},
    "sensor": {"co_alarm": "120 ppm", "o2_deficiency": "18.5 %"},
    "dcp_payload": 21,
    "rp_subband": "g3",
    "up_subband": "g1",
    "device_duty_policy": "window",
}
EVERY_FIELD_DIGEST = "811d32dde7b8c823"


class TestEveryField:
    def test_digest_is_pinned(self):
        assert scenario_digest(parse_scenario(EVERY_FIELD_DOC)) == EVERY_FIELD_DIGEST

    def test_round_trips_exactly(self):
        original = parse_scenario(EVERY_FIELD_DOC)
        doc = yaml.safe_load(yaml.safe_dump(scenario_to_dict(original)))
        assert parse_scenario(doc) == original
        assert scenario_to_dict(parse_scenario(doc)) == scenario_to_dict(original)

    def test_every_declared_field_is_set_away_from_its_default(self):
        scenario = parse_scenario(EVERY_FIELD_DOC)
        specs = [scenario, scenario.stop, scenario.capture,
                 *scenario.gateways, *scenario.clusters, *scenario.devices]
        for cls in {type(spec) for spec in specs}:
            for f in dataclasses.fields(cls):
                if (cls, f.name) == (StopSpec, "ups"):
                    continue  # excludes 'duration'; every shipped scenario sets it
                assert any(getattr(spec, f.name) != f.default
                           for spec in specs if type(spec) is cls), (cls.__name__, f.name)
        assert scenario.sensor != SensorProfile()
        assert {t.kind for t in scenario.triggers} == {"script", "random"}

    def test_simulation_objects_carry_every_spec_value(self):
        scenario = parse_scenario(EVERY_FIELD_DOC)
        sim = Simulation(scenario)
        pairs = [(spec, sim.devices[spec.id]) for spec in scenario.devices]
        pairs += [(spec, sim.gateways[spec.id]) for spec in scenario.gateways]
        pairs += [(scenario.capture, sim.capture)]
        for spec, built in pairs:
            for f in dataclasses.fields(spec):
                if f.name == "duty_policy":
                    continue  # a ledger setting, not a gateway attribute
                expected = getattr(spec, f.name)
                if f.name == "survival":
                    assert {k: built.survival[k] for k, _p in expected} == dict(expected)
                else:
                    assert getattr(built, f.name) == expected, (type(built).__name__, f.name)


OUT_OF_RANGE = [
    # (section, key, value, the problem reported)
    ("devices", "rp_payload", -1, "devices(ed1).rp_payload: -1 outside [0, 255]"),
    ("devices", "rp_payload", 300, "devices(ed1).rp_payload: 300 outside [0, 255]"),
    ("devices", "up_payload", 256, "devices(ed1).up_payload: 256 outside [0, 255]"),
    (None, "dcp_payload", -3, "dcp_payload: -3 outside [0, 255]"),
    (None, "seed", 2**63, "seed: 9223372036854775808 outside [0, 9223372036854775807]"),
    ("gateways", "backhaul", "-5 ms", "gateways(gw1).backhaul: -5 ms below 0 s"),
    ("devices", "receive_delay1", "-1 s", "devices(ed1).receive_delay1: -1 s below 0 s"),
    ("devices", "receive_delay2", "-2 s", "devices(ed1).receive_delay2: -2 s below 0 s"),
    ("devices", "rp_floor", "-1 ms", "devices(ed1).rp_floor: -1 ms below 0 s"),
    ("devices", "receive_delay1", "3 s",
     "devices(ed1).receive_delay1: 3 s not before receive_delay2 2 s"),
    ("devices", "receive_delay1", "2 s",
     "devices(ed1).receive_delay1: 2 s not before receive_delay2 2 s"),
]


class TestFieldRanges:
    @pytest.mark.parametrize("section,key,value,message", OUT_OF_RANGE,
                             ids=[f"{key}={value}" for _s, key, value, _m in OUT_OF_RANGE])
    def test_out_of_range_values_name_the_field(self, section, key, value, message):
        doc = minimal_doc()
        (doc[section][0] if section else doc)[key] = value
        with pytest.raises(ScenarioError, match=re.escape(message)):
            parse_scenario(doc)

    def test_seed_override_is_held_to_the_declared_range(self):
        scenario = parse_scenario(minimal_doc())
        assert scenario.with_seed(2**63 - 1).seed == 2**63 - 1
        for seed in (-1, 2**63):
            with pytest.raises(ScenarioError,
                               match=re.escape(f"seed: {seed} outside [0, 9223372036854775807]")):
                scenario.with_seed(seed)

    def test_null_takes_the_default_except_where_null_is_a_value(self):
        doc = minimal_doc()
        doc["devices"][0].update(rp_sf=None, assignment=None, rp_period=None)
        device = parse_scenario(doc).device("ed1")
        assert device.rp_sf == 7 and device.assignment is None
        assert device.rp_period_us is None
        doc["devices"][0]["cluster"] = None
        with pytest.raises(ScenarioError, match=r"devices\[0\]\(ed1\)\.cluster: required"):
            parse_scenario(doc)


def mixed_assignment_doc():
    doc = minimal_doc()
    doc["clusters"][0]["members"] = ["ed1", "ed2"]
    doc["devices"] = [
        {"id": "ed1", "cluster": "c1"},
        {"id": "ed2", "cluster": "c1", "assignment": {"channel": "867.1 MHz", "sf": 7}},
    ]
    return doc


def test_non_string_survival_keys_are_reported_not_crashed_on():
    doc = minimal_doc()
    doc["capture"] = {"survival": {"7/8": 0.5, 78: 0.5}}
    with pytest.raises(ScenarioError, match="own_sf/other_sf.*78"):
        parse_scenario(doc)


class TestAssignmentCollisions:
    def test_automatic_assignment_may_not_take_an_explicit_resource(self):
        with pytest.raises(ScenarioError, match=re.escape(
                "devices(ed1).assignment: automatic (867.1 MHz, SF7) collides with ed2")):
            parse_scenario(mixed_assignment_doc())

    def test_mixed_assignments_on_distinct_resources_are_accepted(self):
        doc = mixed_assignment_doc()
        doc["devices"][1]["assignment"] = {"channel": "867.3 MHz", "sf": 7}
        assert parse_scenario(doc).device("ed1").assignment is None

    def test_explicit_duplicates_stay_legal(self):
        doc = mixed_assignment_doc()
        doc["devices"][0]["assignment"] = {"channel": "867.1 MHz", "sf": 7}
        assert parse_scenario(doc)


URGENT_CHANNELS = default_eu868_plan().subband("g").channels


def cluster_doc(n):
    """One cluster of ``n`` members, ed01.., with no explicit assignments."""
    doc = minimal_doc()
    ids = [f"ed{i:02d}" for i in range(1, n + 1)]
    doc["clusters"][0]["members"] = ids
    doc["devices"] = [{"id": m, "cluster": "c1"} for m in ids]
    return doc


class TestUrgentResources:
    def test_without_explicit_assignments_the_table_is_the_automatic_rule(self):
        channels, table = urgent_resources(parse_scenario(cluster_doc(6)))
        assert channels == {"c1": URGENT_CHANNELS}
        assert table == assign_resources([f"ed{i:02d}" for i in range(1, 7)], URGENT_CHANNELS)

    def test_listed_up_channels_replace_the_urgent_subband(self):
        doc = cluster_doc(3)
        doc["clusters"][0]["up_channels"] = ["867.5 MHz", "867.9 MHz"]
        channels, table = urgent_resources(parse_scenario(doc))
        assert channels == {"c1": (867_500_000, 867_900_000)}
        assert table == assign_resources(("ed01", "ed02", "ed03"), channels["c1"])

    def test_explicit_assignments_are_kept_and_the_others_filled_in(self):
        doc = cluster_doc(3)
        doc["devices"][0]["assignment"] = {"channel": "867.9 MHz", "sf": 10}
        _channels, table = urgent_resources(parse_scenario(doc))
        automatic = assign_resources(("ed01", "ed02", "ed03"), URGENT_CHANNELS)
        assert table == {"ed01": (867_900_000, 10),
                         "ed02": automatic["ed02"], "ed03": automatic["ed03"]}

    def test_automatic_rule_runs_only_when_a_member_lacks_an_assignment(self, monkeypatch):
        doc = cluster_doc(2)
        doc["devices"][0]["assignment"] = {"channel": "867.9 MHz", "sf": 10}
        doc["devices"][1]["assignment"] = {"channel": "867.9 MHz", "sf": 9}
        scenario = parse_scenario(doc)

        def refuse(*_args):
            raise AssertionError("automatic rule called")

        monkeypatch.setattr("loraguard.server.assign_resources", refuse)
        assert urgent_resources(scenario)[1] == {"ed01": (867_900_000, 10),
                                                 "ed02": (867_900_000, 9)}

    def test_alarm_scope_is_its_devices_else_its_clusters_members(self):
        doc = cluster_doc(3)
        doc["alarms"] = [
            {"kind": "script", "species": "methane", "level": "1.2 %vol",
             "devices": ["ed02"], "times": ["10 s"]},
            {"kind": "script", "species": "methane", "level": "1.2 %vol",
             "cluster": "c1", "times": ["10 s"]},
        ]
        scenario = parse_scenario(doc)
        assert [scenario.alarm_scope(t) for t in scenario.triggers] == [
            ("ed02",), ("ed01", "ed02", "ed03")]


DOC_TABLES = {
    scenario_module.Scenario: "Top-level fields",
    scenario_module.StopSpec: "Stop",
    scenario_module.GatewaySpec: "Gateways",
    scenario_module.ClusterSpec: "Clusters",
    scenario_module.DeviceSpec: "Devices",
    scenario_module.CaptureSpec: "Capture",
}


def documented_keys(section: str) -> set[str]:
    """First-column keys of the table under ``## <section>`` in the format doc."""
    text = (Path(__file__).parent.parent / "docs" / "scenario_format.md").read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([a-z0-9_]+)`", body, flags=re.MULTILINE))


class TestFormatDoc:
    def test_every_declared_spec_has_a_table(self):
        declared = {obj for obj in vars(scenario_module).values()
                    if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and "key" in dataclasses.fields(obj)[0].metadata}
        assert declared == set(DOC_TABLES)

    @pytest.mark.parametrize("spec", list(DOC_TABLES), ids=lambda spec: spec.__name__)
    def test_table_lists_exactly_the_declared_keys(self, spec):
        keys = {f.metadata["key"] for f in dataclasses.fields(spec)}
        assert documented_keys(DOC_TABLES[spec]) == keys
