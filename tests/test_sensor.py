"""Gas-sensor model: bridge voltages, quantized thresholds, trigger instants."""

import dataclasses
import itertools
import logging
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loraguard.engine import US_PER_SECOND, RandomStreams
from loraguard.scenario import GasLevel, ScenarioError, parse_scenario
from loraguard.sensor import (
    COMBUSTIBLE_ALARM_VOLTS,
    COMBUSTIBLE_GASES,
    LEL_PCT_VOL,
    SensorProfile,
    TriggerSpec,
    alarm_check,
    bridge_voltage,
    generate_events,
    lel_voltage,
    quantize,
)

PROFILE = SensorProfile()
ONE_DEVICE = parse_scenario({
    "name": "one-device",
    "stop": {"ups": 1},
    "gateways": [{"id": "gw1"}],
    "clusters": [{"id": "c1", "members": ["ed1"], "dcp_gateway": "gw1"}],
    "devices": [{"id": "ed1", "cluster": "c1"}],
})


def build_with(trigger):
    """A one-device scenario whose only alarm is ``trigger``; building it checks the trigger."""
    return dataclasses.replace(ONE_DEVICE, triggers=(trigger,))


class TestCombustibleBridge:
    @pytest.mark.parametrize("species,volts", [
        ("methane", 2.5), ("propane", 0.7), ("butane", 0.6),
    ])
    def test_voltage_at_the_explosive_limit(self, species, volts):
        assert abs(lel_voltage(species) - volts) < 1e-12

    def test_alarm_fires_strictly_below_every_explosive_limit(self):
        for species in COMBUSTIBLE_GASES:
            pct_per_volt = 2.0 * (1.5 if species != "methane" else 1.0)
            alarm_conc = COMBUSTIBLE_ALARM_VOLTS * pct_per_volt
            assert alarm_conc < LEL_PCT_VOL[species]
            assert alarm_check(PROFILE, species, alarm_conc)

    def test_methane_alarm_boundary(self):
        assert alarm_check(PROFILE, "methane", 1.0)      # 0.5 V
        assert not alarm_check(PROFILE, "methane", 0.999)

    def test_propane_reads_at_two_thirds_the_methane_voltage(self):
        c = 1.2
        assert abs(bridge_voltage("propane", c) - bridge_voltage("methane", c) / 1.5) < 1e-12

    def test_non_combustible_species_rejected(self):
        with pytest.raises(ValueError):
            bridge_voltage("co", 1.0)

    def test_negative_concentration_rejected(self):
        with pytest.raises(ValueError):
            bridge_voltage("methane", -0.1)

    @given(st.sampled_from(COMBUSTIBLE_GASES),
           st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_voltage_is_monotone_in_concentration(self, species, c1, c2):
        lo, hi = sorted((c1, c2))
        assert bridge_voltage(species, lo) <= bridge_voltage(species, hi)


class TestQuantizedChannels:
    def test_co_rounds_to_resolution(self):
        assert quantize(99.9, 2.0, 0.0, 500.0) == (100.0, False)
        assert quantize(98.9, 2.0, 0.0, 500.0) == (98.0, False)

    def test_co_alarm_respects_rounding(self):
        assert alarm_check(PROFILE, "co", 99.9)       # reads 100
        assert not alarm_check(PROFILE, "co", 98.9)   # reads 98

    def test_co_out_of_range_is_clamped_but_still_evaluated(self):
        assert quantize(600.0, 2.0, 0.0, 500.0) == (500.0, True)
        assert quantize(-5.0, 2.0, 0.0, 500.0) == (0.0, True)
        assert alarm_check(PROFILE, "co", 600.0)
        assert not alarm_check(PROFILE, "co", -5.0)

    def test_o2_deficiency_boundary(self):
        assert alarm_check(PROFILE, "o2", 19.0)
        assert alarm_check(PROFILE, "o2", 19.2)       # reads 19.0
        assert not alarm_check(PROFILE, "o2", 19.3)   # reads 19.5

    @pytest.mark.parametrize("species,level,warnings", [
        ("co", 600.0, ["CO reading 600.0 ppm clamped to 500.0"]),
        ("o2", 25.0, ["O2 reading 25.0% clamped to 21.0%"]),
        ("co", 99.9, []),
        ("o2", 19.2, []),
    ])
    def test_only_a_clamped_reading_warns_on_the_sensor_logger(self, caplog, species, level,
                                                              warnings):
        with caplog.at_level(logging.DEBUG, logger="loraguard.sensor"):
            alarm_check(PROFILE, species, level)
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("loraguard.sensor", "WARNING", w) for w in warnings]

    def test_unknown_species_rejected(self):
        with pytest.raises(ValueError):
            alarm_check(PROFILE, "helium", 1.0)

    @given(st.floats(-50.0, 550.0))
    def test_quantized_reading_sits_on_the_grid_near_the_input(self, value):
        reading, clamped = quantize(value, 2.0, 0.0, 500.0)
        steps = (reading - 0.0) / 2.0
        assert abs(steps - round(steps)) < 1e-9
        clamped_value = min(max(value, 0.0), 500.0)
        assert abs(reading - clamped_value) <= 1.0 + 1e-9
        assert clamped == (value < 0.0 or value > 500.0)


class TestTriggers:
    def test_scripted_events_come_back_sorted(self):
        spec = TriggerSpec(kind="script", species="methane", level=GasLevel(1.2, "%vol"),
                           devices=("ed1",), times_us=(30_000_000, 10_000_000, 20_000_000))
        assert list(generate_events(spec, rng=None)) == [10_000_000, 20_000_000, 30_000_000]

    def test_random_events_are_strictly_increasing_and_well_spaced(self):
        spec = TriggerSpec(kind="random", species="co", level=GasLevel(150.0, "ppm"),
                           cluster="c1")
        assert spec.interarrival_us == (120 * US_PER_SECOND, 130 * US_PER_SECOND)
        rng = RandomStreams(5).stream("alarms")
        times = list(itertools.islice(generate_events(spec, rng), 10_000))
        gaps = np.diff([0] + times)
        assert gaps.min() >= 120 * US_PER_SECOND
        assert gaps.max() <= 130 * US_PER_SECOND
        assert abs(gaps.mean() / US_PER_SECOND - 125.0) < 0.2

    @pytest.mark.parametrize("kwargs,message", [
        ({"kind": "poisson"}, "alarms[0].kind: 'poisson' is not one of ['script', 'random']"),
        ({"kind": "script", "times_us": ()}, "needs at least one time"),
        ({"kind": "random", "interarrival_us": (0, 10)}, "0 < min <= max"),
        ({"kind": "random", "interarrival_us": (10, 5)}, "0 < min <= max"),
    ], ids=["kwargs0", "kwargs1", "kwargs2", "kwargs3"])
    def test_invalid_trigger_specs_rejected(self, kwargs, message):
        spec = TriggerSpec(species="methane", level=GasLevel(1.2, "%vol"), devices=("ed1",),
                           **kwargs)
        with pytest.raises(ScenarioError, match=re.escape(message)):
            build_with(spec)

    @pytest.mark.parametrize("kwargs,message", [
        ({"level": GasLevel(1.2, "ppm")}, "methane levels use '%vol', got 'ppm'"),
        ({"devices": ()}, "needs 'devices' or 'cluster'"),
    ])
    def test_level_unit_and_scope_checked(self, kwargs, message):
        spec = TriggerSpec(**{"kind": "script", "species": "methane", "times_us": (1,),
                              "level": GasLevel(1.2, "%vol"), "devices": ("ed1",), **kwargs})
        with pytest.raises(ScenarioError, match=re.escape(message)):
            build_with(spec)
