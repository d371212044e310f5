"""Sub-band routing, duty limits, and channel-plan integrity."""

import pytest

from loraguard.phy import (ChannelPlan, OutOfPlanError, RX2_FREQ_HZ, SubBand,
                           default_eu868_plan)

MHZ = 1_000_000


@pytest.mark.parametrize("freq_mhz,band", [
    (867.1, "g"), (867.9, "g"), (863.0, "g"),
    (868.1, "g1"), (868.5, "g1"),
    (868.0, "g1"),       # band edges are half-open: 868.0 starts g1
    (869.525, "g3"),
    (868.8, "g2"), (869.8, "g4"),
])
def test_frequency_routing(plan, freq_mhz, band):
    assert plan.subband_of(round(freq_mhz * MHZ)).name == band


@pytest.mark.parametrize("freq_mhz", [862.9, 868.65, 869.3, 870.0])
def test_out_of_plan_frequencies_are_rejected(plan, freq_mhz):
    with pytest.raises(OutOfPlanError):
        plan.subband_of(round(freq_mhz * MHZ))


def test_duty_limits_per_band(plan):
    limits = {b.name: b.duty_one_in for b in plan.subbands}
    assert limits == {"g": 100, "g1": 100, "g2": 1000, "g3": 10, "g4": 100}
    assert plan.subband("g").duty_cycle == pytest.approx(0.01)
    assert plan.subband("g2").duty_cycle == pytest.approx(0.001)
    assert plan.subband("g3").duty_cycle == pytest.approx(0.10)


def test_channel_sets(plan):
    assert plan.subband("g").channels == tuple(
        round(f * MHZ) for f in (867.1, 867.3, 867.5, 867.7, 867.9))
    assert plan.subband("g1").channels == tuple(
        round(f * MHZ) for f in (868.1, 868.3, 868.5))
    assert plan.subband("g3").channels == (RX2_FREQ_HZ,)


def test_every_channel_lies_inside_its_band(plan):
    for band in plan.subbands:
        for ch in band.channels:
            assert band.contains(ch)
            assert plan.subband_of(ch) is band


def test_unknown_band_name_raises(plan):
    with pytest.raises(KeyError):
        plan.subband("g9")


def test_subband_validation():
    with pytest.raises(ValueError):
        SubBand("x", 868 * MHZ, 868 * MHZ, 100)       # empty range
    with pytest.raises(ValueError):
        SubBand("x", 863 * MHZ, 868 * MHZ, 0)          # no duty limit
    with pytest.raises(ValueError):
        SubBand("x", 863 * MHZ, 868 * MHZ, 100, (868 * MHZ,))  # channel at the
        # half-open upper edge falls outside


def test_overlapping_subbands_are_rejected():
    a = SubBand("a", 863 * MHZ, 868 * MHZ, 100)
    b = SubBand("b", 867 * MHZ, 869 * MHZ, 100)
    with pytest.raises(ValueError):
        ChannelPlan((a, b))


def test_default_plan_is_reconstructible():
    assert default_eu868_plan() == default_eu868_plan()


def test_channel_index_agrees_with_the_band_edges(plan):
    # Listed channels answer from the index; every other frequency from the
    # band edges.  Both must route a frequency to the same band.
    for band in plan.subbands:
        for freq in (*band.channels, band.low_hz, band.high_hz - 1):
            assert plan.subband_of(freq) is band
            assert band.contains(freq)
    assert hash(plan) == hash(default_eu868_plan())
