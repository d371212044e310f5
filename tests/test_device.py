"""End-device behavior: report timing and half-duplex state."""

import numpy as np

from loraguard.device import EndDevice
from loraguard.engine import US_PER_SECOND, RandomStreams
from loraguard.scenario import DeviceSpec

G1_CHANNELS = (868_100_000, 868_300_000, 868_500_000)


def make_device(**spec_fields):
    spec = DeviceSpec(id="ed1", cluster="c1", **spec_fields)
    return EndDevice(spec, G1_CHANNELS)


class FixedNormalRng:
    """Stands in for a Stream whose next standard normal draw is predetermined."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self):
        return self.value


class TestReportTiming:
    def test_zero_jitter_is_exactly_periodic(self):
        dev = make_device(clock_sigma_us=0)
        rng = RandomStreams(1).stream("clock")
        assert dev.next_rp_time(5_000_000, rng) == 5_000_000 + 70_000_000

    def test_pathological_jitter_is_floored(self):
        dev = make_device()
        assert dev.next_rp_time(9_000_000, FixedNormalRng(-1e9)) == 9_000_000 + US_PER_SECOND

    def test_jitter_spread_matches_sigma(self):
        dev = make_device(clock_sigma_us=50_000)
        rng = RandomStreams(3).stream("clock")
        gaps = np.array([dev.next_rp_time(0, rng) for _ in range(20_000)])
        assert abs(gaps.mean() - 70_000_000) < 2_000
        assert abs(gaps.std() - 50_000) < 1_000

    def test_channel_hop_is_uniform(self):
        dev = make_device()
        rng = RandomStreams(4).stream("hop")
        picks = [dev.rp_channels[dev.pick_rp_channel(rng)] for _ in range(6_000)]
        counts = {ch: picks.count(ch) for ch in G1_CHANNELS}
        assert set(counts) == set(G1_CHANNELS)
        for n in counts.values():
            assert abs(n - 2_000) < 200


class TestHalfDuplexState:
    def test_busy_interval_is_half_open(self):
        # A frame over [10, 20) keeps the device busy at 15 and idle at 20:
        # the simulation treats a device as idle at ``at`` iff busy_until <= at.
        dev = make_device()
        assert dev.busy_until <= 0  # idle before its first frame
        dev.last_tx_start, dev.busy_until = 10, 20
        assert not dev.busy_until <= 15
        assert dev.busy_until <= 20

