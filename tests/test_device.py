"""End-device behavior: report timing, receive windows, control downlinks."""

import numpy as np
import pytest

from loraguard.device import DcpCommand, EndDevice
from loraguard.engine import US_PER_SECOND, RandomStreams
from loraguard.phy import RX2_FREQ_HZ, RX2_SF

G1_CHANNELS = (868_100_000, 868_300_000, 868_500_000)
UP_CHANNELS = (867_100_000, 867_300_000, 867_500_000, 867_700_000, 867_900_000)


def make_device(**overrides):
    kwargs = dict(id="ed1", cluster="c1", rp_period_us=70 * US_PER_SECOND,
                  rp_channels=G1_CHANNELS, up_channels=UP_CHANNELS,
                  assignment=(867_100_000, 9))
    kwargs.update(overrides)
    return EndDevice(**kwargs)


class FixedNormalRng:
    """Stands in for a Generator whose next normal draw is predetermined."""

    def __init__(self, value):
        self.value = value

    def normal(self, loc, scale):
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
        picks = [dev.pick_rp_channel(rng) for _ in range(6_000)]
        counts = {ch: picks.count(ch) for ch in G1_CHANNELS}
        assert set(counts) == set(G1_CHANNELS)
        for n in counts.values():
            assert abs(n - 2_000) < 200

    def test_no_report_channels_rejected(self):
        dev = make_device(rp_channels=())
        with pytest.raises(ValueError):
            dev.pick_rp_channel(RandomStreams(1).stream("hop"))


class TestReceiveWindows:
    def test_rx1_mirrors_the_uplink_and_rx2_is_fixed(self):
        dev = make_device()
        w = dev.open_rx_windows(10_267_264, 868_300_000, 8)
        assert (w.rx1_at, w.rx1_freq_hz, w.rx1_sf) == (11_267_264, 868_300_000, 8)
        assert (w.rx2_at, w.rx2_freq_hz, w.rx2_sf) == (12_267_264, RX2_FREQ_HZ, RX2_SF)
        assert (w.rx2_freq_hz, w.rx2_sf) == (869_525_000, 12)

    def test_window_matching_is_exact(self):
        dev = make_device()
        dev.open_rx_windows(10_000_000, 868_100_000, 7)
        assert dev.window_open_at(11_000_000, 868_100_000, 7)
        assert dev.window_open_at(12_000_000, RX2_FREQ_HZ, RX2_SF)
        assert not dev.window_open_at(11_000_001, 868_100_000, 7)  # late
        assert not dev.window_open_at(11_000_000, 868_300_000, 7)  # wrong channel
        assert not dev.window_open_at(11_000_000, 868_100_000, 8)  # wrong SF
        assert not dev.window_open_at(12_000_000, 868_100_000, 7)  # rx1 params at rx2

    def test_no_windows_before_any_uplink(self):
        assert not make_device().window_open_at(11_000_000, 868_100_000, 7)

    def test_custom_receive_delays(self):
        dev = make_device(receive_delay1_us=5 * US_PER_SECOND,
                          receive_delay2_us=6 * US_PER_SECOND)
        w = dev.open_rx_windows(1_000_000, 868_100_000, 7)
        assert (w.rx1_at, w.rx2_at) == (6_000_000, 7_000_000)


class TestControlDownlink:
    def test_valid_command_updates_the_assignment(self):
        dev = make_device()
        assert dev.apply_dcp(DcpCommand("ed1", 867_300_000, 8))
        assert dev.assignment == (867_300_000, 8)

    def test_last_writer_wins(self):
        dev = make_device()
        dev.apply_dcp(DcpCommand("ed1", 867_300_000, 8))
        dev.apply_dcp(DcpCommand("ed1", 867_900_000, 10))
        assert dev.assignment == (867_900_000, 10)

    @pytest.mark.parametrize("command", [
        DcpCommand("ed2", 867_300_000, 8),      # foreign target
        DcpCommand("ed1", 867_300_000, 11),     # SF above the urgent range
        DcpCommand("ed1", 867_300_000, 6),      # SF below the radio range
        DcpCommand("ed1", 868_100_000, 8),      # channel outside the urgent set
    ])
    def test_malformed_commands_leave_state_unchanged(self, command):
        dev = make_device()
        before = dev.assignment
        assert not dev.apply_dcp(command)
        assert dev.assignment == before

    def test_empty_channel_list_accepts_any_channel(self):
        dev = make_device(up_channels=())
        assert dev.apply_dcp(DcpCommand("ed1", 869_525_000, 10))
        assert dev.assignment == (869_525_000, 10)


class TestHalfDuplexState:
    def test_busy_interval_is_half_open(self):
        dev = make_device()
        dev.mark_transmitting(10, 20)
        assert not dev.idle_at(15)
        assert dev.idle_at(20)

    def test_transmission_start_lookback(self):
        dev = make_device()
        dev.mark_transmitting(10, 20)
        assert dev.transmitted_during(5, 15)
        assert dev.transmitted_during(10, 11)
        assert not dev.transmitted_during(11, 20)
        assert not dev.transmitted_during(0, 10)


class TestValidation:
    def test_invalid_configurations_rejected(self):
        with pytest.raises(ValueError):
            make_device(rp_period_us=0)
        with pytest.raises(ValueError):
            make_device(clock_sigma_us=-1)
        with pytest.raises(ValueError):
            make_device(assignment=(867_100_000, 11))
        make_device(rp_period_us=None)  # reports disabled is fine
