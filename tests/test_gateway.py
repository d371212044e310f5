"""Gateway radio: demod-path limits, half-duplex preemption, collision calls."""

import itertools

import numpy as np
import pytest

from loraguard.gateway import Gateway
from loraguard.metrics import (
    CAUSE_COLLISION,
    CAUSE_GW_PREEMPTED,
    CAUSE_NO_DEMOD_PATH,
    CAUSE_TX_BUSY,
)
from loraguard.phy import CaptureModel, RadioParams, Transmission, TransmissionKind

ALWAYS_COLLIDE = CaptureModel(survival={(7, 7): 0.0})
RNG = np.random.default_rng(0)


_UIDS = itertools.count(1)


def make_tx(source, freq_hz, start, airtime=100, sf=7):
    return Transmission(source=source, kind=TransmissionKind.UP, freq_hz=freq_hz,
                        params=RadioParams(sf=sf), start_us=start,
                        airtime_us=airtime, uid=next(_UIDS))


class TestDemodPaths:
    def test_paths_exhaust_across_channels(self):
        gw = Gateway(id="gw", demod_paths=2)
        frames = [make_tx(f"ed{i}", 867_100_000 + i * 200_000, start=0) for i in range(3)]
        for tx in frames:
            gw.on_uplink_start(tx, 0)
        outcomes = [gw.on_uplink_end(tx, 100, ALWAYS_COLLIDE, RNG) for tx in frames]
        assert outcomes == [None, None, CAUSE_NO_DEMOD_PATH]

    def test_paths_free_up_after_a_frame_ends(self):
        gw = Gateway(id="gw", demod_paths=1)
        a = make_tx("ed1", 867_100_000, start=0)
        gw.on_uplink_start(a, 0)
        assert gw.on_uplink_end(a, 100, ALWAYS_COLLIDE, RNG) is None
        b = make_tx("ed2", 867_300_000, start=100)
        gw.on_uplink_start(b, 100)
        assert gw.on_uplink_end(b, 200, ALWAYS_COLLIDE, RNG) is None

    def test_undemodulated_frame_still_radiates_interference(self):
        gw = Gateway(id="gw", demod_paths=1)
        a = make_tx("ed1", 867_100_000, start=0)
        b = make_tx("ed2", 867_100_000, start=10)
        gw.on_uplink_start(a, 0)
        gw.on_uplink_start(b, 10)  # no path left, but it is on the air
        assert gw.on_uplink_end(b, 110, ALWAYS_COLLIDE, RNG) == CAUSE_NO_DEMOD_PATH
        assert gw.on_uplink_end(a, 100, ALWAYS_COLLIDE, RNG) == CAUSE_COLLISION


class TestHalfDuplex:
    def test_uplink_during_downlink_is_lost(self):
        gw = Gateway(id="gw")
        gw.start_downlink(0, 1_000)
        tx = make_tx("ed1", 867_100_000, start=500)
        gw.on_uplink_start(tx, 500)
        assert gw.on_uplink_end(tx, 600, ALWAYS_COLLIDE, RNG) == CAUSE_TX_BUSY

    def test_uplink_at_the_downlink_end_is_received(self):
        gw = Gateway(id="gw")
        gw.start_downlink(0, 1_000)
        tx = make_tx("ed1", 867_100_000, start=1_000)
        gw.on_uplink_start(tx, 1_000)
        assert gw.on_uplink_end(tx, 1_100, ALWAYS_COLLIDE, RNG) is None

    def test_downlink_preempts_every_channel(self):
        gw = Gateway(id="gw")
        a = make_tx("ed1", 867_100_000, start=0, airtime=10_000)
        b = make_tx("ed2", 868_500_000, start=0, airtime=10_000)
        gw.on_uplink_start(a, 0)
        gw.on_uplink_start(b, 0)
        assert gw.start_downlink(100, 2_000) == 2
        assert gw.on_uplink_end(a, 10_000, ALWAYS_COLLIDE, RNG) == CAUSE_GW_PREEMPTED
        assert gw.on_uplink_end(b, 10_000, ALWAYS_COLLIDE, RNG) == CAUSE_GW_PREEMPTED

    def test_receive_only_gateways_never_transmit(self):
        gw = Gateway(id="gw", role="rx_only")
        with pytest.raises(RuntimeError):
            gw.start_downlink(0, 1_000)

    def test_tx_busy_frames_still_radiate_interference(self):
        gw = Gateway(id="gw")
        gw.start_downlink(0, 1_000)
        a = make_tx("ed1", 867_100_000, start=500, airtime=1_000)  # lost: tx busy
        gw.on_uplink_start(a, 500)
        b = make_tx("ed2", 867_100_000, start=1_200, airtime=100)
        gw.on_uplink_start(b, 1_200)
        assert gw.on_uplink_end(a, 1_500, ALWAYS_COLLIDE, RNG) == CAUSE_TX_BUSY
        assert gw.on_uplink_end(b, 1_300, ALWAYS_COLLIDE, RNG) == CAUSE_COLLISION


class TestCollisions:
    def test_synchronized_co_channel_overlap_destroys_both(self):
        gw = Gateway(id="gw")
        a = make_tx("ed1", 867_100_000, start=0)
        b = make_tx("ed2", 867_100_000, start=10)
        gw.on_uplink_start(a, 0)
        gw.on_uplink_start(b, 10)
        assert gw.on_uplink_end(a, 100, ALWAYS_COLLIDE, RNG) == CAUSE_COLLISION
        assert gw.on_uplink_end(b, 110, ALWAYS_COLLIDE, RNG) == CAUSE_COLLISION

    def test_back_to_back_frames_do_not_interfere(self):
        gw = Gateway(id="gw")
        a = make_tx("ed1", 867_100_000, start=0, airtime=100)
        b = make_tx("ed2", 867_100_000, start=100, airtime=100)
        gw.on_uplink_start(a, 0)
        assert gw.on_uplink_end(a, 100, ALWAYS_COLLIDE, RNG) is None
        gw.on_uplink_start(b, 100)
        assert gw.on_uplink_end(b, 200, ALWAYS_COLLIDE, RNG) is None

    def test_co_channel_frames_on_different_channels_are_independent(self):
        gw = Gateway(id="gw")
        a = make_tx("ed1", 867_100_000, start=0)
        b = make_tx("ed2", 867_300_000, start=10)
        gw.on_uplink_start(a, 0)
        gw.on_uplink_start(b, 10)
        assert gw.on_uplink_end(a, 100, ALWAYS_COLLIDE, RNG) is None
        assert gw.on_uplink_end(b, 110, ALWAYS_COLLIDE, RNG) is None

    def test_power_capture_with_per_source_receive_power(self):
        gw = Gateway(id="gw", rx_power_dbm={"strong": 10.0, "weak": 0.0})
        model = CaptureModel(mode="threshold", co_sf_margin_db=6.0)
        a = make_tx("strong", 867_100_000, start=0)
        b = make_tx("weak", 867_100_000, start=10)
        gw.on_uplink_start(a, 0)
        gw.on_uplink_start(b, 10)
        assert gw.on_uplink_end(a, 100, model, RNG) is None
        assert gw.on_uplink_end(b, 110, model, RNG) == CAUSE_COLLISION


class TestBusyChannel:
    CH = 867_100_000

    def test_ended_frames_are_pruned_and_neither_stamp_nor_are_stamped(self):
        gw = Gateway(id="gw", demod_paths=4, rx_power_dbm={"ed1": -1.0, "ed2": -2.0})
        early = make_tx("ed1", self.CH, start=0, airtime=50, sf=7)
        edge = make_tx("ed2", self.CH, start=0, airtime=100, sf=8)
        gw.on_uplink_start(early, 0)
        gw.on_uplink_start(edge, 0)
        # Neither end has been processed yet when the newcomer arrives at 100.
        newcomer = make_tx("ed3", self.CH, start=100, sf=9)
        gw.on_uplink_start(newcomer, 100)
        assert list(gw.on_air[self.CH]) == [newcomer.uid]
        assert gw.active[newcomer.uid].interferers == []
        assert gw.active[early.uid].interferers == [(8, -2.0)]
        assert gw.active[edge.uid].interferers == [(7, -1.0)]

    def test_each_live_reception_gains_one_entry_per_newcomer(self):
        gw = Gateway(id="gw", demod_paths=8,
                     rx_power_dbm={"ed1": -1.0, "ed2": -2.0, "ed3": -3.0})
        a = make_tx("ed1", self.CH, start=0, sf=8)
        b = make_tx("ed2", self.CH, start=10, sf=9)
        c = make_tx("ed3", self.CH, start=20, sf=10)
        for tx in (a, b, c):
            gw.on_uplink_start(tx, tx.start_us)
        assert gw.active[a.uid].interferers == [(9, -2.0), (10, -3.0)]
        assert gw.active[b.uid].interferers == [(8, -1.0), (10, -3.0)]
        assert gw.active[c.uid].interferers == [(8, -1.0), (9, -2.0)]

    def test_newcomer_sees_the_live_frames_in_arrival_order(self):
        gw = Gateway(id="gw", demod_paths=8,
                     rx_power_dbm={"ed1": -1.0, "ed2": -2.0, "ed3": -3.0, "ed4": -4.0})
        gone = make_tx("ed4", self.CH, start=0, airtime=5, sf=7)
        a = make_tx("ed1", self.CH, start=0, sf=10)
        b = make_tx("ed2", self.CH, start=10, sf=8)
        c = make_tx("ed3", self.CH, start=20, sf=9)
        for tx in (gone, a, b, c):
            gw.on_uplink_start(tx, tx.start_us)
        newcomer = make_tx("ed5", self.CH, start=30, sf=7)
        gw.on_uplink_start(newcomer, 30)
        assert gw.active[newcomer.uid].interferers == [(10, -1.0), (8, -2.0), (9, -3.0)]
        assert list(gw.on_air[self.CH]) == [a.uid, b.uid, c.uid, newcomer.uid]


class TestValidation:
    def test_invalid_configurations_rejected(self):
        with pytest.raises(ValueError):
            Gateway(id="gw", role="relay")
        with pytest.raises(ValueError):
            Gateway(id="gw", demod_paths=0)
