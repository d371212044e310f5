"""Gateway radio: demod-path limits, half-duplex preemption, collision calls."""

import itertools

import numpy as np

from loraguard.gateway import Gateway
from loraguard.metrics import (
    CAUSE_COLLISION,
    CAUSE_GW_PREEMPTED,
    CAUSE_NO_DEMOD_PATH,
    CAUSE_TX_BUSY,
)
from loraguard.phy import CaptureModel, Transmission
from loraguard.scenario import CaptureSpec, GatewaySpec
from loraguard.simulation import Simulation

ALWAYS_COLLIDE = CaptureModel(CaptureSpec(survival=(((7, 7), 0.0),)))
# Every SF pair can destroy a frame, so every overlap is recorded.
ALL_LETHAL = CaptureModel(CaptureSpec(
    survival=tuple(((own, other), 0.5) for own in range(7, 13) for other in range(7, 13))))
RNG = np.random.default_rng(0)


class BoomRng:
    """Fails the test if any random draw is attempted."""

    def random(self):  # pragma: no cover - reaching this is the failure
        raise AssertionError("rng must not be consumed")


_UIDS = itertools.count(1)


def make_gateway(model=ALWAYS_COLLIDE, **spec_fields):
    return Gateway(GatewaySpec(id="gw", **spec_fields), model)


def make_tx(source, freq_hz, start, airtime=100, sf=7, power=0.0):
    return Transmission(source=source, kind="UP", freq_hz=freq_hz, sf=sf, start_us=start,
                        airtime_us=airtime, uid=next(_UIDS), rx_power_dbm=power)


class TestDemodPaths:
    def test_paths_exhaust_across_channels(self):
        gw = make_gateway(demod_paths=2)
        frames = [make_tx(f"ed{i}", 867_100_000 + i * 200_000, start=0) for i in range(3)]
        for tx in frames:
            gw.on_uplink_start(tx, 0)
        outcomes = [gw.on_uplink_end(tx, 100, RNG) for tx in frames]
        assert outcomes == [None, None, CAUSE_NO_DEMOD_PATH]

    def test_paths_free_up_after_a_frame_ends(self):
        gw = make_gateway(demod_paths=1)
        a = make_tx("ed1", 867_100_000, start=0)
        gw.on_uplink_start(a, 0)
        assert gw.on_uplink_end(a, 100, RNG) is None
        b = make_tx("ed2", 867_300_000, start=100)
        gw.on_uplink_start(b, 100)
        assert gw.on_uplink_end(b, 200, RNG) is None

    def test_undemodulated_frame_still_radiates_interference(self):
        gw = make_gateway(demod_paths=1)
        a = make_tx("ed1", 867_100_000, start=0)
        b = make_tx("ed2", 867_100_000, start=10)
        gw.on_uplink_start(a, 0)
        gw.on_uplink_start(b, 10)  # no path left, but it is on the air
        assert gw.on_uplink_end(b, 110, RNG) == CAUSE_NO_DEMOD_PATH
        assert gw.on_uplink_end(a, 100, RNG) == CAUSE_COLLISION


class TestHalfDuplex:
    def test_uplink_during_downlink_is_lost(self):
        gw = make_gateway()
        gw.start_downlink(0, 1_000)
        tx = make_tx("ed1", 867_100_000, start=500)
        gw.on_uplink_start(tx, 500)
        assert gw.on_uplink_end(tx, 600, RNG) == CAUSE_TX_BUSY

    def test_uplink_at_the_downlink_end_is_received(self):
        gw = make_gateway()
        gw.start_downlink(0, 1_000)
        tx = make_tx("ed1", 867_100_000, start=1_000)
        gw.on_uplink_start(tx, 1_000)
        assert gw.on_uplink_end(tx, 1_100, RNG) is None

    def test_downlink_preempts_every_channel(self):
        gw = make_gateway()
        a = make_tx("ed1", 867_100_000, start=0, airtime=10_000)
        b = make_tx("ed2", 868_500_000, start=0, airtime=10_000)
        gw.on_uplink_start(a, 0)
        gw.on_uplink_start(b, 0)
        assert gw.start_downlink(100, 2_000) == 2
        assert gw.on_uplink_end(a, 10_000, RNG) == CAUSE_GW_PREEMPTED
        assert gw.on_uplink_end(b, 10_000, RNG) == CAUSE_GW_PREEMPTED

    def test_receive_only_gateways_never_transmit(self, two_gateway_scenario):
        # A valid scenario sends every downlink through a full gateway.
        sim = Simulation(two_gateway_scenario)
        report = sim.run()
        assert sim.gateways["gw1"].tx_busy_until > 0
        assert sim.gateways["gw2"].tx_busy_until == 0
        gw2_causes = {cause for causes in report["gateways"]["gw2"]["losses"].values()
                      for cause in causes}
        assert not gw2_causes & {CAUSE_TX_BUSY, CAUSE_GW_PREEMPTED}

    def test_tx_busy_frames_still_radiate_interference(self):
        gw = make_gateway()
        gw.start_downlink(0, 1_000)
        a = make_tx("ed1", 867_100_000, start=500, airtime=1_000)  # lost: tx busy
        gw.on_uplink_start(a, 500)
        b = make_tx("ed2", 867_100_000, start=1_200, airtime=100)
        gw.on_uplink_start(b, 1_200)
        assert gw.on_uplink_end(a, 1_500, RNG) == CAUSE_TX_BUSY
        assert gw.on_uplink_end(b, 1_300, RNG) == CAUSE_COLLISION


class TestCollisions:
    def test_synchronized_co_channel_overlap_destroys_both(self):
        gw = make_gateway()
        a = make_tx("ed1", 867_100_000, start=0)
        b = make_tx("ed2", 867_100_000, start=10)
        gw.on_uplink_start(a, 0)
        gw.on_uplink_start(b, 10)
        assert gw.on_uplink_end(a, 100, RNG) == CAUSE_COLLISION
        assert gw.on_uplink_end(b, 110, RNG) == CAUSE_COLLISION

    def test_back_to_back_frames_do_not_interfere(self):
        gw = make_gateway()
        a = make_tx("ed1", 867_100_000, start=0, airtime=100)
        b = make_tx("ed2", 867_100_000, start=100, airtime=100)
        gw.on_uplink_start(a, 0)
        assert gw.on_uplink_end(a, 100, RNG) is None
        gw.on_uplink_start(b, 100)
        assert gw.on_uplink_end(b, 200, RNG) is None

    def test_co_channel_frames_on_different_channels_are_independent(self):
        gw = make_gateway()
        a = make_tx("ed1", 867_100_000, start=0)
        b = make_tx("ed2", 867_300_000, start=10)
        gw.on_uplink_start(a, 0)
        gw.on_uplink_start(b, 10)
        assert gw.on_uplink_end(a, 100, RNG) is None
        assert gw.on_uplink_end(b, 110, RNG) is None

    def test_power_capture_with_per_source_receive_power(self):
        gw = make_gateway(CaptureModel(CaptureSpec(mode="threshold", co_sf_margin_db=6.0)))
        a = make_tx("strong", 867_100_000, start=0, power=10.0)
        b = make_tx("weak", 867_100_000, start=10, power=0.0)
        gw.on_uplink_start(a, 0)
        gw.on_uplink_start(b, 10)
        assert gw.on_uplink_end(a, 100, RNG) is None
        assert gw.on_uplink_end(b, 110, RNG) == CAUSE_COLLISION


class TestBusyChannel:
    CH = 867_100_000

    def test_ended_frames_are_pruned_and_neither_stamp_nor_are_stamped(self):
        gw = make_gateway(ALL_LETHAL, demod_paths=4)
        early = make_tx("ed1", self.CH, start=0, airtime=50, sf=7, power=-1.0)
        edge = make_tx("ed2", self.CH, start=0, airtime=100, sf=8, power=-2.0)
        gw.on_uplink_start(early, 0)
        gw.on_uplink_start(edge, 0)
        # Neither end has been processed yet when the newcomer arrives at 100.
        newcomer = make_tx("ed3", self.CH, start=100, sf=9)
        gw.on_uplink_start(newcomer, 100)
        assert list(gw.on_air[self.CH]) == [early.uid, edge.uid, newcomer.uid]
        assert gw.active[newcomer.uid] == []
        assert gw.active[early.uid] == [(8, -2.0)]
        assert gw.active[edge.uid] == [(7, -1.0)]
        # An ended frame stays on the air until its close-out removes it.
        for tx in (early, edge):
            gw.on_uplink_end(tx, 100, np.random.default_rng(0))
        assert list(gw.on_air[self.CH]) == [newcomer.uid]

    def test_each_live_reception_gains_one_entry_per_newcomer(self):
        gw = make_gateway(ALL_LETHAL, demod_paths=8)
        a = make_tx("ed1", self.CH, start=0, sf=8, power=-1.0)
        b = make_tx("ed2", self.CH, start=10, sf=9, power=-2.0)
        c = make_tx("ed3", self.CH, start=20, sf=10, power=-3.0)
        for tx in (a, b, c):
            gw.on_uplink_start(tx, tx.start_us)
        assert gw.active[a.uid] == [(9, -2.0), (10, -3.0)]
        assert gw.active[b.uid] == [(8, -1.0), (10, -3.0)]
        assert gw.active[c.uid] == [(8, -1.0), (9, -2.0)]

    def test_newcomer_sees_the_live_frames_in_arrival_order(self):
        gw = make_gateway(ALL_LETHAL, demod_paths=8)
        gone = make_tx("ed4", self.CH, start=0, airtime=5, sf=7, power=-4.0)
        a = make_tx("ed1", self.CH, start=0, sf=10, power=-1.0)
        b = make_tx("ed2", self.CH, start=10, sf=8, power=-2.0)
        c = make_tx("ed3", self.CH, start=20, sf=9, power=-3.0)
        for tx in (gone, a, b, c):
            gw.on_uplink_start(tx, tx.start_us)
        newcomer = make_tx("ed5", self.CH, start=30, sf=7)
        gw.on_uplink_start(newcomer, 30)
        assert gw.active[newcomer.uid] == [(10, -1.0), (8, -2.0), (9, -3.0)]
        assert list(gw.on_air[self.CH]) == [gone.uid, a.uid, b.uid, c.uid, newcomer.uid]
        gw.on_uplink_end(gone, 30, np.random.default_rng(0))
        assert list(gw.on_air[self.CH]) == [a.uid, b.uid, c.uid, newcomer.uid]


    def test_orthogonal_interferers_are_neither_stamped_nor_recorded(self):
        # By default SF8/SF9 and SF9/SF10 survive each other, and SF8/SF10
        # is absent from the table: no pair here is lethal.
        gw = make_gateway(CaptureModel(), demod_paths=8)
        frames = [make_tx(f"ed{sf}", self.CH, start=sf, sf=sf) for sf in (8, 9, 10)]
        for tx in frames:
            gw.on_uplink_start(tx, tx.start_us)
        assert [gw.active[tx.uid] for tx in frames] == [[], [], []]
        assert list(gw.on_air[self.CH]) == [tx.uid for tx in frames]
        assert [gw.on_uplink_end(tx, tx.end_us, BoomRng()) for tx in frames] == [None] * 3

    def test_threshold_mode_records_only_same_sf_interferers(self):
        gw = make_gateway(CaptureModel(CaptureSpec(mode="threshold")), demod_paths=8)
        a = make_tx("ed1", self.CH, start=0, sf=7, power=-1.0)
        b = make_tx("ed2", self.CH, start=10, sf=8, power=-2.0)
        c = make_tx("ed3", self.CH, start=20, sf=7, power=-3.0)
        for tx in (a, b, c):
            gw.on_uplink_start(tx, tx.start_us)
        assert gw.active[a.uid] == [(7, -3.0)]
        assert gw.active[b.uid] == []
        assert gw.active[c.uid] == [(7, -1.0)]

    def test_lethal_pairs_are_recorded_and_others_skipped(self):
        # SF7 and SF8 can destroy each other by default; SF10 threatens no one.
        gw = make_gateway(CaptureModel(), demod_paths=8)
        a = make_tx("ed1", self.CH, start=0, sf=7, power=-1.0)
        b = make_tx("ed2", self.CH, start=10, sf=10, power=-2.0)
        c = make_tx("ed3", self.CH, start=20, sf=8, power=-3.0)
        for tx in (a, b, c):
            gw.on_uplink_start(tx, tx.start_us)
        assert gw.active[a.uid] == [(8, -3.0)]
        assert gw.active[b.uid] == []
        assert gw.active[c.uid] == [(7, -1.0)]

    def test_a_one_sided_pair_is_recorded_on_its_victim_only(self):
        # SF10 can destroy SF9 here, but SF9 still cannot destroy SF10.
        model = CaptureModel(CaptureSpec(survival=(((9, 10), 0.5),)))
        gw = make_gateway(model, demod_paths=8)
        a = make_tx("ed1", self.CH, start=0, sf=9, power=-1.0)
        b = make_tx("ed2", self.CH, start=10, sf=10, power=-2.0)
        c = make_tx("ed3", self.CH, start=20, sf=9, power=-3.0)
        for tx in (a, b, c):
            gw.on_uplink_start(tx, tx.start_us)
        # Same-SF pairs stay lethal.  The SF10 frame b stamps a and is
        # recorded by c, but neither SF9 frame is recorded on b.
        assert gw.active[a.uid] == [(10, -2.0), (9, -3.0)]
        assert gw.active[b.uid] == []
        assert gw.active[c.uid] == [(9, -1.0), (10, -2.0)]
