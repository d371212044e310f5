"""Capture/collision model: calibrated survival table, both decode modes."""

import math

import numpy as np
import pytest

from loraguard.metrics import wilson_interval
from loraguard.phy import (
    DEFAULT_SURVIVAL,
    CaptureModel,
    Transmission,
    decodes_against,
)
from loraguard.scenario import CaptureSpec


class BoomRng:
    """Fails the test if any random draw is attempted."""

    def random(self):  # pragma: no cover - reaching this is the failure
        raise AssertionError("rng must not be consumed")


class TestCalibratedTable:
    def test_same_sf7_parties_reproduce_the_joint_loss(self):
        s = DEFAULT_SURVIVAL[(7, 7)]
        assert abs((1.0 - s) ** 2 - 0.2966) < 1e-12

    def test_same_sf8_and_up_parties_reproduce_the_joint_loss(self):
        s = DEFAULT_SURVIVAL[(8, 8)]
        assert abs((1.0 - s) ** 2 - 0.0346) < 1e-12
        for sf in (9, 10, 11, 12):
            assert DEFAULT_SURVIVAL[(sf, sf)] == s

    def test_sf7_sf8_split_reproduces_joint_loss_and_asymmetry(self):
        loss_7 = 1.0 - DEFAULT_SURVIVAL[(7, 8)]
        loss_8 = 1.0 - DEFAULT_SURVIVAL[(8, 7)]
        assert abs(loss_7 * loss_8 - 0.0012) < 1e-12
        assert abs(loss_7 / loss_8 - 4.7 / 3.23) < 1e-9

    def test_pairs_above_the_sf8_boundary_are_orthogonal(self):
        for pair in ((8, 9), (9, 8), (9, 10), (10, 9)):
            assert DEFAULT_SURVIVAL[pair] == 1.0

    def test_unlisted_pairs_default_to_survival_one(self):
        model = CaptureModel()
        for own, other in ((11, 7), (7, 12)):
            assert (own, other) not in model.survival
            assert (own, other) not in model.lethal
            assert decodes_against(model, own, 0.0, [(other, 0.0)], BoomRng())

    def test_lethal_pairs_are_those_with_survival_below_one(self):
        model = CaptureModel(CaptureSpec(survival=(((9, 10), 0.75), ((7, 7), 1.0))))
        assert model.lethal == {pair for pair, p in model.survival.items() if p < 1.0}
        assert (9, 10) in model.lethal and (10, 9) not in model.lethal
        assert (7, 7) not in model.lethal and (8, 8) in model.lethal
        assert CaptureModel().lethal == {pair for pair, p in DEFAULT_SURVIVAL.items()
                                         if p < 1.0}

    def test_spec_overrides_are_merged_over_the_calibrated_table(self):
        model = CaptureModel(CaptureSpec(survival=(((7, 7), 0.25), ((11, 7), 0.5))))
        assert model.survival == {**DEFAULT_SURVIVAL, (7, 7): 0.25, (11, 7): 0.5}


class TestThresholdMode:
    MODEL = CaptureModel(CaptureSpec(mode="threshold", co_sf_margin_db=6.0))

    def test_frame_above_margin_survives(self):
        assert decodes_against(self.MODEL, 7, 0.0, [(7, -6.0)], BoomRng())

    def test_equal_power_same_sf_is_destroyed(self):
        assert not decodes_against(self.MODEL, 7, 0.0, [(7, 0.0)], BoomRng())

    def test_different_sf_never_destroys(self):
        assert decodes_against(self.MODEL, 7, -120.0, [(8, 20.0)], BoomRng())

    def test_lethal_pairs_are_the_same_sf_pairs(self):
        same_sf = {(sf, sf) for sf in range(7, 13)}
        assert self.MODEL.lethal == same_sf
        # The survival table plays no part in this mode.
        model = CaptureModel(CaptureSpec(mode="threshold", survival=(((7, 8), 0.5),)))
        assert model.lethal == same_sf

    def test_power_asymmetry_resolves_a_pairwise_overlap(self):
        # A 10 dBm frame and a 0 dBm frame at SF7, each against the other.
        assert decodes_against(self.MODEL, 7, 10.0, [(7, 0.0)], BoomRng())
        assert not decodes_against(self.MODEL, 7, 0.0, [(7, 10.0)], BoomRng())


class TestEmpiricalMode:
    def test_certain_survival_consumes_no_randomness(self):
        model = CaptureModel()
        assert decodes_against(model, 9, 0.0, [(10, 0.0)], BoomRng())
        assert decodes_against(model, 10, 0.0, [(9, 0.0)], BoomRng())

    def test_no_interferers_always_decodes(self):
        assert decodes_against(CaptureModel(), 7, 0.0, [], BoomRng())
        assert decodes_against(CaptureModel(), 12, 0.0, [], BoomRng())

    def test_zero_survival_is_deterministic_loss(self):
        model = CaptureModel(CaptureSpec(survival=(((7, 7), 0.0),)))
        rng = np.random.default_rng(0)
        assert not decodes_against(model, 7, 0.0, [(7, 0.0)], rng)

    @pytest.mark.parametrize("sf_a,sf_b,joint_loss", [
        (7, 7, 0.2966),
        (7, 8, 0.0012),
    ])
    def test_monte_carlo_joint_loss_matches_calibration(self, sf_a, sf_b, joint_loss):
        model = CaptureModel()
        rng = np.random.default_rng(424242)
        trials, both_lost = 20_000, 0
        for _ in range(trials):
            # Each party of a same-start pair against the other, a first.
            a_decoded = decodes_against(model, sf_a, 0.0, [(sf_b, 0.0)], rng)
            b_decoded = decodes_against(model, sf_b, 0.0, [(sf_a, 0.0)], rng)
            if not a_decoded and not b_decoded:
                both_lost += 1
        lo, hi = wilson_interval(both_lost, trials)
        assert lo <= joint_loss <= hi

    def test_higher_sf_party_never_loses_across_the_boundary(self):
        model = CaptureModel()
        rng = np.random.default_rng(7)
        for _ in range(2_000):
            assert decodes_against(model, 9, 0.0, [(10, 0.0)], rng)
            assert decodes_against(model, 10, 0.0, [(9, 0.0)], rng)


class TestTransmission:
    def test_end_time_and_unique_ids(self):
        # uid numbering belongs to the simulation and is tested there
        # (test_uid_sequences_do_not_depend_on_other_simulations).
        tx = Transmission(source="x", kind="UP", freq_hz=867_100_000, sf=7, start_us=5_000, airtime_us=25_856, uid=1,
                          rx_power_dbm=0.0)
        assert tx.end_us == 30_856
