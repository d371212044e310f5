"""Renewal-model evaluators: exact product, mixture marginal, linearization.

Frozen reference values were computed independently with rational/closed-form
arithmetic for the sigma=0 case and cross-checked against adaptive quadrature
for sigma > 0; they pin the implementation against regressions.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from loraguard.analytic import (
    REGIME_SIGMAS,
    PlrModelParams,
    plr_approx,
    plr_exact_fixed,
    plr_marginal,
    residual_density,
    survivor_integral,
)

# Nominal operating point: 8 stacked senders, 70 s period, SF8 downlink
# (82.176 ms), SF9 urgent uplink (267.264 ms), 50 ms clock jitter.
N, TAU, UP, T, SIGMA = 8, 0.082176, 0.267264, 70.0, 0.05

FROZEN_EXACT_ROUNDED = 0.03925178242990757   # airtimes rounded to 0.1 ms
FROZEN_EXACT_NOMINAL = 0.03924516136423184   # exact airtimes
FROZEN_APPROX_ROUNDED = 0.03994285714285714  # 8 * 0.3495 / 70


class TestResidualDensity:
    def test_integrates_to_one(self):
        total, _ = quad(residual_density, 0.0, 2 * T, args=(T, SIGMA), limit=200)
        assert abs(total - 1.0) < 1e-6

    def test_sigma_zero_is_uniform_over_one_period(self):
        assert residual_density(0.0, T, 0.0) == 1.0 / T
        assert residual_density(69.999, T, 0.0) == 1.0 / T
        assert residual_density(T, T, 0.0) == 0.0

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError):
            residual_density(-0.1, T, SIGMA)


class TestSurvivorIntegral:
    def test_sigma_zero_closed_form(self):
        assert survivor_integral(0.0, T, 0.0) == 0.0
        assert survivor_integral(0.3, T, 0.0) == 0.3
        assert survivor_integral(100.0, T, 0.0) == T

    def test_small_delta_far_from_the_period_is_linear(self):
        assert abs(survivor_integral(0.35, T, SIGMA) - 0.35) < 1e-9

    def test_monotone_in_delta(self):
        values = [survivor_integral(d, T, SIGMA) for d in (0.0, 0.1, 1.0, 35.0, 70.0, 90.0)]
        assert values == sorted(values)

    def test_step_far_below_the_period_is_not_missed(self):
        # sigma << T and delta > T: the integrand falls from 1 to 0 in a few
        # microseconds around T, which plain adaptive quadrature stepped over.
        period, sigma = 198.6718960990048, 0.00022167749799357665
        assert abs(survivor_integral(297.1597233609419, period, sigma) - period) < 1e-9

    def test_deep_lower_tail_is_exactly_delta(self):
        delta = 10.0
        assert (delta - T) / SIGMA < -40
        assert survivor_integral(delta, T, SIGMA) == delta

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            survivor_integral(-1.0, T, SIGMA)
        with pytest.raises(ValueError):
            survivor_integral(1.0, 0.0, SIGMA)
        with pytest.raises(ValueError):
            survivor_integral(1.0, T, -0.1)


def _quadrature(delta, period, sigma):
    """I(delta) by adaptive quadrature, told where the integrand steps down."""
    points = [p for p in (period - 8 * sigma, period, period + 8 * sigma) if 0.0 < p < delta]
    value, _err = quad(lambda x: 0.5 * math.erfc((x - period) / (sigma * math.sqrt(2.0))),
                       0.0, delta, points=points or None, epsabs=1e-13, limit=200)
    return value


@settings(max_examples=300, deadline=None)
@given(period=st.floats(1.0, 300.0),
       log_ratio=st.floats(-6.0, 0.0),
       delta_over_period=st.floats(0.0, 3.0))
def test_closed_form_matches_quadrature(period, log_ratio, delta_over_period):
    sigma = period * 10.0 ** log_ratio
    delta = period * delta_over_period
    closed = survivor_integral(delta, period, sigma)
    assert abs(closed - _quadrature(delta, period, sigma)) <= 1e-12 * max(1.0, delta)


class TestExactProduct:
    def test_frozen_nominal_operating_point(self):
        res = plr_exact_fixed([TAU] * N, UP, T, SIGMA)
        assert abs(res.plr - FROZEN_EXACT_NOMINAL) < 1e-9
        assert res.method == "exact" and res.in_regime

    def test_frozen_rounded_operating_point(self):
        res = plr_exact_fixed([0.0822] * 8, 0.2673, 70.0, 0.05)
        assert abs(res.plr - FROZEN_EXACT_ROUNDED) < 1e-9

    def test_sigma_zero_matches_the_closed_form(self):
        res = plr_exact_fixed([TAU] * N, UP, T, 0.0)
        closed = 1.0 - (1.0 - (TAU + UP) / T) ** N
        assert abs(res.plr - closed) < 1e-10

    def test_no_senders_never_lose(self):
        res = plr_exact_fixed([], UP, T, SIGMA)
        assert res.plr == 0.0 and res.collision_free_probability == 1.0

    def test_plr_and_collision_free_are_complements(self):
        res = plr_exact_fixed([TAU] * N, UP, T, SIGMA)
        assert res.plr == 1.0 - res.collision_free_probability

    def test_small_jitter_does_not_move_the_answer(self):
        base = plr_exact_fixed([TAU] * N, UP, T, 0.0).plr
        for sigma in (0.007, 0.05, 0.7):
            res = plr_exact_fixed([TAU] * N, UP, T, sigma).plr
            assert abs(res - base) / base < 1e-3

    def test_monotone_in_senders_airtime_and_uplink(self):
        base = plr_exact_fixed([TAU] * N, UP, T, SIGMA).plr
        assert plr_exact_fixed([TAU] * (N + 4), UP, T, SIGMA).plr > base
        assert plr_exact_fixed([TAU * 2] * N, UP, T, SIGMA).plr > base
        assert plr_exact_fixed([TAU] * N, UP * 2, T, SIGMA).plr > base

    def test_saturating_block_raises(self):
        with pytest.raises(ValueError, match="saturates"):
            plr_exact_fixed([69.9], 0.2, 70.0, 0.0)

    def test_regime_flag_tracks_five_sigma_clearance(self):
        assert REGIME_SIGMAS == 5.0
        assert plr_exact_fixed([10.0], 0.0, 70.0, 11.9).in_regime
        assert not plr_exact_fixed([10.0], 0.0, 70.0, 12.0).in_regime

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plr_exact_fixed([-0.1], UP, T, SIGMA)
        with pytest.raises(ValueError):
            plr_exact_fixed([TAU], -1.0, T, SIGMA)
        with pytest.raises(ValueError):
            plr_exact_fixed([TAU], UP, 0.0, SIGMA)
        with pytest.raises(ValueError):
            plr_exact_fixed([TAU], UP, T, -0.05)


class TestMarginalMixture:
    def test_point_mass_equals_the_exact_product(self):
        params = PlrModelParams(N, T, SIGMA, ((TAU, 1.0),), ((UP, 1.0),))
        assert abs(plr_marginal(params).plr
                   - plr_exact_fixed([TAU] * N, UP, T, SIGMA).plr) < 1e-12

    def test_mixture_lies_between_its_pure_components(self):
        lo_tau, hi_tau = 0.0822, 0.1439
        mix = PlrModelParams(N, T, SIGMA, ((lo_tau, 0.5), (hi_tau, 0.5)), ((UP, 1.0),))
        plr_lo = plr_exact_fixed([lo_tau] * N, UP, T, SIGMA).plr
        plr_hi = plr_exact_fixed([hi_tau] * N, UP, T, SIGMA).plr
        assert plr_lo < plr_marginal(mix).plr < plr_hi

    def test_plr_and_collision_free_are_complements(self):
        params = PlrModelParams(N, T, SIGMA, ((TAU, 1.0),), ((UP, 1.0),))
        res = plr_marginal(params)
        assert res.plr == 1.0 - res.collision_free_probability

    def test_saturating_block_raises(self):
        params = PlrModelParams(1, 70.0, 0.0, ((70.5, 1.0),), ((0.0, 1.0),))
        with pytest.raises(ValueError, match="saturates"):
            plr_marginal(params)

    @pytest.mark.parametrize("kwargs", [
        {"n_senders": -1},
        {"period_s": 0.0},
        {"sigma_s": -1.0},
        {"dcp_airtimes": ()},
        {"dcp_airtimes": ((0.1, 0.5), (0.2, 0.4))},     # sums to 0.9
        {"up_airtimes": ((0.2, 1.5), (0.1, -0.5))},     # negative probability
        {"dcp_airtimes": ((-0.1, 1.0),)},
    ])
    def test_invalid_params_rejected(self, kwargs):
        base = dict(n_senders=N, period_s=T, sigma_s=SIGMA,
                    dcp_airtimes=((TAU, 1.0),), up_airtimes=((UP, 1.0),))
        base.update(kwargs)
        with pytest.raises(ValueError):
            PlrModelParams(**base)


class TestLinearApproximation:
    def test_frozen_rounded_operating_point(self):
        res = plr_approx(8, 0.0822, 0.2673, 70.0)
        assert abs(res.plr - FROZEN_APPROX_ROUNDED) < 1e-15
        assert not res.in_regime  # N*q = 0.0399 sits just above the 2% bound

    def test_collision_free_probability_is_the_product_form(self):
        res = plr_approx(N, TAU, UP, T)
        assert abs(res.collision_free_probability
                   - (1.0 - (TAU + UP) / T) ** N) < 1e-12

    def test_plr_clamps_at_one_outside_any_regime(self):
        res = plr_approx(300, 0.2, 0.3, 70.0)
        assert res.plr == 1.0 and not res.in_regime

    def test_in_regime_boundary_is_two_percent(self):
        assert plr_approx(1, 0.5, 0.9, 70.0).in_regime        # q = 0.02
        assert not plr_approx(1, 0.5, 0.91, 70.0).in_regime   # just above

    def test_saturating_block_raises(self):
        with pytest.raises(ValueError, match="saturates"):
            plr_approx(1, 69.9, 0.2, 70.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plr_approx(-1, TAU, UP, T)
        with pytest.raises(ValueError):
            plr_approx(N, -TAU, UP, T)
        with pytest.raises(ValueError):
            plr_approx(N, TAU, UP, 0.0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 20),
       tau=st.floats(0.001, 0.2),
       up=st.floats(0.001, 0.3),
       period=st.floats(10.0, 200.0))
def test_linearization_stays_within_one_percent_in_regime(n, tau, up, period):
    approx = plr_approx(n, tau, up, period)
    assume(approx.in_regime)
    exact = plr_exact_fixed([tau] * n, up, period, 0.0)
    assert exact.plr > 0
    assert abs(approx.plr - exact.plr) / exact.plr < 0.01
    # The union bound overestimates (up to rounding noise at n=1).
    assert approx.plr >= exact.plr - 1e-12
