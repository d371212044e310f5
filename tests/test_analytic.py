"""Renewal-model evaluators: exact product, mixture marginal, linearization.

Frozen reference values were computed independently with rational/closed-form
arithmetic for the sigma=0 case and cross-checked against adaptive quadrature
for sigma > 0; they pin the implementation against regressions.
"""

import hashlib
import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from loraguard.analytic import (
    REGIME_SIGMAS,
    PlrModelParams,
    PlrResult,
    plr_approx,
    plr_exact_fixed,
    plr_marginal,
    residual_density,
    survivor_integral,
)
from loraguard.phy import RadioParams, airtime_us

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

    def test_nan_residual_rejected(self):
        with pytest.raises(ValueError):
            residual_density(math.nan, T, SIGMA)


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
    """I(delta) by adaptive quadrature, told where the integrand steps down.

    It integrates over u = x/delta in [0, 1] and scales back, so a subnormal
    delta does not leave quad an interval too narrow for its roundoff checks.
    ``epsabs`` is scaled with it: the target stays 1e-13 on I itself.
    """
    if delta == 0.0:
        return 0.0
    points = [p / delta for p in (period - 8 * sigma, period, period + 8 * sigma)
              if 0.0 < p < delta]
    scale = sigma * math.sqrt(2.0)
    value, _err = quad(lambda u: 0.5 * math.erfc((delta * u - period) / scale),
                       0.0, 1.0, points=points or None, epsabs=1e-13 / delta, limit=200)
    return delta * value


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@settings(max_examples=300, deadline=None)
@given(period=st.floats(1.0, 300.0),
       log_ratio=st.floats(-6.0, 0.0),
       delta_over_period=st.floats(0.0, 3.0))
# A subnormal delta made quad over [0, delta] warn "extremely bad integrand".
@example(period=100.6875, log_ratio=0.0, delta_over_period=2.225073858507203e-309)
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


# -- bit-identity against one survival term per sender ----------------------------

# Downlink/uplink airtimes of a 37-byte frame at SF7-SF10, in seconds.
GRID_AIRTIMES = tuple(airtime_us(RadioParams(sf=sf), 37) / 1e6 for sf in (7, 8, 9, 10))

# sha256 of _grid_rows(), recorded with the evaluators that computed one
# survival term per sender and g(u0) once per term.
GRID_ROWS_SHA256 = "b6b43671c37c275653c2fb433da2117398f597137fbca2741c30591a8e238547"


def _identity_grid(points=300):
    """Seeded operating points; shape i % 5 cycles through:

    0 inside the regime, 1 one airtime shared by every sender (a one-point
    mixture), 2 near saturation (blocking interval 67-95% of the period),
    3 out of regime (sigma large against the gap between blocking interval
    and period), 4 sigma = 0.  Shapes 0 and 3 give the mixture one entry per
    sender, so its values repeat; a third of the points mix two uplink airtimes.
    """
    rng = random.Random(20261018)
    grid = []
    for i in range(points):
        shape = i % 5
        n = rng.randint(1, 15)
        if shape == 1:
            dcp = [rng.choice(GRID_AIRTIMES)] * n
        else:
            dcp = [rng.choice(GRID_AIRTIMES) for _ in range(n)]
        ups = rng.sample(GRID_AIRTIMES, 2 if i % 3 == 0 else 1)
        block = max(dcp) + max(ups)
        if shape in (0, 1):
            period, sigma = rng.uniform(20.0, 300.0), rng.uniform(0.001, 1.0)
        elif shape == 2:
            period = block * rng.uniform(1.05, 1.5)
            sigma = period * rng.uniform(0.01, 0.1)
        elif shape == 3:
            period = block * rng.uniform(2.0, 10.0)
            sigma = (period - block) / 5.0 * rng.uniform(1.2, 4.0)
        else:
            period, sigma = block * rng.uniform(1.05, 100.0), 0.0
        if shape in (0, 3):
            dcp_mix = tuple((tau, 1.0 / n) for tau in dcp)
        else:
            dcp_mix = tuple((tau, dcp.count(tau) / n) for tau in sorted(set(dcp)))
        p_up = rng.uniform(0.05, 0.95)
        up_mix = ((ups[0], p_up), (ups[1], 1.0 - p_up)) if len(ups) == 2 else ((ups[0], 1.0),)
        grid.append((dcp, ups[0], period, sigma,
                     PlrModelParams(n, period, sigma, dcp_mix, up_mix)))
    return grid


def _evaluate(point):
    dcp, up, period, sigma, params = point
    return (plr_exact_fixed(dcp, up, period, sigma), plr_marginal(params),
            plr_approx(len(dcp), sum(dcp) / len(dcp), up, period))


def _survival(delta, period, sigma):
    return 1.0 - survivor_integral(delta, period, sigma) / period


def _reference(point):
    """(P_free, in_regime) of each evaluator, one survival term per sender or pair."""
    dcp, up, period, sigma, params = point
    regime_edge = period - REGIME_SIGMAS * sigma
    exact = math.prod([_survival(tau + up, period, sigma) for tau in dcp])
    pairs = [(tau + d, p_tau * p_d) for tau, p_tau in params.dcp_airtimes
             for d, p_d in params.up_airtimes]
    marginal = math.fsum(p * _survival(block, period, sigma)
                         for block, p in pairs) ** params.n_senders
    n, block = len(dcp), sum(dcp) / len(dcp) + up
    return ((1.0 - exact, exact, max(dcp) + up < regime_edge),
            (1.0 - marginal, marginal, max(b for b, _p in pairs) < regime_edge),
            (min(1.0, n * block / period), (1.0 - block / period) ** n,
             n * block / period <= 0.02))


def _grid_rows():
    rows = []
    for point in _identity_grid():
        rows.append(repr(tuple((r.plr, r.collision_free_probability, r.method, r.in_regime)
                               for r in _evaluate(point))))
    return rows


class TestBitIdentity:
    def test_every_shape_is_on_the_grid(self):
        grid = _identity_grid()
        assert len(grid) == 300
        regimes = [plr_exact_fixed(*point[:4]).in_regime for point in grid]
        assert any(regimes) and not all(regimes)
        assert any(point[3] == 0.0 for point in grid)
        assert any(len(point[4].up_airtimes) == 2 for point in grid)

    def test_evaluators_equal_one_term_per_sender(self):
        for point in _identity_grid():
            got = [(r.plr, r.collision_free_probability, r.in_regime)
                   for r in _evaluate(point)]
            assert got == list(_reference(point)), point

    def test_rows_match_the_recorded_digest(self):
        text = "".join(row + "\n" for row in _grid_rows())
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GRID_ROWS_SHA256


class TestDuplicatesAndErrorOrder:
    def test_negative_airtime_after_duplicates_raises(self):
        with pytest.raises(ValueError, match=r"^dcp airtime must be >= 0, got -0\.2$"):
            plr_exact_fixed([0.1, 0.1, -0.2, 0.1], UP, T, SIGMA)

    def test_first_bad_sender_decides_the_message(self):
        with pytest.raises(ValueError, match="saturates"):
            plr_exact_fixed([0.1, 0.8, -0.2, 0.8], 0.2, 1.0, 0.0)
        with pytest.raises(ValueError, match="must be >= 0"):
            plr_exact_fixed([0.1, -0.2, 0.8, -0.2], 0.2, 1.0, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 15])
    def test_repeated_saturating_airtime_raises_one_message(self, n):
        with pytest.raises(ValueError) as info:
            plr_exact_fixed([0.8] * n, 0.2, 1.0, 0.0)
        assert str(info.value) == "blocking interval 1.0 s saturates the period 1.0 s"

    @pytest.mark.parametrize("n", range(1, 16))
    def test_identical_senders_match_the_one_point_mixture(self, n):
        for tau, period, sigma in ((TAU, T, SIGMA), (0.1439, 1.0, 0.1), (0.3, 0.7, 0.0)):
            exact = plr_exact_fixed([tau] * n, UP, period, sigma)
            one = plr_marginal(PlrModelParams(1, period, sigma, ((tau, 1.0),), ((UP, 1.0),)))
            mixed = plr_marginal(PlrModelParams(n, period, sigma, ((tau, 1.0),), ((UP, 1.0),)))
            # The exact product multiplies the one-sender factor n times ...
            assert exact.collision_free_probability == math.prod(
                [one.collision_free_probability] * n)
            assert exact.plr == 1.0 - exact.collision_free_probability
            # ... while the mixture raises it to the n-th power, which may
            # round differently in the last bits.
            assert (abs(exact.collision_free_probability - mixed.collision_free_probability)
                    <= n * math.ulp(mixed.collision_free_probability))

    def test_result_is_an_immutable_record(self):
        res = plr_exact_fixed([TAU] * N, UP, T, SIGMA)
        assert PlrResult._fields == ("plr", "collision_free_probability", "method", "in_regime")
        assert res.method == "exact"
        with pytest.raises(AttributeError):
            res.plr = 0.5


class TestNonFiniteInputs:
    @pytest.mark.parametrize("period, sigma", [
        (math.nan, SIGMA), (math.inf, SIGMA), (T, math.nan), (T, math.inf)])
    def test_process_must_be_finite(self, period, sigma):
        with pytest.raises(ValueError, match="finite"):
            plr_exact_fixed([TAU], UP, period, sigma)
        with pytest.raises(ValueError, match="finite"):
            survivor_integral(0.3, period, sigma)
        with pytest.raises(ValueError, match="finite"):
            PlrModelParams(N, period, sigma, ((TAU, 1.0),), ((UP, 1.0),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_airtimes_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            plr_exact_fixed([TAU, bad, TAU], UP, T, SIGMA)
        with pytest.raises(ValueError, match="must be finite"):
            plr_exact_fixed([TAU], bad, T, SIGMA)
        with pytest.raises(ValueError, match="must be finite"):
            plr_approx(N, bad, UP, T)
        with pytest.raises(ValueError, match="must be finite"):
            survivor_integral(bad, T, SIGMA)
        with pytest.raises(ValueError, match="must be finite"):
            PlrModelParams(N, T, SIGMA, ((bad, 1.0),), ((UP, 1.0),))

    def test_mixture_probabilities_must_be_finite(self):
        with pytest.raises(ValueError, match="must be finite"):
            PlrModelParams(N, T, SIGMA, ((0.1, math.nan),), ((UP, 1.0),))
