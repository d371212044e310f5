"""Duty-cycle budgets: off-time arithmetic, budget windows, saturation audits."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from loraguard.engine import US_PER_SECOND
from loraguard.phy import (BUDGETS, VALID_BANDWIDTHS_HZ, LedgerError, OfftimeBudget, RadioParams,
                           WindowBudget, airtime_us, default_eu868_plan)
from loraguard.scenario import _DUTY_POLICIES, ScenarioError, parse_scenario
from loraguard.simulation import Simulation

PLAN = default_eu868_plan()
G = PLAN.subband("g")      # 1%
G1 = PLAN.subband("g1")    # 1%
G3 = PLAN.subband("g3")    # 10%

HOUR_US = 3_600 * US_PER_SECOND


class TestOffTimePolicy:
    def test_off_time_is_airtime_times_one_over_d_minus_one(self):
        budget = OfftimeBudget("ed1", G)
        budget.record(1_000, 267_264)
        end = 1_000 + 267_264
        assert budget.clearance(end) == end + 267_264 * (G.duty_one_in - 1)

    def test_one_percent_band_blocks_ninety_nine_airtimes(self):
        budget = OfftimeBudget("ed1", G)
        budget.record(0, 267_264)
        # 267.264 ms at 1% -> clear again 26.7264 s after the start.
        assert budget.clearance(0) == 267_264 * 100 == 26_726_400

    def test_ten_percent_band_blocks_nine_airtimes(self):
        budget = OfftimeBudget("gw1", G3)
        budget.record(0, 100_000)
        assert budget.clearance(0) == 100_000 + 100_000 * 9 == 1_000_000

    def test_subbands_are_independent(self):
        on_g, on_g1 = OfftimeBudget("ed1", G), OfftimeBudget("ed1", G1)
        on_g.record(0, 500_000)
        assert on_g.clearance(600_000) > 600_000
        assert on_g1.clearance(600_000) == 600_000
        on_g1.record(600_000, 500_000)  # must not raise

    def test_transmitters_are_independent(self):
        ed1, ed2 = OfftimeBudget("ed1", G), OfftimeBudget("ed2", G)
        ed1.record(0, 500_000)
        assert ed2.clearance(500_000) == 500_000

    def test_check_never_returns_the_past(self):
        budget = OfftimeBudget("ed1", G)
        budget.record(0, 1_000)
        assert budget.clearance(10 * US_PER_SECOND) == 10 * US_PER_SECOND

    def test_recording_during_off_time_raises(self):
        budget = OfftimeBudget("ed1", G)
        budget.record(0, 100_000)
        with pytest.raises(LedgerError):
            budget.record(5_000_000, 100_000)

    def test_saturating_sender_respects_the_limit_long_run(self):
        budget = OfftimeBudget("ed1", G)
        air = 82_176
        now, busy = 0, 0
        for _ in range(2_000):
            now = budget.clearance(now, air)
            budget.record(now, air)
            busy += air
            now += air
        clear = budget.clearance(now)
        # Busy fraction over the full obligation span never exceeds 1/100.
        assert busy * G.duty_one_in <= clear


class TestWindowPolicy:
    def test_budget_is_window_over_one_in(self):
        budget = WindowBudget("gw1", G)
        limit = HOUR_US // G.duty_one_in  # 36 s per hour at 1%
        assert limit == 36 * US_PER_SECOND
        now = 0
        for _ in range(36):
            assert budget.clearance(now, US_PER_SECOND) == now
            budget.record(now, US_PER_SECOND)
            now += US_PER_SECOND
        # Budget exhausted: the 37th frame waits until the first one's
        # airtime has left the trailing window.
        first_end = US_PER_SECOND
        assert budget.clearance(now, US_PER_SECOND) == first_end + HOUR_US

    def test_single_frame_counts_until_its_end_leaves_the_window(self):
        budget = WindowBudget("gw1", G)
        air = 36 * US_PER_SECOND
        budget.record(0, air)
        assert budget.clearance(air, 1_000) == air + HOUR_US
        assert budget.clearance(air + HOUR_US, 1_000) == air + HOUR_US

    def test_frame_larger_than_the_budget_is_impossible(self):
        budget = WindowBudget("gw1", G)
        with pytest.raises(LedgerError):
            budget.clearance(0, 37 * US_PER_SECOND)

    def test_short_widely_spaced_frames_are_never_blocked(self):
        # The per-frame off-time rule would block this stream; the hourly
        # budget admits it because its utilization is far below 1%.
        budget = WindowBudget("gw1", G1)
        air = 82_176
        for k in range(1_000):
            now = k * 8_750_000  # one 82 ms frame every 8.75 s -> 0.94% busy
            assert budget.clearance(now, air) == now
            budget.record(now, air)

    def test_window_overdraw_raises(self):
        budget = WindowBudget("gw1", G)
        budget.record(0, 20 * US_PER_SECOND)
        with pytest.raises(LedgerError):
            budget.record(30 * US_PER_SECOND, 20 * US_PER_SECOND)

    def test_saturating_sender_respects_the_hourly_budget(self):
        budget = WindowBudget("gw1", G)
        air = 900_000
        limit = HOUR_US // G.duty_one_in
        sent: list[tuple[int, int]] = []  # (end, airtime)
        now = 0
        for _ in range(200):
            now = budget.clearance(now, air)
            budget.record(now, air)
            sent.append((now + air, air))
            now += air
        # Independent audit: airtime ending inside any trailing window stays
        # within the budget, sampled at every transmission end.
        for probe, _ in sent:
            in_window = sum(a for end, a in sent if probe - HOUR_US < end <= probe)
            assert in_window <= limit

    def test_budget_holds_only_the_frames_inside_the_trailing_window(self):
        budget = WindowBudget("gw1", G1)
        air = 82_176
        sent = []  # (end, airtime)
        for k in range(1_000):
            now = k * 8_750_000  # 1,000 frames over 2.4 hours
            budget.record(now, air)
            sent.append((now + air, air))
        inside = [frame for frame in sent if frame[0] > now - HOUR_US]
        assert 0 < len(inside) < len(sent)
        assert list(budget.history) == inside
        assert budget.used == len(inside) * air


def policy_doc(gateway_policy="window", device_policy="offtime"):
    return {
        "name": "policies",
        "stop": {"ups": 5},
        "device_duty_policy": device_policy,
        "gateways": [{"id": "gw1", "duty_policy": gateway_policy}],
        "clusters": [{"id": "c1", "members": ["ed1"], "dcp_gateway": "gw1"}],
        "devices": [{"id": "ed1", "cluster": "c1"}],
    }


class TestPolicySelection:
    def test_policy_registry(self):
        assert BUDGETS == {"offtime": OfftimeBudget, "window": WindowBudget}
        # Every policy a scenario accepts names a budget class, for gateways
        # and devices alike.
        assert set(BUDGETS) == set(_DUTY_POLICIES)
        for gateway_policy, device_policy in itertools.product(_DUTY_POLICIES, repeat=2):
            sim = Simulation(parse_scenario(policy_doc(gateway_policy, device_policy)))
            (reporter,) = sim._reporters
            assert type(sim._up_resources["ed1"][-1]) is BUDGETS[device_policy]
            assert {type(b) for b in reporter.budgets} == {BUDGETS[device_policy]}
            assert {type(b) for b in (*reporter.dcp_budgets, reporter.rx2_dcp[0])} == \
                {BUDGETS[gateway_policy]}

    @pytest.mark.parametrize("bad", ["hourly", "", "OFFTIME"])
    def test_unknown_policies_are_rejected(self, bad):
        assert bad not in BUDGETS
        with pytest.raises(ScenarioError, match="device_duty_policy"):
            parse_scenario(policy_doc(device_policy=bad))
        with pytest.raises(ScenarioError, match="duty_policy"):
            parse_scenario(policy_doc(gateway_policy=bad))


@given(sf=st.integers(7, 12), cr=st.integers(1, 4), bw=st.sampled_from(VALID_BANDWIDTHS_HZ),
       preamble=st.integers(1, 16), payload=st.integers(0, 255),
       policy=st.sampled_from(sorted(BUDGETS)))
def test_every_frame_a_run_records_spends_the_budget(sf, cr, bw, preamble, payload, policy):
    """Property: a run records only airtimes from ``airtime_us``, which are
    positive even for an empty payload, so each record spends the budget: a
    frame that only an unspent budget could admit at once must now wait."""
    air = airtime_us(RadioParams(sf=sf, bw_hz=bw, coding_rate=cr, preamble_symbols=preamble),
                     payload)
    assert air > 0
    budget = BUDGETS[policy]("dev", G3)
    budget.record(0, air)
    rest = HOUR_US // G3.duty_one_in - air + 1  # one microsecond over what is left
    assert budget.clearance(0, rest) > 0
    with pytest.raises(LedgerError):
        budget.record(0, rest)


class TestRecordValidation:
    """``record`` re-validates whatever ``clearance`` came before it."""

    @pytest.mark.parametrize("policy", BUDGETS)
    def test_overdraw_without_a_prior_check_raises(self, policy):
        budget = BUDGETS[policy]("ed1", G)
        budget.record(0, 20 * US_PER_SECOND)
        with pytest.raises(LedgerError):
            budget.record(30 * US_PER_SECOND, 20 * US_PER_SECOND)

    @pytest.mark.parametrize("policy", BUDGETS)
    def test_check_at_another_start_does_not_clear_the_record(self, policy):
        budget = BUDGETS[policy]("ed1", G)
        budget.record(0, 20 * US_PER_SECOND)
        assert budget.clearance(25 * US_PER_SECOND, 20 * US_PER_SECOND) > 25 * US_PER_SECOND
        with pytest.raises(LedgerError):
            budget.record(30 * US_PER_SECOND, 20 * US_PER_SECOND)

    @pytest.mark.parametrize("policy", BUDGETS)
    def test_check_of_another_airtime_does_not_clear_the_record(self, policy):
        budget = BUDGETS[policy]("ed1", G)
        budget.record(0, 20 * US_PER_SECOND)
        now = 30 * US_PER_SECOND
        if policy == "window":
            # A short frame fits the window's remaining 16 s; a 20 s one does not.
            assert budget.clearance(now, US_PER_SECOND) == now
        budget.clearance(now, US_PER_SECOND)
        with pytest.raises(LedgerError):
            budget.record(now, 20 * US_PER_SECOND)

    @pytest.mark.parametrize("policy", BUDGETS)
    def test_a_record_voids_the_check_before_it(self, policy):
        budget = BUDGETS[policy]("ed1", G)
        air = 20 * US_PER_SECOND
        assert budget.clearance(0, air) == 0
        budget.record(0, air)
        with pytest.raises(LedgerError):
            budget.record(0, air)  # same (start, airtime) as that check


@settings(max_examples=60, deadline=None)
@given(airtimes=st.lists(st.integers(1_000, 2_000_000), min_size=1, max_size=60))
def test_greedy_window_sender_never_exceeds_the_budget(airtimes):
    """Property: send each frame at the earliest permitted instant; then the
    airtime inside any trailing one-hour window stays within the band budget."""
    budget = WindowBudget("dev", G)
    sent: list[tuple[int, int]] = []
    now = 0
    for air in airtimes:
        now = budget.clearance(now, air)
        budget.record(now, air)
        sent.append((now + air, air))
        now += air
    limit = HOUR_US // G.duty_one_in
    for probe, _ in sent:
        in_window = sum(a for end, a in sent if probe - HOUR_US < end <= probe)
        assert in_window <= limit


@settings(max_examples=60, deadline=None)
@given(airtimes=st.lists(st.integers(1_000, 2_000_000), min_size=1, max_size=60))
def test_greedy_offtime_sender_amortizes_to_the_duty_cycle(airtimes):
    """Property: under the off-time rule every frame carries an obligation of
    airtime * one_in, so total airtime over the obligation span is exactly the
    duty-cycle limit."""
    budget = OfftimeBudget("dev", G)
    now, busy = 0, 0
    for air in airtimes:
        now = budget.clearance(now, air)
        budget.record(now, air)
        busy += air
        now += air
    assert busy * G.duty_one_in == budget.clearance(now)


@settings(max_examples=60, deadline=None)
@given(airtimes=st.lists(st.integers(1_000, 500_000), min_size=1, max_size=40))
def test_off_time_arithmetic_holds_for_every_frame(airtimes):
    budget = OfftimeBudget("dev", G)
    now = 0
    for air in airtimes:
        now = budget.clearance(now, air)
        budget.record(now, air)
        end = now + air
        assert budget.clearance(end) == end + air * (G.duty_one_in - 1)
        now = end


_BUDGET_OPS = st.lists(
    st.tuples(st.sampled_from(("clearance", "record")),
              st.integers(0, 3 * US_PER_SECOND),      # gap since the previous op
              st.integers(1_000, 3 * US_PER_SECOND),  # airtime
              st.integers(-US_PER_SECOND, US_PER_SECOND),  # record offset from clearance
              st.none() | st.integers(1_000, 3 * US_PER_SECOND)),  # another airtime to record
    min_size=1, max_size=80)


@settings(max_examples=80, deadline=None)
@given(policy=st.sampled_from(sorted(BUDGETS)), ops=_BUDGET_OPS)
def test_clearance_and_record_agree(policy, ops):
    """Property: over any sequence of clearances and records at times that
    never go back, a record is accepted exactly when it starts at or after
    the clearance for its airtime, asked of an identical budget just before.
    The record may follow a clearance asked for another airtime."""
    budget, shadow = BUDGETS[policy]("dev", G), BUDGETS[policy]("dev", G)
    now = 0
    for op, gap, air, offset, other_air in ops:
        now += gap
        if op == "clearance":
            assert budget.clearance(now, air) >= now
            continue
        start = max(now, budget.clearance(now, air) + offset)
        air = other_air or air
        if shadow.clearance(start, air) <= start:
            budget.record(start, air)
            shadow.record(start, air)
        else:
            with pytest.raises(LedgerError):
                budget.record(start, air)
        now = start
