"""Duty-cycle ledger: off-time arithmetic, budget windows, saturation audits."""

import pytest
from hypothesis import given, settings, strategies as st

from loraguard.engine import US_PER_SECOND
from loraguard.phy import (DutyCycleLedger, LedgerError, OfftimeBudget, WindowBudget,
                           default_eu868_plan)

PLAN = default_eu868_plan()
G = PLAN.subband("g")      # 1%
G1 = PLAN.subband("g1")    # 1%
G3 = PLAN.subband("g3")    # 10%

HOUR_US = 3_600 * US_PER_SECOND


class TestOffTimePolicy:
    def test_off_time_is_airtime_times_one_over_d_minus_one(self):
        ledger = DutyCycleLedger("offtime")
        ledger.record("ed1", G, 1_000, 267_264)
        end = 1_000 + 267_264
        assert ledger.check("ed1", G, end) == end + 267_264 * (G.duty_one_in - 1)

    def test_one_percent_band_blocks_ninety_nine_airtimes(self):
        ledger = DutyCycleLedger("offtime")
        ledger.record("ed1", G, 0, 267_264)
        # 267.264 ms at 1% -> clear again 26.7264 s after the start.
        assert ledger.check("ed1", G, 0) == 267_264 * 100 == 26_726_400

    def test_ten_percent_band_blocks_nine_airtimes(self):
        ledger = DutyCycleLedger("offtime")
        ledger.record("gw1", G3, 0, 100_000)
        assert ledger.check("gw1", G3, 0) == 100_000 + 100_000 * 9 == 1_000_000

    def test_subbands_are_independent(self):
        ledger = DutyCycleLedger("offtime")
        ledger.record("ed1", G, 0, 500_000)
        assert ledger.check("ed1", G, 600_000) > 600_000
        assert ledger.check("ed1", G1, 600_000) == 600_000
        ledger.record("ed1", G1, 600_000, 500_000)  # must not raise

    def test_transmitters_are_independent(self):
        ledger = DutyCycleLedger("offtime")
        ledger.record("ed1", G, 0, 500_000)
        assert ledger.check("ed2", G, 500_000) == 500_000

    def test_check_never_returns_the_past(self):
        ledger = DutyCycleLedger("offtime")
        ledger.record("ed1", G, 0, 1_000)
        assert ledger.check("ed1", G, 10 * US_PER_SECOND) == 10 * US_PER_SECOND

    def test_recording_during_off_time_raises(self):
        ledger = DutyCycleLedger("offtime")
        ledger.record("ed1", G, 0, 100_000)
        with pytest.raises(LedgerError):
            ledger.record("ed1", G, 5_000_000, 100_000)

    def test_saturating_sender_respects_the_limit_long_run(self):
        ledger = DutyCycleLedger("offtime")
        air = 82_176
        now, busy = 0, 0
        for _ in range(2_000):
            now = ledger.check("ed1", G, now, air)
            ledger.record("ed1", G, now, air)
            busy += air
            now += air
        clear = ledger.check("ed1", G, now)
        # Busy fraction over the full obligation span never exceeds 1/100.
        assert busy * G.duty_one_in <= clear


class TestWindowPolicy:
    def test_budget_is_window_over_one_in(self):
        ledger = DutyCycleLedger("window")
        budget = HOUR_US // G.duty_one_in  # 36 s per hour at 1%
        assert budget == 36 * US_PER_SECOND
        now = 0
        for _ in range(36):
            assert ledger.check("gw1", G, now, US_PER_SECOND) == now
            ledger.record("gw1", G, now, US_PER_SECOND)
            now += US_PER_SECOND
        # Budget exhausted: the 37th frame waits until the first one's
        # airtime has left the trailing window.
        first_end = US_PER_SECOND
        assert ledger.check("gw1", G, now, US_PER_SECOND) == first_end + HOUR_US

    def test_single_frame_counts_until_its_end_leaves_the_window(self):
        ledger = DutyCycleLedger("window")
        air = 36 * US_PER_SECOND
        ledger.record("gw1", G, 0, air)
        assert ledger.check("gw1", G, air, 1_000) == air + HOUR_US
        assert ledger.check("gw1", G, air + HOUR_US, 1_000) == air + HOUR_US

    def test_frame_larger_than_the_budget_is_impossible(self):
        ledger = DutyCycleLedger("window")
        with pytest.raises(LedgerError):
            ledger.check("gw1", G, 0, 37 * US_PER_SECOND)

    def test_short_widely_spaced_frames_are_never_blocked(self):
        # The per-frame off-time rule would block this stream; the hourly
        # budget admits it because its utilization is far below 1%.
        ledger = DutyCycleLedger("window")
        air = 82_176
        for k in range(1_000):
            now = k * 8_750_000  # one 82 ms frame every 8.75 s -> 0.94% busy
            assert ledger.check("gw1", G1, now, air) == now
            ledger.record("gw1", G1, now, air)

    def test_window_overdraw_raises(self):
        ledger = DutyCycleLedger("window")
        ledger.record("gw1", G, 0, 20 * US_PER_SECOND)
        with pytest.raises(LedgerError):
            ledger.record("gw1", G, 30 * US_PER_SECOND, 20 * US_PER_SECOND)

    def test_saturating_sender_respects_the_hourly_budget(self):
        ledger = DutyCycleLedger("window")
        air = 900_000
        budget = HOUR_US // G.duty_one_in
        sent: list[tuple[int, int]] = []  # (end, airtime)
        now = 0
        for _ in range(200):
            now = ledger.check("gw1", G, now, air)
            ledger.record("gw1", G, now, air)
            sent.append((now + air, air))
            now += air
        # Independent audit: airtime ending inside any trailing window stays
        # within the budget, sampled at every transmission end.
        for probe, _ in sent:
            in_window = sum(a for end, a in sent if probe - HOUR_US < end <= probe)
            assert in_window <= budget


class TestPolicySelection:
    def test_policy_registry(self):
        ledger = DutyCycleLedger("window")
        ledger.set_policy("ed1", "offtime")
        assert isinstance(ledger.budget("ed1", G), OfftimeBudget)
        assert isinstance(ledger.budget("gw1", G), WindowBudget)  # the default

    @pytest.mark.parametrize("bad", ["hourly", "", "OFFTIME"])
    def test_unknown_policies_are_rejected(self, bad):
        with pytest.raises(ValueError):
            DutyCycleLedger(bad)
        with pytest.raises(ValueError):
            DutyCycleLedger().set_policy("x", bad)

    def test_zero_airtime_record_is_rejected(self):
        with pytest.raises(ValueError):
            DutyCycleLedger().record("ed1", G, 0, 0)

    def test_budgets_are_bound_once_per_transmitter_and_band(self):
        ledger = DutyCycleLedger("offtime")
        ledger.set_policy("gw1", "window")
        assert isinstance(ledger.budget("ed1", G), OfftimeBudget)
        assert isinstance(ledger.budget("gw1", G), WindowBudget)
        assert ledger.budget("ed1", G) is ledger.budget("ed1", G)
        assert ledger.budget("ed1", G) is not ledger.budget("ed1", G1)

    def test_policy_is_fixed_once_a_budget_is_bound(self):
        ledger = DutyCycleLedger("offtime")
        ledger.record("ed1", G, 0, 1_000)
        with pytest.raises(ValueError):
            ledger.set_policy("ed1", "window")


class TestRecordValidation:
    """``record`` re-validates whatever ``check`` came before it."""

    @pytest.mark.parametrize("policy", DutyCycleLedger.POLICIES)
    def test_overdraw_without_a_prior_check_raises(self, policy):
        ledger = DutyCycleLedger(policy)
        ledger.record("ed1", G, 0, 20 * US_PER_SECOND)
        with pytest.raises(LedgerError):
            ledger.record("ed1", G, 30 * US_PER_SECOND, 20 * US_PER_SECOND)

    @pytest.mark.parametrize("policy", DutyCycleLedger.POLICIES)
    def test_check_at_another_start_does_not_clear_the_record(self, policy):
        ledger = DutyCycleLedger(policy)
        ledger.record("ed1", G, 0, 20 * US_PER_SECOND)
        assert ledger.check("ed1", G, 25 * US_PER_SECOND, 20 * US_PER_SECOND) > 25 * US_PER_SECOND
        with pytest.raises(LedgerError):
            ledger.record("ed1", G, 30 * US_PER_SECOND, 20 * US_PER_SECOND)

    @pytest.mark.parametrize("policy", DutyCycleLedger.POLICIES)
    def test_check_of_another_airtime_does_not_clear_the_record(self, policy):
        ledger = DutyCycleLedger(policy)
        ledger.record("ed1", G, 0, 20 * US_PER_SECOND)
        now = 30 * US_PER_SECOND
        if policy == "window":
            # A short frame fits the window's remaining 16 s; a 20 s one does not.
            assert ledger.check("ed1", G, now, US_PER_SECOND) == now
        ledger.check("ed1", G, now, US_PER_SECOND)
        with pytest.raises(LedgerError):
            ledger.record("ed1", G, now, 20 * US_PER_SECOND)

    @pytest.mark.parametrize("policy", DutyCycleLedger.POLICIES)
    def test_a_record_voids_the_check_before_it(self, policy):
        ledger = DutyCycleLedger(policy)
        air = 20 * US_PER_SECOND
        assert ledger.check("ed1", G, 0, air) == 0
        ledger.record("ed1", G, 0, air)
        with pytest.raises(LedgerError):
            ledger.record("ed1", G, 0, air)  # same (start, airtime) as that check


@settings(max_examples=60, deadline=None)
@given(airtimes=st.lists(st.integers(1_000, 2_000_000), min_size=1, max_size=60))
def test_greedy_window_sender_never_exceeds_the_budget(airtimes):
    """Property: send each frame at the earliest permitted instant; then the
    airtime inside any trailing one-hour window stays within the band budget."""
    ledger = DutyCycleLedger("window")
    sent: list[tuple[int, int]] = []
    now = 0
    for air in airtimes:
        now = ledger.check("dev", G, now, air)
        ledger.record("dev", G, now, air)
        sent.append((now + air, air))
        now += air
    budget = HOUR_US // G.duty_one_in
    for probe, _ in sent:
        in_window = sum(a for end, a in sent if probe - HOUR_US < end <= probe)
        assert in_window <= budget


@settings(max_examples=60, deadline=None)
@given(airtimes=st.lists(st.integers(1_000, 2_000_000), min_size=1, max_size=60))
def test_greedy_offtime_sender_amortizes_to_the_duty_cycle(airtimes):
    """Property: under the off-time rule every frame carries an obligation of
    airtime * one_in, so total airtime over the obligation span is exactly the
    duty-cycle limit."""
    ledger = DutyCycleLedger("offtime")
    now, busy = 0, 0
    for air in airtimes:
        now = ledger.check("dev", G, now, air)
        ledger.record("dev", G, now, air)
        busy += air
        now += air
    assert busy * G.duty_one_in == ledger.check("dev", G, now)


@settings(max_examples=60, deadline=None)
@given(airtimes=st.lists(st.integers(1_000, 500_000), min_size=1, max_size=40))
def test_off_time_arithmetic_holds_for_every_frame(airtimes):
    ledger = DutyCycleLedger("offtime")
    now = 0
    for air in airtimes:
        now = ledger.check("dev", G, now, air)
        ledger.record("dev", G, now, air)
        end = now + air
        assert ledger.check("dev", G, end) == end + air * (G.duty_one_in - 1)
        now = end


_LEDGER_OPS = st.lists(
    st.tuples(st.sampled_from(("check", "record")),
              st.integers(0, 3 * US_PER_SECOND),      # gap since the previous op
              st.integers(1_000, 3 * US_PER_SECOND),  # airtime
              st.booleans()),                         # record at the clearance
    min_size=1, max_size=80)


@settings(max_examples=80, deadline=None)
@given(policy=st.sampled_from(DutyCycleLedger.POLICIES), ops=_LEDGER_OPS)
def test_bound_budget_and_facade_agree(policy, ops):
    """Property: one sequence of checks and records gives the same clearance
    times, and the same refusals, through a budget held directly and through
    the ledger's façade."""
    facade = DutyCycleLedger(policy)
    budget = DutyCycleLedger(policy).budget("dev", G)
    now = 0
    for op, gap, air, at_clearance in ops:
        now += gap
        if op == "check":
            assert facade.check("dev", G, now, air) == budget.clearance(now, air)
            continue
        start = budget.clearance(now, air) if at_clearance else now
        facade.check("dev", G, start, air)
        outcomes = []
        for record in (lambda: facade.record("dev", G, start, air),
                       lambda: budget.record(start, air)):
            try:
                record()
                outcomes.append("ok")
            except LedgerError:
                outcomes.append("refused")
        assert outcomes[0] == outcomes[1]
        now = max(now, start)
