"""Time-on-air arithmetic against an exact rational-number reference."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from loraguard.engine import US_PER_SECOND
from loraguard.phy import RadioParams, airtime_us, payload_symbols

# Hand-frozen oracle values (37-byte PHY payload, CR 4/5, 8-symbol preamble,
# explicit header, 125 kHz, automatic low-data-rate rule), microseconds.
FROZEN_37B_US = {
    7: 82_176,
    8: 143_872,
    9: 267_264,
    10: 493_568,
    11: 1_069_056,
    12: 1_974_272,
}


def reference_airtime_us(sf: int, bw_hz: int, cr: int, preamble: int,
                         explicit_header: bool, ldro: bool, payload: int) -> int:
    """Independent evaluation of the standard formula in exact rationals."""
    t_sym = Fraction(2**sf * US_PER_SECOND, bw_hz)
    de = 2 if ldro else 0
    ih = 0 if explicit_header else 1
    numerator = 8 * payload - 4 * sf + 28 + 16 - 20 * ih
    blocks = math.ceil(Fraction(numerator, 4 * (sf - de)))
    n_payload = 8 + max(blocks * (cr + 4), 0)
    total = (preamble + Fraction(17, 4) + n_payload) * t_sym
    return math.floor(total)


def test_frozen_oracle_values_for_the_37_byte_frame():
    for sf, expected_us in FROZEN_37B_US.items():
        assert airtime_us(RadioParams(sf=sf), 37) == expected_us


def test_empty_payload_at_sf7():
    assert airtime_us(RadioParams(sf=7), 0) == 25_856


def test_reference_agreement_over_a_dense_grid():
    for sf in range(7, 13):
        for bw in (125_000, 250_000, 500_000):
            for cr in (1, 2, 3, 4):
                for payload in (0, 1, 13, 24, 37, 51, 128, 255):
                    for explicit in (True, False):
                        params = RadioParams(sf=sf, bw_hz=bw, coding_rate=cr,
                                             explicit_header=explicit)
                        assert airtime_us(params, payload) == reference_airtime_us(
                            sf, bw, cr, 8, explicit, params.ldro, payload), (
                            sf, bw, cr, payload, explicit)


def test_low_data_rate_rule_follows_the_symbol_time():
    # On exactly when one symbol exceeds 16 ms.
    assert RadioParams(sf=10).ldro is False          # 8.192 ms
    assert RadioParams(sf=11).ldro is True           # 16.384 ms
    assert RadioParams(sf=12).ldro is True           # 32.768 ms
    assert RadioParams(sf=11, bw_hz=250_000).ldro is False   # 8.192 ms
    assert RadioParams(sf=12, bw_hz=250_000).ldro is True    # 16.384 ms
    # Explicit override beats the rule.
    assert RadioParams(sf=12, low_data_rate_opt=False).ldro is False
    assert RadioParams(sf=7, low_data_rate_opt=True).ldro is True


def test_urgent_budget_splits_the_spreading_factors():
    budget_us = 500_000
    for sf in (7, 8, 9, 10):
        assert airtime_us(RadioParams(sf=sf), 37) <= budget_us
    for sf in (11, 12):
        assert airtime_us(RadioParams(sf=sf), 37) > budget_us


def test_payload_symbol_floor_is_eight():
    # Large SF and no payload drive the block count to zero, not negative.
    assert payload_symbols(RadioParams(sf=12), 0) == 8


def test_symbol_time_is_exact_in_microseconds():
    assert RadioParams(sf=7).symbol_time_us == 1_024
    assert RadioParams(sf=12).symbol_time_us == 32_768
    assert RadioParams(sf=7, bw_hz=500_000).symbol_time_us == 256


@pytest.mark.parametrize("kwargs", [
    {"sf": 6}, {"sf": 13}, {"sf": 9, "bw_hz": 200_000},
    {"sf": 9, "coding_rate": 0}, {"sf": 9, "coding_rate": 5},
    {"sf": 9, "preamble_symbols": 0},
])
def test_invalid_radio_params_are_rejected(kwargs):
    with pytest.raises(ValueError):
        RadioParams(**kwargs)


def test_negative_payload_is_rejected():
    # Over the 255-byte LoRa PHY limit is rejected too.
    for payload_len in (-1, 256):
        with pytest.raises(ValueError):
            airtime_us(RadioParams(sf=9), payload_len)


@given(sf=st.integers(7, 12), cr=st.integers(1, 4),
       bw=st.sampled_from([125_000, 250_000, 500_000]),
       payload=st.integers(0, 254))
def test_airtime_is_monotone_in_payload(sf, cr, bw, payload):
    params = RadioParams(sf=sf, bw_hz=bw, coding_rate=cr)
    assert airtime_us(params, payload + 1) >= airtime_us(params, payload)


@given(sf=st.integers(7, 11), payload=st.integers(0, 255), cr=st.integers(1, 4))
def test_airtime_grows_with_the_spreading_factor(sf, payload, cr):
    slow = airtime_us(RadioParams(sf=sf + 1, coding_rate=cr), payload)
    fast = airtime_us(RadioParams(sf=sf, coding_rate=cr), payload)
    assert slow > fast


@given(sf=st.integers(7, 12), cr=st.integers(1, 4), payload=st.integers(0, 255),
       bw=st.sampled_from([125_000, 250_000, 500_000]),
       explicit=st.booleans())
def test_airtime_matches_the_rational_reference(sf, cr, payload, bw, explicit):
    params = RadioParams(sf=sf, bw_hz=bw, coding_rate=cr, explicit_header=explicit)
    assert airtime_us(params, payload) == reference_airtime_us(
        sf, bw, cr, 8, explicit, params.ldro, payload)
