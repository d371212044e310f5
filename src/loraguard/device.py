"""End-device behavior: report timing, receive windows, half-duplex state.

Devices are half-duplex Class A nodes sending unconfirmed frames only; there
are no retransmissions anywhere in the system.  Periodic reports hop randomly
over the report channels; urgent uplinks use the single (channel, SF)
assignment the device was commissioned with.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import SimTime, Stream, sample_gaussian
from .phy import RX2_FREQ_HZ, RX2_SF
from .scenario import DeviceSpec

UP_SF_MIN = 7
UP_SF_MAX = 10  # keeps the urgent airtime under the 500 ms latency budget


@dataclass(slots=True)
class ReceiveWindows:
    """The two Class-A windows that follow one uplink."""

    rx1_at: SimTime
    rx1_freq_hz: int
    rx1_sf: int
    rx2_at: SimTime
    rx2_freq_hz: int = RX2_FREQ_HZ
    rx2_sf: int = RX2_SF


@dataclass
class EndDevice:
    """State of one alarm sensor node; defaults are those of ``DeviceSpec``."""

    id: str
    cluster: str
    rp_period_us: SimTime | None  # None disables periodic reports
    clock_sigma_us: SimTime = DeviceSpec.clock_sigma_us
    rp_sf: int = DeviceSpec.rp_sf
    rp_payload_len: int = DeviceSpec.rp_payload_len
    rp_channels: tuple[int, ...] = ()
    up_payload_len: int = DeviceSpec.up_payload_len
    rx_power_dbm: float = DeviceSpec.rx_power_dbm
    receive_delay1_us: SimTime = DeviceSpec.receive_delay1_us
    receive_delay2_us: SimTime = DeviceSpec.receive_delay2_us
    rp_floor_us: SimTime = DeviceSpec.rp_floor_us  # shortest gap jitter may produce
    assignment: tuple[int, int] | None = None  # (freq_hz, sf) for urgent uplinks

    # runtime state
    busy_until: SimTime = 0
    last_tx_start: SimTime = -1
    windows: ReceiveWindows | None = None

    def __post_init__(self) -> None:
        if self.rp_period_us is not None and self.rp_period_us <= 0:
            raise ValueError(f"{self.id}: rp_period_us must be > 0")
        if self.clock_sigma_us < 0:
            raise ValueError(f"{self.id}: clock_sigma_us must be >= 0")
        if self.rp_period_us is not None and not self.rp_channels:
            raise ValueError(f"{self.id}: no report channels configured")
        if self.assignment is not None and not UP_SF_MIN <= self.assignment[1] <= UP_SF_MAX:
            raise ValueError(f"{self.id}: urgent uplinks must use SF in "
                             f"[{UP_SF_MIN}, {UP_SF_MAX}], got {self.assignment[1]}")

    def next_rp_time(self, now: SimTime, rng: Stream) -> SimTime:
        """Next report instant: now + period + Gaussian jitter, floored.

        The floor keeps a pathological jitter draw from scheduling into the
        past or inside the current frame.
        """
        assert self.rp_period_us is not None
        jittered = sample_gaussian(rng, self.rp_period_us, self.clock_sigma_us)
        return now + max(self.rp_floor_us, jittered)

    def pick_rp_channel(self, rng: Stream) -> int:
        """Uniform random hop over the report channels."""
        return self.rp_channels[rng.below(len(self.rp_channels))]

    def open_rx_windows(self, uplink_end: SimTime, freq_hz: int, sf: int) -> ReceiveWindows:
        """Open the Class-A windows after an uplink; RX1 mirrors the uplink.

        The device keeps one ``ReceiveWindows`` and updates it in place, so
        the returned object describes the windows of the latest uplink.
        """
        w = self.windows
        if w is None:
            w = self.windows = ReceiveWindows(
                rx1_at=uplink_end + self.receive_delay1_us,
                rx1_freq_hz=freq_hz,
                rx1_sf=sf,
                rx2_at=uplink_end + self.receive_delay2_us,
            )
        else:
            w.rx1_at = uplink_end + self.receive_delay1_us
            w.rx1_freq_hz = freq_hz
            w.rx1_sf = sf
            w.rx2_at = uplink_end + self.receive_delay2_us
        return w

    def window_open_at(self, at: SimTime, freq_hz: int, sf: int) -> bool:
        """Does a downlink starting at ``at`` on (freq, sf) hit a live window?"""
        w = self.windows
        if w is None:
            return False
        if at == w.rx1_at and freq_hz == w.rx1_freq_hz and sf == w.rx1_sf:
            return True
        return at == w.rx2_at and freq_hz == w.rx2_freq_hz and sf == w.rx2_sf

    def mark_transmitting(self, start: SimTime, end: SimTime) -> None:
        self.last_tx_start = start
        self.busy_until = end

    def idle_at(self, at: SimTime) -> bool:
        return self.busy_until <= at

    def transmitted_during(self, start: SimTime, end: SimTime) -> bool:
        # True when the device keyed up inside [start, end): it cannot have
        # been listening to a downlink spanning that interval.
        return start <= self.last_tx_start < end
