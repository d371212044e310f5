"""End-device behavior: report timing and half-duplex state.

Devices are half-duplex Class A nodes sending unconfirmed frames only; there
are no retransmissions anywhere in the system.  Periodic reports hop randomly
over the report channels; urgent uplinks use the single (channel, SF)
assignment the device was commissioned with.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import SimTime, Stream, sample_gaussian
from .scenario import DeviceSpec

UP_SF_MIN = 7
UP_SF_MAX = 10  # keeps the urgent airtime under the 500 ms latency budget


@dataclass
class EndDevice:
    """State of one alarm sensor node; defaults are those of ``DeviceSpec``."""

    id: str
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

    def mark_transmitting(self, start: SimTime, end: SimTime) -> None:
        self.last_tx_start = start
        self.busy_until = end

    def idle_at(self, at: SimTime) -> bool:
        return self.busy_until <= at
