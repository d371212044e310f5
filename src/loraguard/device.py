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


@dataclass(slots=True)
class EndDevice:
    """One alarm sensor node during a run: its spec, what the run resolved, its state."""

    spec: DeviceSpec
    rp_channels: tuple[int, ...]  # the spec's report channels, else the report sub-band's

    # runtime state: the device's latest frame is on the air over the
    # half-open [last_tx_start, busy_until), so it is idle at ``at`` iff
    # busy_until <= at; the simulation writes both when it starts a frame
    busy_until: SimTime = 0
    last_tx_start: SimTime = -1

    def next_rp_time(self, now: SimTime, rng: Stream) -> SimTime:
        """Next report instant: now + period + Gaussian jitter, floored.

        The floor keeps a pathological jitter draw from scheduling into the
        past or inside the current frame.
        """
        spec = self.spec
        jittered = sample_gaussian(rng, spec.rp_period_us, spec.clock_sigma_us)
        return now + max(spec.rp_floor_us, jittered)

    def pick_rp_channel(self, rng: Stream) -> int:
        """Uniform random hop over the report channels: a position in ``rp_channels``."""
        return rng.below(len(self.rp_channels))
