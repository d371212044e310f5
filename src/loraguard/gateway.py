"""Gateway radio model: demodulation paths, half-duplex downlink preemption.

A gateway is half-duplex across its whole radio: starting a downlink aborts
every in-progress reception on every channel, and uplinks arriving while the
gateway transmits are lost.  Reception capacity is limited by the number of
parallel demodulation paths.  An ``rx_only`` gateway never transmits, so it
never self-preempts; it is still subject to collisions and path exhaustion.

The per-uplink contract is: ``on_uplink_start`` at the frame's first sample,
``on_uplink_end`` at its last, which returns the gateway's final outcome for
the frame (``None`` = decoded, otherwise a loss cause).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import SimTime
from .metrics import (CAUSE_COLLISION, CAUSE_GW_PREEMPTED, CAUSE_NO_DEMOD_PATH,
                      CAUSE_TX_BUSY)
from .phy import CaptureModel, Transmission, decodes_against
from .scenario import GatewaySpec


@dataclass(slots=True)
class Reception:
    """One uplink currently occupying a demodulation path."""

    tx: Transmission
    # (sf, rx power) of every co-channel frame that overlapped this one.
    interferers: list[tuple[int, float]] = field(default_factory=list)


@dataclass(slots=True)
class Gateway:
    """One gateway radio during a run: its spec and its state."""

    spec: GatewaySpec

    # runtime state
    tx_busy_until: SimTime = 0
    active: dict[int, Reception] = field(default_factory=dict)
    finished: dict[int, str] = field(default_factory=dict)  # early loss causes
    # uid -> (end_us, (sf, power)) per channel for every frame on the air,
    # whether or not it holds a demod path: dropped frames still radiate.
    on_air: dict[int, dict[int, tuple[SimTime, tuple[int, float]]]] = field(
        default_factory=dict)

    def on_uplink_start(self, tx: Transmission, now: SimTime) -> None:
        """Register an arriving uplink.

        The frame joins the channel's interference set and is stamped onto
        every overlapping reception regardless of whether it wins a
        demodulation path itself.  A busy channel is scanned once: frames
        that ended by ``now`` are pruned and take no part, each live
        reception is stamped with the newcomer, and the live frames, in
        arrival order, become the newcomer's interferers.
        """
        channel = self.on_air.get(tx.freq_hz)
        if channel is None:
            channel = self.on_air[tx.freq_hz] = {}
        signal = (tx.params.sf, tx.rx_power_dbm)
        interferers_seen = []
        if channel:  # empty is the common case: nothing else on the air
            active = self.active
            ended = []
            for uid, (end, other) in channel.items():
                if end <= now:
                    ended.append(uid)
                    continue
                reception = active.get(uid)
                if reception is not None:
                    reception.interferers.append(signal)
                interferers_seen.append(other)
            for uid in ended:
                del channel[uid]
        channel[tx.uid] = (tx.end_us, signal)

        if self.tx_busy_until > now:
            self.finished[tx.uid] = CAUSE_TX_BUSY
        elif len(self.active) >= self.spec.demod_paths:
            self.finished[tx.uid] = CAUSE_NO_DEMOD_PATH
        else:
            self.active[tx.uid] = Reception(tx, interferers_seen)

    def on_uplink_end(self, tx: Transmission, now: SimTime, model: CaptureModel,
                      rng) -> str | None:
        """Close out an uplink; returns this gateway's loss cause, None if decoded."""
        channel = self.on_air.get(tx.freq_hz)
        if channel is not None:
            channel.pop(tx.uid, None)
        cause = self.finished.pop(tx.uid, None)
        if cause is not None:
            return cause
        reception = self.active.pop(tx.uid)
        if not decodes_against(model, tx.params.sf, tx.rx_power_dbm,
                               reception.interferers, rng):
            return CAUSE_COLLISION
        return None

    def start_downlink(self, now: SimTime, airtime_us: SimTime) -> int:
        """Begin transmitting: abort every active reception, mark the radio busy.

        While the radio transmits, no reception is active.  Returns the number
        of receptions preempted at this instant.
        """
        if self.spec.role == "rx_only":
            raise RuntimeError(f"{self.spec.id} is receive-only and cannot transmit")
        for uid in self.active:
            self.finished[uid] = CAUSE_GW_PREEMPTED
        preempted = len(self.active)
        self.active.clear()
        self.tx_busy_until = now + airtime_us
        return preempted
