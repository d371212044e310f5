"""Gateway radio model: demodulation paths, half-duplex downlink preemption.

A gateway is half-duplex across its whole radio: starting a downlink aborts
every in-progress reception on every channel, and uplinks arriving while the
gateway transmits are lost.  Reception capacity is limited by the number of
parallel demodulation paths.  An ``rx_only`` gateway never transmits, so it
never self-preempts; it is still subject to collisions and path exhaustion.

The per-uplink contract is: ``on_uplink_start`` at the frame's first sample,
``on_uplink_end`` at its last, which returns the gateway's final outcome for
the frame (``None`` = decoded, otherwise a loss cause).

A gateway is built with the run's capture model.  A frame holding a
demodulation path is kept only as the list of the ``(sf, rx power)`` of its
lethal interferers, the co-channel frames that overlapped it in an SF pair
of ``CaptureModel.lethal``, under its uid in ``active``; the frame itself
comes back with ``on_uplink_end``.  Any other interferer cannot change its
outcome nor cause a draw, so a frame that heard no lethal interferer is
decoded without consulting the capture model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import SimTime
from .metrics import (CAUSE_COLLISION, CAUSE_GW_PREEMPTED, CAUSE_NO_DEMOD_PATH,
                      CAUSE_TX_BUSY)
from .phy import CaptureModel, Transmission, decodes_against
from .scenario import GatewaySpec


@dataclass(slots=True)
class Gateway:
    """One gateway radio during a run: its spec, the run's capture model and its state."""

    spec: GatewaySpec
    capture: CaptureModel

    # runtime state
    tx_busy_until: SimTime = 0
    # uid -> (sf, rx power) of every lethal co-channel frame that overlapped
    # it, for each frame holding a demod path
    active: dict[int, list[tuple[int, float]]] = field(default_factory=dict)
    finished: dict[int, str] = field(default_factory=dict)  # early loss causes
    # uid -> (end_us, (sf, power)) per channel for every frame until its
    # close-out, held by a demod path or not: dropped frames still radiate.
    on_air: dict[int, dict[int, tuple[SimTime, tuple[int, float]]]] = field(
        default_factory=dict)

    def on_uplink_start(self, tx: Transmission, now: SimTime) -> None:
        """Register an arriving uplink.

        The frame joins the channel's interference set and is stamped onto
        every overlapping reception it can destroy, regardless of whether it
        wins a demodulation path itself.  A busy channel is scanned once:
        frames that ended by ``now`` but are not yet closed out take no part,
        each live reception is stamped with the newcomer if their SF pair is
        lethal, and the live frames that can destroy the newcomer, in arrival
        order, become its interferers.
        """
        uid = tx.uid
        channel = self.on_air.get(tx.freq_hz)
        if channel is None:
            channel = self.on_air[tx.freq_hz] = {}
        sf = tx.sf
        signal = (sf, tx.rx_power_dbm)
        interferers_seen = []
        active = self.active
        if channel:  # empty is the common case: nothing else on the air
            lethal = self.capture.lethal
            for other_uid, (end, other) in channel.items():
                if end <= now:
                    continue
                other_sf = other[0]
                if (other_sf, sf) in lethal:
                    heard = active.get(other_uid)
                    if heard is not None:
                        heard.append(signal)
                if (sf, other_sf) in lethal:
                    interferers_seen.append(other)
        channel[uid] = (tx.end_us, signal)

        if self.tx_busy_until > now:
            self.finished[uid] = CAUSE_TX_BUSY
        elif len(active) >= self.spec.demod_paths:
            self.finished[uid] = CAUSE_NO_DEMOD_PATH
        else:
            active[uid] = interferers_seen

    def on_uplink_end(self, tx: Transmission, now: SimTime, rng) -> str | None:
        """Close out an uplink; returns this gateway's loss cause, None if decoded."""
        uid = tx.uid
        del self.on_air[tx.freq_hz][uid]
        interferers = self.active.pop(uid, None)
        if interferers is None:
            return self.finished.pop(uid)  # lost before its end
        if interferers and not decodes_against(self.capture, tx.sf,
                                               tx.rx_power_dbm, interferers, rng):
            return CAUSE_COLLISION
        return None

    def start_downlink(self, now: SimTime, airtime_us: SimTime) -> int:
        """Begin transmitting: abort every active reception, mark the radio busy.

        While the radio transmits, no reception is active.  Returns the number
        of receptions preempted at this instant.
        """
        for uid in self.active:
            self.finished[uid] = CAUSE_GW_PREEMPTED
        preempted = len(self.active)
        self.active.clear()
        self.tx_busy_until = now + airtime_us
        return preempted
