"""Network server: the conflict-free assignment rule and control-downlink payloads.

For every decoded periodic report the server schedules one control downlink
(through the cluster's designated gateway) confirming the sender's urgent
(channel, SF) assignment for the first receive window, falling back to the
second.  Automatic assignments are chosen so no two cluster members share a
(channel, SF) pair, which keeps synchronized urgent bursts collision-free;
``scenario.urgent_resources`` resolves the table the server holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import DcpCommand

SF_SINGLE = 7            # sole occupant of a channel
SF_STACKED = (8, 9, 10)  # co-channel occupants, kept mutually distinct
MAX_PER_CHANNEL = len(SF_STACKED)


def assign_resources(members: tuple[str, ...] | list[str],
                     up_channels: tuple[int, ...] | list[int]) -> dict[str, tuple[int, int]]:
    """Deterministic conflict-free (channel, SF) map for a cluster.

    Members are spread channel-first (member i gets channel i mod C).  A
    channel with a single occupant uses SF7; stacked occupants use SF8, SF9,
    SF10 in member order, so co-channel members always differ in SF and every
    SF stays within the urgent latency budget.  Capacity is 3 per channel.
    """
    channels = tuple(up_channels)
    if not channels:
        raise ValueError("no urgent-uplink channels to assign from")
    capacity = MAX_PER_CHANNEL * len(channels)
    if len(members) > capacity:
        raise ValueError(
            f"cluster of {len(members)} exceeds capacity {capacity} "
            f"({len(channels)} channels x 3 SFs)")
    if len(set(members)) != len(members):
        raise ValueError("duplicate member ids")
    occupants: dict[int, list[str]] = {ch: [] for ch in channels}
    for i, member in enumerate(members):
        occupants[channels[i % len(channels)]].append(member)
    table: dict[str, tuple[int, int]] = {}
    for ch, names in occupants.items():
        if len(names) == 1:
            table[names[0]] = (ch, SF_SINGLE)
        else:
            for name, sf in zip(names, SF_STACKED):
                table[name] = (ch, sf)
    return {m: table[m] for m in members}


@dataclass
class NetworkServer:
    """Backhaul-side state: the urgent assignment table the control downlinks confirm.

    The table is fixed once the server is built, so each device's control
    payload is built once with it and shared by every downlink.
    """

    assignments: dict[str, tuple[int, int]]
    _commands: dict[str, DcpCommand] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._commands = {device: DcpCommand(device, freq_hz, sf)
                          for device, (freq_hz, sf) in self.assignments.items()}

    def dcp_for(self, device: str) -> DcpCommand:
        """Control payload confirming the device's assignment."""
        return self._commands[device]
