"""Network server: resource assignment and downlink control.

For every decoded periodic report the server schedules one control downlink
(through the cluster's designated gateway) confirming the sender's urgent
(channel, SF) assignment for the first receive window, falling back to the
second.  Assignments are chosen so no two cluster members share a (channel,
SF) pair, which keeps synchronized urgent bursts collision-free.
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
class Cluster:
    """A co-located group of devices served by one control gateway."""

    id: str
    members: tuple[str, ...]
    dcp_gateway: str
    up_channels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"cluster {self.id} has no members")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"cluster {self.id} lists a member twice")


@dataclass
class NetworkServer:
    """Backhaul-side state: clusters and the assignment table."""

    clusters: dict[str, Cluster] = field(default_factory=dict)
    assignments: dict[str, tuple[int, int]] = field(default_factory=dict)
    _cluster_of: dict[str, str] = field(default_factory=dict)
    _commands: dict[str, DcpCommand] = field(default_factory=dict)

    def add_cluster(self, cluster: Cluster,
                    explicit: dict[str, tuple[int, int]] | None = None) -> None:
        """Register a cluster, auto-assigning members not explicitly placed."""
        self.clusters[cluster.id] = cluster
        for member in cluster.members:
            self._cluster_of[member] = cluster.id
        if explicit:
            unknown = set(explicit) - set(cluster.members)
            if unknown:
                raise ValueError(f"assignments for non-members: {sorted(unknown)}")
            self.assignments.update(explicit)
        missing = [m for m in cluster.members if m not in self.assignments]
        if missing:
            auto = assign_resources(cluster.members, cluster.up_channels)
            for member in missing:
                self.assignments[member] = auto[member]

    def cluster_of(self, device: str) -> Cluster:
        return self.clusters[self._cluster_of[device]]

    def dcp_for(self, device: str) -> DcpCommand:
        """Control payload confirming the device's current assignment.

        Commands are immutable, so one is shared per device until the
        assignment changes.
        """
        freq_hz, sf = self.assignments[device]
        command = self._commands.get(device)
        if command is None or command.up_freq_hz != freq_hz or command.up_sf != sf:
            command = self._commands[device] = DcpCommand(target=device, up_freq_hz=freq_hz,
                                                          up_sf=sf)
        return command
