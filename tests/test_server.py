"""The conflict-free urgent (channel, SF) assignment rule and the control payloads."""

import collections

import pytest
from hypothesis import given, strategies as st

from loraguard.server import (
    MAX_PER_CHANNEL,
    SF_SINGLE,
    SF_STACKED,
    NetworkServer,
    assign_resources,
)

CHANNELS = (867_100_000, 867_300_000, 867_500_000, 867_700_000, 867_900_000)


def members(n):
    return tuple(f"ed{i:02d}" for i in range(1, n + 1))


class TestAssignResources:
    def test_five_singles_spread_over_five_channels_at_sf7(self):
        table = assign_resources(members(5), CHANNELS)
        assert [table[m] for m in members(5)] == [(ch, SF_SINGLE) for ch in CHANNELS]

    def test_single_member_gets_the_first_channel(self):
        assert assign_resources(("solo",), CHANNELS) == {"solo": (CHANNELS[0], 7)}

    def test_six_members_stack_the_first_channel(self):
        table = assign_resources(members(6), CHANNELS)
        # ed01 and ed06 share channel 0 and move to the stacked SFs.
        assert table["ed01"] == (CHANNELS[0], 8)
        assert table["ed06"] == (CHANNELS[0], 9)
        for m, ch in zip(members(5)[1:], CHANNELS[1:]):
            assert table[m] == (ch, SF_SINGLE)

    def test_fifteen_members_fill_every_channel_with_distinct_sfs(self):
        table = assign_resources(members(15), CHANNELS)
        by_channel = collections.defaultdict(list)
        for m in members(15):
            ch, sf = table[m]
            by_channel[ch].append(sf)
        assert set(by_channel) == set(CHANNELS)
        for sfs in by_channel.values():
            assert sfs == list(SF_STACKED)

    def test_sixteen_members_exceed_capacity(self):
        with pytest.raises(ValueError, match="exceeds capacity"):
            assign_resources(members(16), CHANNELS)

    def test_duplicates_and_empty_channel_lists_rejected(self):
        with pytest.raises(ValueError):
            assign_resources(("a", "a"), CHANNELS)
        with pytest.raises(ValueError):
            assign_resources(("a",), ())

    def test_deterministic_and_insertion_ordered(self):
        a = assign_resources(members(9), CHANNELS)
        b = assign_resources(members(9), CHANNELS)
        assert a == b
        assert list(a) == list(members(9))

    @given(n=st.integers(1, 15))
    def test_assignment_invariants(self, n):
        table = assign_resources(members(n), CHANNELS)
        assert set(table) == set(members(n))
        pairs = list(table.values())
        # No two members share a (channel, SF) pair.
        assert len(set(pairs)) == len(pairs)
        by_channel = collections.defaultdict(list)
        for ch, sf in pairs:
            assert ch in CHANNELS
            by_channel[ch].append(sf)
        for sfs in by_channel.values():
            assert len(sfs) <= MAX_PER_CHANNEL
            if len(sfs) == 1:
                assert sfs == [SF_SINGLE]
            else:
                assert sfs == list(SF_STACKED)[:len(sfs)]


class TestNetworkServer:
    def test_cluster_lookup_and_control_payload(self):
        server = NetworkServer(assign_resources(members(6), CHANNELS))
        cmd = server.dcp_for("ed01")
        assert cmd.target == "ed01"
        assert (cmd.up_freq_hz, cmd.up_sf) == server.assignments["ed01"]

    def test_one_control_payload_per_device_is_reused_on_every_call(self):
        server = NetworkServer(assign_resources(members(6), CHANNELS))
        first = {dev: server.dcp_for(dev) for dev in members(6)}
        for dev in members(6):
            assert server.dcp_for(dev) is first[dev]
            assert first[dev].target == dev
            assert (first[dev].up_freq_hz, first[dev].up_sf) == server.assignments[dev]
