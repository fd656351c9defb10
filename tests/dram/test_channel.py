"""Tests for the channel-level C/A sharing and aggregation."""

from dataclasses import asdict

import pytest

from repro.dram.channel import Channel, ChannelConfig
from repro.dram.commands import Command, CommandKind


@pytest.fixture
def channel(timing):
    return Channel(ChannelConfig(timing=timing, num_stack_ids=1))


def test_channel_structure(channel):
    assert len(channel.pseudo_channels) == 2
    assert channel.config.banks_per_channel == 32
    assert channel.config.peak_bandwidth_bytes_per_ns == 64


def test_ca_bus_allows_one_row_command_per_pc_per_ns(channel):
    act0 = Command(kind=CommandKind.ACT, pseudo_channel=0, bank_group=0, row=0)
    act1 = Command(kind=CommandKind.ACT, pseudo_channel=0, bank_group=1, row=0)
    channel.issue(act0, now=0)
    assert not channel.can_issue(act1, now=0)          # same PC, same ns
    act_other_pc = Command(kind=CommandKind.ACT, pseudo_channel=1, bank_group=0, row=0)
    assert channel.can_issue(act_other_pc, now=0)       # other PC is free


def test_row_and_column_buses_are_independent(channel, timing):
    act = Command(kind=CommandKind.ACT, pseudo_channel=0, bank_group=0, row=0)
    channel.issue(act, now=0)
    rd = Command(kind=CommandKind.RD, pseudo_channel=0, bank_group=0, row=0, column=0)
    act2 = Command(kind=CommandKind.ACT, pseudo_channel=0, bank_group=1, row=0)
    when = timing.tRCDRD
    # Both a column command and a row command can go out in the same ns.
    assert channel.can_issue(rd, now=when)
    channel.issue(rd, now=when)
    assert channel.can_issue(act2, now=when)
    channel.issue(act2, now=when)


def test_issue_on_busy_ca_raises(channel):
    act0 = Command(kind=CommandKind.ACT, pseudo_channel=0, bank_group=0, row=0)
    act1 = Command(kind=CommandKind.ACT, pseudo_channel=0, bank_group=1, row=0)
    channel.issue(act0, now=0)
    with pytest.raises(RuntimeError, match="C/A bus busy"):
        channel.issue(act1, now=0)


def test_command_counts_aggregate_across_pcs(channel, timing):
    for pc in range(2):
        channel.issue(
            Command(kind=CommandKind.ACT, pseudo_channel=pc, bank_group=0, row=0),
            now=0,
        )
        channel.issue(
            Command(kind=CommandKind.RD, pseudo_channel=pc, bank_group=0, row=0, column=0),
            now=timing.tRCDRD,
        )
    counts = channel.command_counts()
    assert counts["ACT"] == 2
    assert counts["RD"] == 2
    assert channel.bytes_transferred() == 2 * timing.access_granularity_bytes
    assert channel.total_activates() == 2


def test_data_bus_utilization_averages_pcs(channel, timing):
    channel.issue(
        Command(kind=CommandKind.ACT, pseudo_channel=0, bank_group=0, row=0), now=0
    )
    channel.issue(
        Command(kind=CommandKind.RD, pseudo_channel=0, bank_group=0, row=0, column=0),
        now=timing.tRCDRD,
    )
    utilization = channel.data_bus_utilization(elapsed_ns=timing.tRCDRD + 2)
    assert 0.0 < utilization < 1.0


# ------------------------------------------------- int-addressed column issue

def _state(channel):
    """Everything a command can change."""
    return (
        channel.command_counts(),
        [asdict(group) for pc in channel.pseudo_channels
         for stack in pc.stacks for group in stack],
        [pc.cas_state_snapshot() for pc in channel.pseudo_channels],
        [asdict(pc.counters) for pc in channel.pseudo_channels],
        [(channel.last_column_ca_time(pc), channel.last_row_ca_time(pc))
         for pc in range(len(channel.pseudo_channels))],
    )


def _open_two_banks(channel, timing):
    """Row 5 open in bank 0 of bank groups 0 and 1 of PC 0; returns the
    first instant both take a RD."""
    for bank_group, now in ((0, 0), (1, timing.tRRDS)):
        channel.issue(Command(kind=CommandKind.ACT, pseudo_channel=0,
                              bank_group=bank_group, row=5), now=now)
    return timing.tRRDS + timing.tRCDRD


@pytest.mark.parametrize("case", ["closed", "other-row", "busy-ca", "tccdl"])
def test_issue_column_rejects_before_changing_state(channel, timing, case):
    ready = _open_two_banks(channel, timing)
    # (pc, kind, sid, bank group, bank, row, now) of the rejected RD.
    rejected = {
        "closed": (0, CommandKind.RD, 0, 2, 0, 5, ready),
        "other-row": (0, CommandKind.RD, 0, 0, 0, 6, ready),
        "busy-ca": (0, CommandKind.RD, 0, 1, 0, 5, ready),
        "tccdl": (0, CommandKind.RD, 0, 0, 0, 5, ready + timing.tCCDS),
    }[case]
    if case in ("busy-ca", "tccdl"):
        channel.issue_column(0, CommandKind.RD, 0, 0, 0, 5, ready)
    assert timing.tCCDS < timing.tCCDL
    now = rejected[-1]
    assert not channel.can_issue_column(*rejected[:1], *rejected[2:6],
                                        True, now)
    before = _state(channel)
    with pytest.raises(RuntimeError):
        channel.issue_column(*rejected)
    assert _state(channel) == before


@pytest.mark.parametrize("kind", [CommandKind.RD, CommandKind.WR])
def test_issue_column_equals_issue_of_the_same_command(timing, kind):
    by_command = Channel(ChannelConfig(timing=timing, num_stack_ids=1))
    by_ints = Channel(ChannelConfig(timing=timing, num_stack_ids=1))
    ready = _open_two_banks(by_command, timing)
    _open_two_banks(by_ints, timing)
    by_command.issue(Command(kind=kind, pseudo_channel=0, bank_group=1,
                             row=5, column=3), now=ready)
    by_ints.issue_column(0, kind, 0, 1, 0, 5, ready)
    assert by_ints.command_counts() == by_command.command_counts()
    assert _state(by_ints) == _state(by_command)


@pytest.mark.parametrize("kind", [CommandKind.RDA, CommandKind.WRA])
def test_issue_column_rejects_an_auto_precharging_cas(channel, timing, kind):
    """RDA/WRA are not modeled: the channel raises ``ValueError`` naming
    the kind before any state changes, also when a RD/WR would issue."""
    ready = _open_two_banks(channel, timing) + timing.tRCDWR
    assert channel.can_issue_column(0, 0, 0, 0, 5, kind.is_read, ready)
    before = _state(channel)
    with pytest.raises(ValueError, match=kind.value):
        channel.issue_column(0, kind, 0, 0, 0, 5, ready)
    assert _state(channel) == before
