"""Tests for the channel-level C/A sharing, aggregation and ready
instants."""

import copy
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.channel import Channel, ChannelConfig
from repro.dram.commands import Command, CommandKind
from repro.dram.timing import TimingParameters


@pytest.fixture
def channel(timing):
    return Channel(ChannelConfig(timing=timing, num_stack_ids=1))


def test_channel_structure(channel):
    assert len(channel.pseudo_channels) == 2
    assert channel.config.banks_per_channel == 32
    assert channel.config.peak_bandwidth_bytes_per_ns == 64


def test_ca_bus_allows_one_row_command_per_pc_per_ns(channel, timing):
    act0 = Command(kind=CommandKind.ACT, pseudo_channel=0, bank_group=0, row=0)
    channel.issue(act0, now=0)
    # Same PC: the next row slot is the next ns (and tRRDS later for an
    # ACT); a PRE of the open bank waits only for its own tRAS.
    assert channel.row_ready_ns(CommandKind.ACT, 0, 0, 1, 0) == timing.tRRDS
    assert channel.row_ready_ns(CommandKind.REFPB, 0, 0, 1, 0) == 1
    assert channel.row_ready_ns(CommandKind.PRE, 0, 0, 0, 0) == timing.tRAS
    # The other PC is free.
    assert channel.row_ready_ns(CommandKind.ACT, 1, 0, 0, 0) == 0


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


def test_issue_on_busy_ca_raises(channel, timing):
    act0 = Command(kind=CommandKind.ACT, pseudo_channel=0, bank_group=0, row=0)
    act1 = Command(kind=CommandKind.ACT, pseudo_channel=0, bank_group=1, row=0)
    channel.issue(act0, now=0)
    with pytest.raises(RuntimeError, match="C/A bus busy"):
        channel.issue(act1, now=0)
    # The column slot: a second column to the pseudo channel in one ns
    # raises at the channel, before the pseudo channel is asked.
    channel.issue(act1, now=timing.tRRDS)
    now = timing.tRRDS + timing.tCCDS + timing.tRCDRD
    first, second = (channel.bank_index(0, 0, bank_group, 0)
                     for bank_group in (0, 1))
    channel.issue_column(first, CommandKind.RD, 0, now)
    assert channel.pseudo_channels[0].column_ready_ns(second, True) \
        == now + timing.tCCDS
    before = _state(channel)
    with pytest.raises(RuntimeError, match="column C/A bus busy"):
        channel.issue_column(second, CommandKind.RD, 0, now)
    assert _state(channel) == before


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
        [(pc.last_cas_time, pc.last_cas_bank_group, pc.last_cas_stack,
          pc.last_cas_was_read, pc.last_write_data_end,
          pc.data_bus_busy_until, pc.last_act_time, pc.last_act_bank_group,
          tuple(pc.act_window))
         for pc in channel.pseudo_channels],
        [asdict(pc.counters) for pc in channel.pseudo_channels],
        (tuple(channel.last_column_ca), tuple(channel.last_row_ca)),
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
        channel.issue_column(channel.bank_index(0, 0, 0, 0), CommandKind.RD,
                             5, ready)
    assert timing.tCCDS < timing.tCCDL
    pc, kind, sid, bank_group, bank, row, now = rejected
    assert not channel.can_issue(
        Command(kind=kind, pseudo_channel=pc, stack_id=sid,
                bank_group=bank_group, bank=bank, row=row), now)
    index = channel.bank_index(pc, sid, bank_group, bank)
    ready_ns = channel.column_ready_ns(index, True)
    if case == "closed":
        assert ready_ns is None
    elif case == "other-row":
        assert ready_ns <= now  # ruled out by the row, not by time
    else:
        assert ready_ns > now
    before = _state(channel)
    with pytest.raises(RuntimeError):
        channel.issue_column(index, kind, row, now)
    assert _state(channel) == before


@pytest.mark.parametrize("kind", [CommandKind.RD, CommandKind.WR])
def test_issue_column_equals_issue_of_the_same_command(timing, kind):
    by_command = Channel(ChannelConfig(timing=timing, num_stack_ids=1))
    by_ints = Channel(ChannelConfig(timing=timing, num_stack_ids=1))
    ready = _open_two_banks(by_command, timing)
    _open_two_banks(by_ints, timing)
    by_command.issue(Command(kind=kind, pseudo_channel=0, bank_group=1,
                             row=5, column=3), now=ready)
    by_ints.issue_column(by_ints.bank_index(0, 0, 1, 0), kind, 5, ready)
    assert by_ints.command_counts() == by_command.command_counts()
    assert _state(by_ints) == _state(by_command)


@pytest.mark.parametrize("kind", [CommandKind.RDA, CommandKind.WRA])
def test_issue_column_rejects_an_auto_precharging_cas(channel, timing, kind):
    """RDA/WRA are not modeled: the channel raises ``ValueError`` naming
    the kind before any state changes, also when a RD/WR would issue."""
    ready = _open_two_banks(channel, timing) + timing.tRCDWR
    index = channel.bank_index(0, 0, 0, 0)
    assert channel.column_ready_ns(index, kind.is_read) <= ready
    before = _state(channel)
    with pytest.raises(ValueError, match=kind.value):
        channel.issue_column(index, kind, 5, ready)
    assert _state(channel) == before


@pytest.mark.parametrize("kind", [CommandKind.PREA, CommandKind.REFAB,
                                  CommandKind.MRS, CommandKind.RDA,
                                  CommandKind.WRA])
def test_commands_no_controller_issues_raise(channel, timing, kind):
    """PREA, REFab, MRS and the auto-precharging CASes are not modeled:
    asking for their readiness or issuing them raises ``ValueError``
    before any state changes."""
    ready = _open_two_banks(channel, timing) + timing.tRCDWR
    command = Command(kind=kind, pseudo_channel=0, row=5)
    before = _state(channel)
    with pytest.raises(ValueError):
        channel.can_issue(command, ready)
    with pytest.raises(ValueError):
        channel.issue(command, ready)
    if not kind.is_column:
        with pytest.raises(ValueError):
            channel.row_ready_ns(kind, 0, 0, 0, 0)
    assert _state(channel) == before


# --------------------------------------------- ready instants as validation

_KINDS = (CommandKind.RD, CommandKind.WR, CommandKind.ACT, CommandKind.PRE,
          CommandKind.REFPB)

#: A command to a bank of a two-PC, two-stack, 2x2-bank channel: (kind, pc,
#: stack ID, bank group, bank, row).
_commands = st.tuples(st.sampled_from(_KINDS), st.integers(0, 1),
                      st.integers(0, 1), st.integers(0, 1),
                      st.integers(0, 1), st.integers(0, 2))


def _ready_ns(channel, kind, pc, sid, bank_group, bank):
    if kind.is_column:
        return channel.column_ready_ns(
            channel.bank_index(pc, sid, bank_group, bank), kind.is_read)
    return channel.row_ready_ns(kind, pc, sid, bank_group, bank)


#: A legal device history: commands with the delay past each one's ready
#: instant at which it issues (one that is ruled out is skipped).
_histories = st.lists(st.tuples(_commands, st.integers(0, 40)), max_size=40)


def _replay(history, check=None):
    """A two-PC, two-stack, 2x2-bank channel after issuing ``history``
    (:data:`_histories`), calling ``check(channel)`` after each issue;
    returns it and the last issue instant."""
    channel = Channel(ChannelConfig(timing=TimingParameters(),
                                    num_bank_groups=2, banks_per_group=2,
                                    num_stack_ids=2))
    now = 0
    for (kind, pc, sid, bank_group, bank, row), delay in history:
        ready = _ready_ns(channel, kind, pc, sid, bank_group, bank)
        if ready is None:
            continue
        if kind.is_column:
            row = channel.pseudo_channels[pc].bank(bank_group, bank,
                                                   sid).open_row
        now = max(now, ready) + delay
        channel.issue(Command(kind=kind, pseudo_channel=pc, stack_id=sid,
                              bank_group=bank_group, bank=bank, row=row),
                      now)
        if check is not None:
            check(channel)
    return channel, now


@settings(max_examples=150, deadline=None)
@given(history=_histories,
       probes=st.lists(_commands, min_size=1, max_size=8))
def test_the_ready_instant_is_the_first_instant_validation_admits(history,
                                                                  probes):
    """After any legal device history, for every RD/WR/ACT/PRE/REFpb:
    the ready instant is ``None`` exactly when the bank's row state rules
    the command out; otherwise ``can_issue`` is false one ns before it and
    true at it, and ``issue`` raises before it, changing nothing, and
    issues at it.  A RD or WR to a row that is not open never issues."""
    channel, now = _replay(history)
    for kind, pc, sid, bank_group, bank, row in probes:
        open_row = channel.pseudo_channels[pc].bank(bank_group, bank,
                                                    sid).open_row
        ready = _ready_ns(channel, kind, pc, sid, bank_group, bank)
        needs_open = kind.is_column or kind is CommandKind.PRE
        assert (ready is None) == ((open_row is None) == needs_open)
        command = Command(kind=kind, pseudo_channel=pc, stack_id=sid,
                          bank_group=bank_group, bank=bank, row=row)
        before = _state(channel)
        if ready is None or kind.is_column and row != open_row:
            late = now + 10 ** 6
            assert not channel.can_issue(command, late)
            with pytest.raises(RuntimeError):
                channel.issue(command, late)
            assert _state(channel) == before
            continue
        assert not channel.can_issue(command, ready - 1)
        assert channel.can_issue(command, ready)
        with pytest.raises(RuntimeError):
            channel.issue(command, ready - 1)
        assert _state(channel) == before
        copy.deepcopy(channel).issue(command, ready)


def _column_slot_never_binds_past_the_last_column(channel):
    for index, pc in enumerate(channel.bank_pcs):
        after = channel.last_column_ca[pc] + 1
        for is_read in (True, False):
            by_channel = channel.column_ready_ns(index, is_read)
            by_pc = channel.pseudo_channels[pc].column_ready_ns(index,
                                                                is_read)
            assert (by_channel is None) == (by_pc is None)
            if by_pc is None:
                continue
            for t in {after, by_pc - 1, by_pc, by_channel - 1, by_channel}:
                if t >= after:
                    assert (t >= by_channel) == (t >= by_pc)


@settings(max_examples=150, deadline=None)
@given(history=_histories)
def test_past_the_last_column_the_pseudo_channel_rule_decides(history):
    """After every issue of any legal device history, for every bank and
    direction, and for a pseudo channel whose last column went out before
    ``t``: ``t`` reaches the channel's column ready instant exactly when
    it reaches the pseudo channel's (both ``None`` for a closed bank).
    The column C/A slot binds only at the instant of the last column, so
    a scheduler that takes one column per pseudo channel and instant may
    ask the pseudo channel directly."""
    _replay(history, check=_column_slot_never_binds_past_the_last_column)
