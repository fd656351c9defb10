"""Tests for pseudo-channel level (cross-bank) timing constraints: the
pseudo channel's terms of each command's ready instant."""

import pytest

from repro.dram.commands import Command, CommandKind
from repro.dram.pseudochannel import PseudoChannel


@pytest.fixture
def pc(timing):
    return PseudoChannel(timing=timing, num_bank_groups=4, banks_per_group=4)


def _act(bank_group=0, bank=0, row=0):
    return Command(kind=CommandKind.ACT, bank_group=bank_group, bank=bank, row=row)


def _rd(bank_group=0, bank=0, row=0, column=0):
    return Command(kind=CommandKind.RD, bank_group=bank_group, bank=bank,
                   row=row, column=column)


def _act_ready(pc, bank_group, bank=0):
    return pc.row_ready_ns(CommandKind.ACT, 0, bank_group, bank)


def _column_ready(pc, bank_group, is_read, bank=0):
    return pc.column_ready_ns(pc.bank_index(0, bank_group, bank), is_read)


def _ready(pc, bank_group=0, bank=0):
    """The bank's ready instants: ACT, PRE, REFpb, RD, WR."""
    return (pc.row_ready_ns(CommandKind.ACT, 0, bank_group, bank),
            pc.row_ready_ns(CommandKind.PRE, 0, bank_group, bank),
            pc.row_ready_ns(CommandKind.REFPB, 0, bank_group, bank),
            _column_ready(pc, bank_group, True, bank),
            _column_ready(pc, bank_group, False, bank))


def test_structure_counts(pc):
    assert pc.num_banks == 16
    assert len(pc.all_banks()) == 16


def test_a_closed_bank_takes_act_and_refpb_but_no_pre_or_column(pc):
    assert _ready(pc) == (0, None, 0, None, None)


def test_an_open_bank_takes_pre_and_columns_but_no_act_or_refpb(pc, timing):
    pc.issue(_act(row=5), now=0)
    # However late: an open bank takes neither another ACT nor a REFpb.
    assert _ready(pc) == (None, timing.tRAS, None, timing.tRCDRD,
                          timing.tRCDWR)


def test_refresh_waits_for_the_precharge_and_trc(pc, timing):
    pc.issue(_act(), now=0)
    pc.issue(Command(kind=CommandKind.PRE), now=timing.tRAS)
    assert _ready(pc)[2] == max(timing.tRAS + timing.tRP, timing.tRC)


def test_refresh_blocks_activation_and_the_next_refresh(pc, timing):
    pc.issue(Command(kind=CommandKind.REFPB), now=0)
    assert _ready(pc) == (timing.tRFCpb, None,
                          max(timing.tRFCpb, timing.tREFIpb), None, None)


def test_act_to_act_different_bank_group_spacing(pc, timing):
    pc.issue(_act(bank_group=0), now=0)
    assert _act_ready(pc, bank_group=1) == timing.tRRDS


def test_act_to_act_same_bank_group_uses_longer_spacing(pc, timing):
    pc.issue(_act(bank_group=0, bank=0), now=0)
    assert _act_ready(pc, bank_group=0, bank=1) == timing.tRRDL


def test_tfaw_limits_fifth_activate(pc, timing):
    times = [0, timing.tRRDS, 2 * timing.tRRDS, 3 * timing.tRRDS]
    for i, t in enumerate(times):
        pc.issue(_act(bank_group=i, bank=0), now=t)
    assert times[-1] + timing.tRRDL < timing.tFAW
    assert _act_ready(pc, bank_group=0, bank=1) == timing.tFAW


def test_cas_spacing_same_vs_different_bank_group(pc, timing):
    pc.issue(_act(bank_group=0), now=0)
    pc.issue(_act(bank_group=1), now=timing.tRRDS)
    first_rd = timing.tRCDRD + timing.tRRDS
    pc.issue(_rd(bank_group=0), now=first_rd)
    assert _column_ready(pc, 0, True) == first_rd + timing.tCCDL
    assert _column_ready(pc, 1, True) == first_rd + timing.tCCDS


def test_write_to_read_turnaround(pc, timing):
    pc.issue(_act(bank_group=0), now=0)
    pc.issue(_act(bank_group=1), now=timing.tRRDS)
    wr_time = timing.tRCDWR + timing.tRRDS
    pc.issue(Command(kind=CommandKind.WR, bank_group=0, row=0, column=0), now=wr_time)
    write_data_end = wr_time + timing.tCWL + timing.burst_ns
    assert _column_ready(pc, 1, True) == \
        write_data_end + timing.tWTRS


def test_read_to_write_turnaround(pc, timing):
    pc.issue(_act(bank_group=0), now=0)
    pc.issue(_act(bank_group=1), now=timing.tRRDS)
    rd_time = timing.tRCDRD + timing.tRRDS
    pc.issue(_rd(bank_group=0), now=rd_time)
    assert _column_ready(pc, 1, False) == rd_time + timing.tRTW


def test_a_column_to_another_row_never_issues(pc, timing):
    """The ready instant is the open row's; a RD to another row of the
    bank is ruled out by the row state, however late."""
    pc.issue(_act(bank_group=0, row=1), now=0)
    late = 10 * timing.tRC
    assert _column_ready(pc, 0, True) == timing.tRCDRD
    assert pc.can_issue(_rd(row=1), now=late)
    assert not pc.can_issue(_rd(row=2), now=late)
    with pytest.raises(RuntimeError, match="cannot issue"):
        pc.issue(_rd(row=2), now=late)


def test_illegal_issue_raises(pc):
    with pytest.raises(RuntimeError, match="cannot issue"):
        pc.issue(_rd(), now=0)


def test_counters_track_bytes_and_commands(pc, timing):
    pc.issue(_act(bank_group=0), now=0)
    rd_time = timing.tRCDRD
    pc.issue(_rd(bank_group=0, column=0), now=rd_time)
    pc.issue(_rd(bank_group=0, column=1), now=rd_time + timing.tCCDL)
    assert pc.counters.count(CommandKind.ACT) == 1
    assert pc.counters.count(CommandKind.RD) == 2
    assert pc.counters.bytes_read == 2 * timing.access_granularity_bytes
    assert pc.counters.data_bus_busy_ns == 2 * timing.burst_ns


@pytest.mark.parametrize("kind", [CommandKind.PREA, CommandKind.REFAB,
                                  CommandKind.MRS])
def test_commands_no_controller_issues_raise(pc, kind):
    # Neither controller issues precharge-all, all-bank refresh or a mode
    # register write, so the device models none of them.
    with pytest.raises(ValueError):
        pc.can_issue(Command(kind=kind), now=0)
    with pytest.raises(ValueError):
        pc.issue(Command(kind=kind), now=100)
    assert pc.command_counts() == {}


def test_data_bus_utilization_bounds(pc, timing):
    pc.issue(_act(bank_group=0), now=0)
    pc.issue(_rd(bank_group=0), now=timing.tRCDRD)
    assert 0.0 < pc.data_bus_utilization(100) <= 1.0
    assert pc.data_bus_utilization(0) == 0.0
