"""Tests for pseudo-channel level (cross-bank) timing constraints."""

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


def test_structure_counts(pc):
    assert pc.num_banks == 16
    assert len(pc.all_banks()) == 16


def test_act_to_act_different_bank_group_spacing(pc, timing):
    pc.issue(_act(bank_group=0), now=0)
    cmd = _act(bank_group=1)
    assert not pc.can_issue(cmd, now=timing.tRRDS - 1)
    assert pc.can_issue(cmd, now=timing.tRRDS)


def test_act_to_act_same_bank_group_uses_longer_spacing(pc, timing):
    pc.issue(_act(bank_group=0, bank=0), now=0)
    cmd = _act(bank_group=0, bank=1)
    assert not pc.can_issue(cmd, now=timing.tRRDL - 1)
    assert pc.can_issue(cmd, now=timing.tRRDL)


def test_tfaw_limits_fifth_activate(pc, timing):
    times = [0, timing.tRRDS, 2 * timing.tRRDS, 3 * timing.tRRDS]
    for i, t in enumerate(times):
        pc.issue(_act(bank_group=i, bank=0), now=t)
    fifth = _act(bank_group=0, bank=1)
    assert not pc.can_issue(fifth, now=times[-1] + timing.tRRDL)
    assert pc.can_issue(fifth, now=timing.tFAW)


def test_cas_spacing_same_vs_different_bank_group(pc, timing):
    pc.issue(_act(bank_group=0), now=0)
    pc.issue(_act(bank_group=1), now=timing.tRRDS)
    first_rd = timing.tRCDRD + timing.tRRDS
    pc.issue(_rd(bank_group=0), now=first_rd)
    same_bg = _rd(bank_group=0, column=1)
    diff_bg = _rd(bank_group=1, column=0)
    assert not pc.can_issue(same_bg, now=first_rd + timing.tCCDS)
    assert pc.can_issue(diff_bg, now=first_rd + timing.tCCDS)
    assert pc.can_issue(same_bg, now=first_rd + timing.tCCDL)


def test_write_to_read_turnaround(pc, timing):
    pc.issue(_act(bank_group=0), now=0)
    pc.issue(_act(bank_group=1), now=timing.tRRDS)
    wr_time = timing.tRCDWR + timing.tRRDS
    pc.issue(Command(kind=CommandKind.WR, bank_group=0, row=0, column=0), now=wr_time)
    rd = _rd(bank_group=1)
    write_data_end = wr_time + timing.tCWL + timing.burst_ns
    assert not pc.can_issue(rd, now=write_data_end + timing.tWTRS - 1)
    assert pc.can_issue(rd, now=write_data_end + timing.tWTRS)


def test_read_to_write_turnaround(pc, timing):
    pc.issue(_act(bank_group=0), now=0)
    pc.issue(_act(bank_group=1), now=timing.tRRDS)
    rd_time = timing.tRCDRD + timing.tRRDS
    pc.issue(_rd(bank_group=0), now=rd_time)
    wr = Command(kind=CommandKind.WR, bank_group=1, row=0, column=0)
    assert not pc.can_issue(wr, now=rd_time + timing.tRTW - 1)
    assert pc.can_issue(wr, now=rd_time + timing.tRTW)


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
