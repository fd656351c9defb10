"""Tests for the bank-group structure."""

import pytest

from repro.dram.bankgroup import BankGroup
from repro.dram.commands import Command, CommandKind
from repro.dram.pseudochannel import PseudoChannel


@pytest.fixture
def group(timing):
    return BankGroup(timing=timing, bank_group_id=0, num_banks=4)


def test_group_creates_banks_with_matching_ids(group):
    assert len(group.banks) == 4
    assert all(bank.bank_group == 0 for bank in group.banks)
    assert [bank.bank_id for bank in group.banks] == [0, 1, 2, 3]


def test_bus_reservation_blocks_for_tccdl(timing):
    """A column occupies its bank group's BK-BUS for one tCCDL beat (the
    pseudo channel's column issue reserves it)."""
    pc = PseudoChannel(timing=timing, num_bank_groups=1, banks_per_group=1)
    group = pc.stacks[0][0]
    assert group.bus_busy_until == 0
    pc.issue(Command(kind=CommandKind.ACT, row=0), now=0)
    pc.issue(Command(kind=CommandKind.RD, row=0), now=timing.tRCDRD)
    assert group.bus_busy_until == timing.tRCDRD + timing.tCCDL


def test_total_counter_sums_across_banks(group, timing):
    group.bank(0).apply(CommandKind.ACT, now=0, row=1)
    group.bank(1).apply(CommandKind.ACT, now=0, row=1)
    assert group.total_counter("activates") == 2


def test_mismatched_bank_list_rejected(timing):
    from repro.dram.bank import Bank

    with pytest.raises(ValueError):
        BankGroup(timing=timing, bank_group_id=0, num_banks=4,
                  banks=[Bank(timing=timing)])
