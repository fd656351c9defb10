"""Tests for the bank-group structure."""

import pytest

from repro.dram.bankgroup import BankGroup
from repro.dram.commands import CommandKind


@pytest.fixture
def group(timing):
    return BankGroup(timing=timing, bank_group_id=0, num_banks=4)


def test_group_creates_banks_with_matching_ids(group):
    assert len(group.banks) == 4
    assert all(bank.bank_group == 0 for bank in group.banks)
    assert [bank.bank_id for bank in group.banks] == [0, 1, 2, 3]


def test_bus_reservation_blocks_for_tccdl(group, timing):
    assert group.bus_busy_until == 0
    group.note_cas(0)
    assert group.bus_busy_until == timing.tCCDL


def test_total_counter_sums_across_banks(group, timing):
    group.bank(0).issue(CommandKind.ACT, now=0, row=1)
    group.bank(1).issue(CommandKind.ACT, now=0, row=1)
    assert group.total_counter("activates") == 2


def test_mismatched_bank_list_rejected(timing):
    from repro.dram.bank import Bank

    with pytest.raises(ValueError):
        BankGroup(timing=timing, bank_group_id=0, num_banks=4,
                  banks=[Bank(timing=timing)])
