"""Tests for the single bank: its open row and the timing windows each
issued command moves (the bank's terms of the ready instants, which
``tests/dram/test_pseudochannel.py`` checks as a whole)."""

import pytest

from repro.dram.bank import Bank
from repro.dram.commands import Command, CommandKind
from repro.dram.pseudochannel import PseudoChannel


@pytest.fixture
def bank(timing):
    return Bank(timing=timing)


def _windows(bank):
    """The open row and the ACT, PRE, RD, WR and REFpb windows."""
    return (bank.open_row, bank.next_act, bank.next_pre, bank.next_read,
            bank.next_write, bank.next_refresh)


def test_a_new_bank_is_closed_and_every_window_is_open(bank):
    assert _windows(bank) == (None, 0, 0, 0, 0, 0)


def test_activate_opens_row_and_sets_trcd_tras_and_trc(bank, timing):
    bank.apply(CommandKind.ACT, now=0, row=5)
    assert _windows(bank) == (5, timing.tRC, timing.tRAS, timing.tRCDRD,
                              timing.tRCDWR, 0)


def test_activate_to_activate_respects_trc(bank, timing):
    bank.apply(CommandKind.ACT, now=0, row=1)
    bank.apply(CommandKind.PRE, now=timing.tRAS)
    # Even after the precharge completes, ACT-to-ACT must wait for tRC.
    assert timing.tRAS + timing.tRP <= timing.tRC
    assert bank.next_act == timing.tRC


def _column(timing, kind, now):
    """A one-bank pseudo channel after an ACT of row 1 at 0 and a ``kind``
    column at ``now``: the column's effects on a bank are applied by the
    pseudo channel's column issue.  Returns the bank."""
    pc = PseudoChannel(timing=timing, num_bank_groups=1, banks_per_group=1)
    pc.issue(Command(kind=CommandKind.ACT, row=1), now=0)
    pc.issue(Command(kind=kind, row=1), now=now)
    return pc.bank(0, 0)


def test_read_pushes_out_precharge_by_trtp(timing):
    read_time = timing.tRAS  # late read
    bank = _column(timing, CommandKind.RD, read_time)
    assert bank.next_pre == read_time + timing.tRTP


def test_write_recovery_delays_precharge(timing):
    write_time = timing.tRCDWR
    bank = _column(timing, CommandKind.WR, write_time)
    assert bank.next_pre == \
        write_time + timing.tCWL + timing.burst_ns + timing.tWR


def test_precharge_closes_row_and_blocks_act_until_trp(bank, timing):
    """ACT waits out the precharge (tRP) even once tRC has passed."""
    bank.apply(CommandKind.ACT, now=0, row=1)
    pre_at = timing.tRC
    bank.apply(CommandKind.PRE, now=pre_at)
    assert bank.open_row is None
    assert bank.next_act == pre_at + timing.tRP


def test_refresh_blocks_activation_for_trfcpb_and_refresh_for_trefipb(
        bank, timing):
    bank.apply(CommandKind.REFPB, now=0)
    assert _windows(bank) == (None, timing.tRFCpb, 0, 0, 0, timing.tREFIpb)


@pytest.mark.parametrize("kind", [CommandKind.RDA, CommandKind.WRA,
                                  CommandKind.PREA, CommandKind.REFAB,
                                  CommandKind.MRS])
def test_commands_no_controller_issues_are_rejected(bank, timing, kind):
    """No controller issues RDA/WRA (FR-FCFS is open-page), PREA, REFab
    or MRS, so the bank rejects them by name and changes nothing."""
    bank.apply(CommandKind.ACT, now=0, row=1)
    before = (_windows(bank), bank.counters.as_dict())
    with pytest.raises(ValueError, match=kind.value):
        bank.apply(kind, now=timing.tRAS, row=1)
    assert (_windows(bank), bank.counters.as_dict()) == before


def test_counters_track_events(timing):
    bank = _column(timing, CommandKind.RD, timing.tRCDRD)
    bank.apply(CommandKind.PRE, now=timing.tRAS)
    counters = bank.counters.as_dict()
    assert counters["activates"] == 1
    assert counters["reads"] == 1
    assert counters["precharges"] == 1
