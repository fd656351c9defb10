"""Tests for the single bank: its open row and timing windows."""

import pytest

from repro.dram.bank import Bank
from repro.dram.commands import CommandKind
from repro.dram.timing import TimingParameters


@pytest.fixture
def bank(timing):
    return Bank(timing=timing)


def test_a_new_bank_is_closed_and_takes_act_and_refpb_but_not_pre(bank):
    assert bank.open_row is None
    assert bank.can_issue(CommandKind.ACT, now=0, row=5)
    assert bank.can_issue(CommandKind.REFPB, now=0)
    assert not bank.can_issue(CommandKind.PRE, now=0)


def test_activate_opens_row_and_closes_the_bank_to_act_and_refpb(bank,
                                                                  timing):
    bank.issue(CommandKind.ACT, now=0, row=5)
    assert bank.open_row == 5
    # An open bank takes neither another ACT nor a REFpb, however late.
    late = 10 * timing.tRC
    assert not bank.can_issue(CommandKind.ACT, now=late, row=6)
    assert not bank.can_issue(CommandKind.REFPB, now=late)
    assert bank.can_issue(CommandKind.RD, now=timing.tRCDRD, row=5)
    assert not bank.can_issue(CommandKind.RD, now=timing.tRCDRD, row=6)


def test_read_not_allowed_before_trcd(bank, timing):
    bank.issue(CommandKind.ACT, now=0, row=1)
    assert not bank.can_issue(CommandKind.RD, now=timing.tRCDRD - 1, row=1)
    assert bank.can_issue(CommandKind.RD, now=timing.tRCDRD, row=1)


def test_read_to_wrong_row_is_rejected(bank, timing):
    bank.issue(CommandKind.ACT, now=0, row=1)
    assert not bank.can_issue(CommandKind.RD, now=timing.tRCDRD, row=2)


def test_activate_to_activate_respects_trc(bank, timing):
    bank.issue(CommandKind.ACT, now=0, row=1)
    bank.issue(CommandKind.PRE, now=timing.tRAS)
    # Even after the precharge completes, ACT-to-ACT must wait for tRC.
    assert not bank.can_issue(CommandKind.ACT, now=timing.tRC - 1, row=2)
    assert bank.can_issue(CommandKind.ACT, now=timing.tRC, row=2)


def test_precharge_not_allowed_before_tras(bank, timing):
    bank.issue(CommandKind.ACT, now=0, row=1)
    assert not bank.can_issue(CommandKind.PRE, now=timing.tRAS - 1)
    assert bank.can_issue(CommandKind.PRE, now=timing.tRAS)


def test_read_pushes_out_precharge_by_trtp(bank, timing):
    bank.issue(CommandKind.ACT, now=0, row=1)
    read_time = timing.tRAS  # late read
    bank.issue(CommandKind.RD, now=read_time, row=1)
    assert not bank.can_issue(CommandKind.PRE, now=read_time + timing.tRTP - 1)
    assert bank.can_issue(CommandKind.PRE, now=read_time + timing.tRTP)


def test_write_recovery_delays_precharge(bank, timing):
    bank.issue(CommandKind.ACT, now=0, row=1)
    write_time = timing.tRCDWR
    bank.issue(CommandKind.WR, now=write_time, row=1)
    earliest = write_time + timing.tCWL + timing.burst_ns + timing.tWR
    assert not bank.can_issue(CommandKind.PRE, now=earliest - 1)
    assert bank.can_issue(CommandKind.PRE, now=earliest)


def test_precharge_closes_row_and_blocks_act_until_trp(timing):
    """ACT waits out the precharge (tRP) even once tRC has passed."""
    bank = Bank(timing=timing)
    bank.issue(CommandKind.ACT, now=0, row=1)
    pre_at = timing.tRC
    bank.issue(CommandKind.PRE, now=pre_at)
    assert bank.open_row is None
    assert not bank.can_issue(CommandKind.PRE, now=pre_at + timing.tRP)
    assert not bank.can_issue(CommandKind.ACT, now=pre_at + timing.tRP - 1,
                              row=2)
    assert not bank.can_issue(CommandKind.RD, now=pre_at + timing.tRP,
                              row=1)
    assert bank.can_issue(CommandKind.ACT, now=pre_at + timing.tRP, row=2)


def test_refresh_requires_idle_bank(bank, timing):
    bank.issue(CommandKind.ACT, now=0, row=1)
    assert not bank.can_issue(CommandKind.REFPB, now=1)
    bank.issue(CommandKind.PRE, now=timing.tRAS)
    ready = max(timing.tRAS + timing.tRP, timing.tRC)
    assert not bank.can_issue(CommandKind.REFPB, now=ready - 1)
    assert bank.can_issue(CommandKind.REFPB, now=ready)


def test_refresh_blocks_activation_for_trfcpb(bank, timing):
    """A REFpb leaves the bank closed and blocks ACT (and the next REFpb)
    until it completes."""
    bank.issue(CommandKind.REFPB, now=0)
    assert bank.open_row is None
    assert not bank.can_issue(CommandKind.PRE, now=timing.tRFCpb)
    assert not bank.can_issue(CommandKind.ACT, now=timing.tRFCpb - 1, row=0)
    assert not bank.can_issue(CommandKind.REFPB, now=timing.tRFCpb - 1)
    assert bank.can_issue(CommandKind.ACT, now=timing.tRFCpb, row=0)


@pytest.mark.parametrize("kind", [CommandKind.RDA, CommandKind.WRA])
def test_auto_precharging_cas_is_rejected(bank, timing, kind):
    """No controller issues RDA/WRA (FR-FCFS is open-page), so the bank
    rejects them by name instead of treating them as RD/WR, and changes
    nothing."""
    bank.issue(CommandKind.ACT, now=0, row=1)
    before = (bank.open_row, bank.next_pre, bank.counters.as_dict())
    with pytest.raises(ValueError, match=kind.value):
        bank.issue(kind, now=timing.tRAS, row=1)
    with pytest.raises(ValueError, match=kind.value):
        bank.issue_column(kind, 1, timing.tRAS)
    with pytest.raises(ValueError):
        bank.can_issue(kind, now=timing.tRAS, row=1)
    assert (bank.open_row, bank.next_pre, bank.counters.as_dict()) == before


def test_illegal_issue_raises(bank):
    with pytest.raises(RuntimeError, match="illegal RD"):
        bank.issue(CommandKind.RD, now=0, row=1)


def test_counters_track_events(bank, timing):
    bank.issue(CommandKind.ACT, now=0, row=1)
    bank.issue(CommandKind.RD, now=timing.tRCDRD, row=1)
    bank.issue(CommandKind.PRE, now=timing.tRAS)
    counters = bank.counters.as_dict()
    assert counters["activates"] == 1
    assert counters["reads"] == 1
    assert counters["precharges"] == 1
