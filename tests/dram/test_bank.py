"""Tests for the single-bank finite-state machine and timing windows."""

import pytest

from repro.dram.bank import Bank, BankState
from repro.dram.commands import CommandKind
from repro.dram.timing import TimingParameters


@pytest.fixture
def bank(timing):
    return Bank(timing=timing)


def test_initial_state_is_idle(bank):
    assert bank.state is BankState.IDLE
    assert not bank.has_open_row(0)


def test_activate_opens_row_and_transitions_to_active(bank, timing):
    assert bank.can_issue(CommandKind.ACT, now=0, row=5)
    bank.issue(CommandKind.ACT, now=0, row=5)
    assert bank.state is BankState.ACTIVATING
    bank.tick(timing.tRCDRD)
    assert bank.state is BankState.ACTIVE
    assert bank.is_row_hit(5, timing.tRCDRD)
    assert not bank.is_row_hit(6, timing.tRCDRD)


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


def test_precharge_closes_row_and_returns_to_idle(bank, timing):
    bank.issue(CommandKind.ACT, now=0, row=1)
    bank.issue(CommandKind.PRE, now=timing.tRAS)
    assert bank.state is BankState.PRECHARGING
    bank.tick(timing.tRAS + timing.tRP)
    assert bank.state is BankState.IDLE
    assert not bank.has_open_row(timing.tRAS + timing.tRP)


def test_refresh_requires_idle_bank(bank, timing):
    bank.issue(CommandKind.ACT, now=0, row=1)
    assert not bank.can_issue(CommandKind.REFPB, now=1)
    bank.issue(CommandKind.PRE, now=timing.tRAS)
    ready = timing.tRAS + timing.tRP
    bank.tick(ready)
    assert bank.can_issue(CommandKind.REFPB, now=max(ready, timing.tRC))


def test_refresh_blocks_activation_for_trfcpb(bank, timing):
    bank.issue(CommandKind.REFPB, now=0)
    assert bank.state is BankState.REFRESHING
    assert not bank.can_issue(CommandKind.ACT, now=timing.tRFCpb - 1, row=0)
    assert bank.can_issue(CommandKind.ACT, now=timing.tRFCpb, row=0)


def test_read_with_autoprecharge_closes_row(bank, timing):
    bank.issue(CommandKind.ACT, now=0, row=1)
    t = timing.tRAS
    bank.issue(CommandKind.RDA, now=t, row=1)
    bank.tick(t + timing.tRTP + timing.tRP)
    assert bank.state is BankState.IDLE
    assert bank.open_row is None


def _opened_with(timing, kind):
    bank = Bank(timing=timing)
    bank.issue(CommandKind.ACT, now=0, row=1)
    bank.issue(kind, now=timing.tRAS, row=1)
    return bank


@pytest.mark.parametrize("kind", [CommandKind.RDA, CommandKind.WRA])
def test_row_reads_resolve_auto_precharge_without_a_tick(timing, kind):
    """``has_open_row`` and ``is_row_hit`` resolve a pending RDA/WRA
    auto-precharge themselves: read once, with no ``tick`` call, they turn
    False at the auto-precharge instant, as on a twin bank ticked every
    ns."""
    issued = timing.tRAS
    closes_at = issued + (timing.tRTP if kind is CommandKind.RDA else
                          timing.tCWL + timing.burst_ns + timing.tWR)
    ticked = _opened_with(timing, kind)
    for now in range(issued, closes_at + timing.tRP + 2):
        ticked.tick(now)
        twin_open = ticked.open_row is not None
        assert twin_open == (now < closes_at)
        assert _opened_with(timing, kind).has_open_row(now) == twin_open
        assert _opened_with(timing, kind).is_row_hit(1, now) == twin_open


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


def test_earliest_issue_reports_lower_bounds(bank, timing):
    bank.issue(CommandKind.ACT, now=0, row=1)
    assert bank.earliest_issue(CommandKind.RD) == timing.tRCDRD
    assert bank.earliest_issue(CommandKind.PRE) == timing.tRAS
    assert bank.earliest_issue(CommandKind.ACT) == timing.tRC
