"""Tests for RoMe's paired per-bank refresh (Section V-B)."""

import pytest

from repro.core.refresh import RomeRefreshScheduler, refresh_stall_comparison
from repro.dram.timing import TimingParameters


def test_stall_reduction_matches_paper_example(timing):
    summary = refresh_stall_comparison(timing, banks_per_vba=2)
    assert summary.naive_stall_ns == 2 * timing.tRFCpb
    assert summary.paired_stall_ns == timing.tRFCpb + timing.tRREFD
    assert summary.stall_reduction_ns == timing.tRFCpb - timing.tRREFD


def test_paired_overhead_is_lower(timing):
    summary = refresh_stall_comparison(timing)
    assert summary.paired_overhead_fraction < summary.naive_overhead_fraction
    assert 0 < summary.paired_overhead_fraction < 1


def test_scheduler_command_interval_is_doubled(timing):
    scheduler = RomeRefreshScheduler(timing=timing, num_vbas=8)
    # One paired command every 2 x tREFIpb (Section V-B)...
    assert scheduler.command_interval() == 2 * timing.tREFIpb
    # ...so each of the 8 VBAs is refreshed every 16 x tREFIpb, which must
    # exceed the stall the refresh itself causes.
    assert scheduler.interval() == 16 * timing.tREFIpb
    assert scheduler.interval() > scheduler.stall_ns()
    assert scheduler.stall_ns() == timing.tRFCpb + timing.tRREFD


def test_due_and_issue_cycle(timing):
    scheduler = RomeRefreshScheduler(timing=timing, num_vbas=4)
    now = scheduler.interval() - 1
    assert scheduler.refresh_debt(now) == 4
    first = scheduler.most_urgent(now)
    assert first == (0, 0)
    scheduler.note_issued(first, now)
    assert scheduler.refresh_debt(now) == 3
    assert scheduler.most_urgent(now) == (0, 1)
    assert scheduler.issued == 1


def test_critical_after_postponement_budget(timing):
    scheduler = RomeRefreshScheduler(timing=timing, num_vbas=4, max_postponed=2)
    key = scheduler.most_urgent(0)
    assert key is not None
    assert not scheduler.is_critical(key, now=0)
    assert scheduler.is_critical(key, now=2 * scheduler.interval())


def test_single_bank_vba_has_no_pairing_overhead(timing):
    summary = refresh_stall_comparison(timing, banks_per_vba=1)
    assert summary.naive_stall_ns == summary.paired_stall_ns == timing.tRFCpb


def test_vbas_rotate_in_stack_major_order(timing):
    scheduler = RomeRefreshScheduler(timing=timing, num_vbas=2,
                                     num_stack_ids=2)
    assert scheduler.keys == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert scheduler.interval() == 4 * scheduler.command_interval()


@pytest.mark.parametrize("trefipb", [0, -1])
def test_stride_below_one_ns_is_rejected(trefipb):
    with pytest.raises(ValueError, match="tREFIpb"):
        RomeRefreshScheduler(timing=TimingParameters(tREFIpb=trefipb),
                             num_vbas=4)
