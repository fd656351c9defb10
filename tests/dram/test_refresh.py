"""Tests for the refresh engine."""

import pytest

from repro.dram.refresh import RefreshEngine


@pytest.fixture
def engine(timing):
    return RefreshEngine(
        timing=timing, num_stack_ids=1, num_bank_groups=2, banks_per_group=2
    )


def test_per_bank_interval_and_cycle_time(engine, timing):
    # Commands rotate at tREFIpb; each of the 4 banks comes around every
    # 4 x tREFIpb, which must comfortably exceed the refresh cycle time.
    assert engine.command_interval() == timing.tREFIpb
    assert engine.interval() == 4 * timing.tREFIpb
    assert engine.interval() > timing.tRFCpb


def test_due_targets_appear_over_time(engine, timing):
    early = engine.due_targets(0)
    later = engine.due_targets(timing.tREFIpb)
    assert len(later) >= len(early)
    assert all(t.due_time <= timing.tREFIpb for t in later)


def test_note_refresh_pushes_deadline_forward(engine, timing):
    now = timing.tREFIpb - 1
    target = engine.most_urgent(now)
    assert target is not None
    debt_before = engine.refresh_debt(now)
    engine.note_refresh_issued(target, now)
    assert engine.refresh_debt(now) == debt_before - 1
    assert engine.issued == 1


def test_is_critical_after_max_postponement(engine, timing):
    target = engine.most_urgent(0)
    assert target is not None
    assert not engine.is_critical(target, now=target.due_time)
    late = target.due_time + engine.max_postponed * engine.interval()
    assert engine.is_critical(target, now=late)



def test_initial_deadlines_are_staggered_one_command_interval_apart(engine,
                                                                    timing):
    """Banks start due one ``tREFIpb`` apart in (stack, group, bank) order,
    so a rotating REFpb stream meets each deadline in turn."""
    assert engine.due_snapshot() == [
        ((0, 0, 0), 0),
        ((0, 0, 1), timing.tREFIpb),
        ((0, 1, 0), 2 * timing.tREFIpb),
        ((0, 1, 1), 3 * timing.tREFIpb),
    ]


@pytest.mark.parametrize("num_stack_ids", [1, 2])
def test_rotation_refreshes_every_bank_once_per_interval(timing,
                                                         num_stack_ids):
    """Issuing the most urgent target every ``tREFIpb`` refreshes each bank
    of every stack ID exactly once per ``interval()`` and leaves no debt."""
    engine = RefreshEngine(timing=timing, num_stack_ids=num_stack_ids)
    assert engine.num_banks == 16 * num_stack_ids
    assert engine.interval() == engine.num_banks * timing.tREFIpb
    refreshed = []
    for index in range(engine.num_banks):
        now = index * timing.tREFIpb
        target = engine.most_urgent(now)
        assert target is not None and target.due_time == now
        refreshed.append((target.stack_id, target.bank_group, target.bank))
        engine.note_refresh_issued(target, now)
    assert sorted(refreshed) == sorted(key for key, _ in engine.due_snapshot())
    assert len(set(refreshed)) == engine.num_banks
    assert engine.issued == engine.num_banks
    assert engine.refresh_debt(engine.interval() - 1) == 0
    assert engine.most_urgent(engine.interval()).bank_group == 0


def test_next_event_ns_is_the_next_deadline_or_criticality(engine, timing):
    """A target not yet due wakes the controller at its deadline; a due but
    postponable one at the instant it turns critical."""
    # Bank (0, 0, 0) is due at 0; the next deadline is tREFIpb.
    assert engine.next_event_ns(0) == timing.tREFIpb
    # Every bank is due: the earliest wake is bank (0, 0, 0) going critical.
    all_due = 3 * timing.tREFIpb
    assert engine.next_event_ns(all_due) == engine.slack_ns()
    for target in engine.due_targets(all_due):
        engine.note_refresh_issued(target, all_due)
    assert engine.next_event_ns(all_due) == engine.interval()
