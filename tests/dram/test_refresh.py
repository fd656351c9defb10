"""Tests for the refresh engine and the rotation it is built on."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.refresh import RefreshEngine, RefreshRotation
from repro.dram.timing import TimingParameters


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



@pytest.mark.parametrize("num_stack_ids", [1, 2])
def test_rotation_refreshes_every_bank_once_per_interval(timing,
                                                         num_stack_ids):
    """Issuing the most urgent target every ``tREFIpb`` refreshes each bank
    of every stack ID exactly once per ``interval()`` and leaves no debt."""
    engine = RefreshEngine(timing=timing, num_stack_ids=num_stack_ids)
    num_banks = len(engine.keys)
    assert num_banks == 16 * num_stack_ids
    assert engine.interval() == num_banks * timing.tREFIpb
    refreshed = []
    for index in range(num_banks):
        now = index * timing.tREFIpb
        target = engine.most_urgent(now)
        assert target is not None and target.due_time == now
        refreshed.append((target.stack_id, target.bank_group, target.bank))
        engine.note_refresh_issued(target, now)
    assert refreshed == list(engine.keys)
    assert len(set(refreshed)) == num_banks
    assert engine.issued == num_banks
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
    while (target := engine.most_urgent(all_due)) is not None:
        engine.note_refresh_issued(target, all_due)
    assert engine.next_event_ns(all_due) == engine.interval()


def test_out_of_rotation_issue_is_rejected(engine):
    """The closed form assumes the most urgent target is always the one
    issued; any other issue raises instead of desynchronising it."""
    with pytest.raises(ValueError, match="out of rotation order"):
        engine.note_issued((0, 1, 1), 0)
    assert engine.issued == 0


@pytest.mark.parametrize("trefipb", [0, -5])
def test_stride_below_one_ns_is_rejected(trefipb):
    """A zero stride would keep the first target due forever."""
    with pytest.raises(ValueError, match="tREFIpb"):
        RefreshEngine(timing=TimingParameters(tREFIpb=trefipb))


def test_rotation_without_targets_is_rejected():
    with pytest.raises(ValueError, match="at least one target"):
        RefreshEngine(timing=TimingParameters(), num_bank_groups=0)


def test_max_postponed_is_read_at_query_time(engine, timing):
    """Assigning ``max_postponed`` on a live tracker moves its criticality
    transitions at once (no slack is cached at construction)."""
    all_due = 3 * timing.tREFIpb
    assert engine.next_event_ns(all_due) == 4 * engine.interval()
    engine.max_postponed = 1
    assert engine.next_event_ns(all_due) == engine.interval()
    engine.max_postponed = 0
    assert engine.next_event_ns(all_due) is None
    assert engine.is_critical(engine.most_urgent(all_due), all_due)


class _DeadlineOracle:
    """Brute-force per-target deadlines: the rule the rotation replaces.

    Target ``j`` starts due at ``j x stride``; issuing the most urgent
    overdue target pushes its deadline one whole interval forward.
    """

    def __init__(self, n, stride, max_postponed):
        self.due = [j * stride for j in range(n)]
        self.interval = n * stride
        self.slack = max_postponed * self.interval

    def most_urgent(self, now):
        overdue = [j for j, due in enumerate(self.due) if due <= now]
        return min(overdue, key=self.due.__getitem__, default=None)

    def is_critical(self, key, now):
        return now - self.due[key] >= self.slack

    def next_event_ns(self, now):
        candidates = [due if due > now else due + self.slack
                      for due in self.due]
        return min((c for c in candidates if c > now), default=None)

    def refresh_debt(self, now):
        return sum(due <= now for due in self.due)

    def note_issued(self, key):
        self.due[key] += self.interval


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(min_value=1, max_value=32),
    stride=st.integers(min_value=1, max_value=300),
    max_postponed=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
def test_rotation_matches_per_target_deadlines(n, stride, max_postponed,
                                                data):
    """The rotation's closed forms equal an explicit deadline list at
    non-decreasing query times, with the most urgent target issued at
    random instants."""
    rotation = RefreshRotation(keys=tuple(range(n)), stride=stride,
                               max_postponed=max_postponed)
    oracle = _DeadlineOracle(n, stride, max_postponed)
    steps = data.draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=3 * n * stride),
                  st.booleans()),
        max_size=40))
    now = 0
    for delta, issue in steps:
        now += delta
        key = oracle.most_urgent(now)
        assert rotation.most_urgent(now) == key
        assert rotation.next_event_ns(now) == oracle.next_event_ns(now)
        assert rotation.refresh_debt(now) == oracle.refresh_debt(now)
        for other in range(n):
            assert rotation.is_critical(other, now) \
                == oracle.is_critical(other, now)
        if issue and key is not None:
            rotation.note_issued(key, now)
            oracle.note_issued(key)
