"""Tests for FR-FCFS scheduling decisions."""

from dataclasses import replace

import pytest

from repro.controller.mc import ControllerConfig, ConventionalMemoryController
from repro.controller.queues import RequestQueue
from repro.controller.request import MemoryRequest, RequestKind, decompose
from repro.controller.scheduler import FrFcfsScheduler
from repro.dram.address import baseline_hbm4_mapping
from repro.dram.channel import Channel, ChannelConfig
from repro.dram.commands import CommandKind


@pytest.fixture
def setup(timing):
    channel = Channel(ChannelConfig(timing=timing, num_stack_ids=1))
    scheduler = FrFcfsScheduler(channel=channel)
    mapping = replace(baseline_hbm4_mapping(num_channels=1), num_stack_ids=1)
    queue = RequestQueue(capacity=64, num_banks=len(channel.banks))
    return channel, scheduler, mapping, queue


def _issue_row(channel, command, now, *queues):
    """Issue an ACT or PRE and note the bank's new row in ``queues``, as
    the controller does."""
    channel.issue(command, now)
    index = channel.bank_index(command.pseudo_channel, command.stack_id,
                               command.bank_group, command.bank)
    row = command.row if command.kind is CommandKind.ACT else None
    for queue in queues:
        queue.note_row(index, row)


def _issue_column(channel, transaction, now):
    coord = transaction.coordinate
    kind = CommandKind.RD if transaction.is_read else CommandKind.WR
    channel.issue_column(coord.pseudo_channel, kind, coord.stack_id,
                         coord.bank_group, coord.bank, coord.row, now)


def test_row_command_issued_before_column_for_closed_row(setup):
    channel, scheduler, mapping, queue = setup
    request = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32)
    for t in decompose(request, mapping):
        queue.push(t)
    assert scheduler.pick_column([(queue, True)], now=0) is None
    decision = scheduler.pick_row([(queue, True)], now=0)
    assert decision is not None
    assert decision.command.kind is CommandKind.ACT


def test_column_command_prefers_oldest_ready(setup, timing):
    channel, scheduler, mapping, queue = setup
    first = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32,
                          arrival_ns=0)
    second = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32,
                           arrival_ns=5)
    for request in (first, second):
        for t in decompose(request, mapping):
            t.arrival_ns = request.arrival_ns
            queue.push(t)
    act = scheduler.pick_row([(queue, True)], now=0)
    _issue_row(channel, act.command, 0, queue)
    picked = scheduler.pick_column([(queue, True)], now=timing.tRCDRD)
    assert picked is not None
    assert picked.request is first


def test_pick_row_issues_precharge_on_conflict(setup, timing):
    channel, scheduler, mapping, queue = setup
    # Two requests to the same bank but different rows.
    near = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32)
    far = MemoryRequest(kind=RequestKind.READ,
                        address=mapping.bytes_per_row_system, size_bytes=32)
    for t in decompose(near, mapping):
        queue.push(t)
    act = scheduler.pick_row([(queue, True)], now=0)
    _issue_row(channel, act.command, 0, queue)
    rd = scheduler.pick_column([(queue, True)], now=timing.tRCDRD)
    _issue_column(channel, rd, timing.tRCDRD)
    queue.remove(rd)
    for t in decompose(far, mapping):
        queue.push(t)
    decision = scheduler.pick_row([(queue, True)], now=timing.tRAS)
    assert decision is not None
    assert decision.command.kind is CommandKind.PRE


def test_pick_row_keeps_row_open_while_a_hit_is_pending(setup, timing):
    """A conflicting open row is closed only once the queue holds no
    pending hit to it, even when the bank's oldest entry is the miss."""
    channel, scheduler, mapping, queue = setup
    near = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32)
    far = MemoryRequest(kind=RequestKind.READ,
                        address=mapping.bytes_per_row_system, size_bytes=32)
    opened = decompose(near, mapping)
    _issue_row(channel, scheduler._act_command(opened[0]), 0, queue)
    for t in decompose(far, mapping) + decompose(near, mapping):
        queue.push(t)
    assert scheduler.pick_row([(queue, True)], now=timing.tRAS) is None
    column = scheduler.pick_column([(queue, True)], now=timing.tRAS)
    assert column.request is near


def test_pick_row_keeps_an_open_row_open_without_a_conflict(setup, timing):
    """An open row is never closed speculatively: not while its hits wait,
    and not once the queue is empty."""
    channel, scheduler, mapping, queue = setup
    request = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32)
    for t in decompose(request, mapping):
        queue.push(t)
    _issue_row(channel, scheduler.pick_row([(queue, True)], now=0).command,
               0, queue)
    assert scheduler.pick_row([(queue, True)], now=timing.tRAS) is None
    queue.remove(queue.oldest())
    assert queue.is_empty
    assert scheduler.pick_row([(queue, True)], now=timing.tRAS) is None


def test_pick_row_closes_a_row_whose_hits_wait_only_in_another_queue(
        setup, timing):
    """The no-pending-hit test looks at the queue the miss came from: a
    write hit to the open row does not hold it open for a read miss."""
    channel, scheduler, mapping, queue = setup
    write_queue = RequestQueue(capacity=64, num_banks=len(channel.banks))
    near = MemoryRequest(kind=RequestKind.WRITE, address=0, size_bytes=32)
    far = MemoryRequest(kind=RequestKind.READ,
                        address=mapping.bytes_per_row_system, size_bytes=32)
    opened = decompose(near, mapping)
    _issue_row(channel, scheduler._act_command(opened[0]), 0, queue,
               write_queue)
    for t in opened:
        write_queue.push(t)
    for t in decompose(far, mapping):
        queue.push(t)
    decision = scheduler.pick_row([(queue, True), (write_queue, True)],
                                  now=timing.tRAS)
    assert decision is not None
    assert decision.command.kind is CommandKind.PRE
    coord = opened[0].coordinate
    assert (decision.command.bank_group, decision.command.bank) == (
        coord.bank_group, coord.bank)


def test_pick_row_activates_the_row_of_the_oldest_miss(setup):
    """A closed bank opens the row its oldest pending transaction needs."""
    channel, scheduler, mapping, queue = setup
    far = MemoryRequest(kind=RequestKind.READ,
                        address=mapping.bytes_per_row_system, size_bytes=32)
    near = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32)
    far_transactions = decompose(far, mapping)
    for t in far_transactions + decompose(near, mapping):
        queue.push(t)
    decision = scheduler.pick_row([(queue, True)], now=0)
    assert decision is not None
    assert decision.command.kind is CommandKind.ACT
    assert decision.command.row == far_transactions[0].coordinate.row


def test_pick_row_skips_disabled_queues(setup):
    channel, scheduler, mapping, queue = setup
    request = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32)
    for t in decompose(request, mapping):
        queue.push(t)
    assert scheduler.pick_row([(queue, False)], now=0) is None
    assert scheduler.pick_column([(queue, False)], now=0) is None


def test_write_drain_hysteresis():
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=False,
                                write_queue_depth=8)
    )
    scheduler = mc.scheduler
    write_queue = mc.write_queue
    assert not scheduler.update_write_drain(write_queue)
    request = MemoryRequest(kind=RequestKind.WRITE, address=0, size_bytes=8 * 32)
    mc.enqueue(request)
    mc._fill_queues()
    assert scheduler.update_write_drain(write_queue)  # above high watermark
    while write_queue.occupancy > 1:
        write_queue.remove(write_queue.oldest())
    assert not scheduler.update_write_drain(write_queue)  # below low watermark


@pytest.mark.parametrize("draining, occupancy, expected", [
    (False, 5, False),  # 5/8 < 3/4: keep serving reads
    (False, 6, True),   # 6/8 reaches the high watermark
    (True, 3, True),    # 3/8 > 1/4: keep draining
    (True, 2, False),   # 2/8 reaches the low watermark
])
def test_write_drain_watermarks_are_three_quarters_and_one_quarter(
        setup, draining, occupancy, expected):
    channel, scheduler, mapping, queue = setup
    assert scheduler._drain_step(draining, occupancy, capacity=8) is expected


def test_refresh_decision_when_due(timing):
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=True)
    )
    decision = mc.scheduler.pick_refresh(now=timing.tREFIpb)
    assert decision is not None
    assert decision.command.kind in (CommandKind.REFPB, CommandKind.PRE)


def _record_issues(mc):
    """Record ``(now, key)`` of every command ``mc``'s channel issues:
    refresh and row commands pass ``Channel.issue``, columns
    ``Channel.issue_column``."""
    issued = []
    channel = mc.channel
    issue, issue_column = channel.issue, channel.issue_column

    def record(command, now):
        issued.append((now, _command_key(command)))
        issue(command, now)

    def record_column(pc, kind, sid, bank_group, bank, row, now):
        issued.append((now, (kind, pc, sid, bank_group, bank, row)))
        issue_column(pc, kind, sid, bank_group, bank, row, now)

    channel.issue = record
    channel.issue_column = record_column
    return issued


def _command_key(command):
    return (command.kind, command.pseudo_channel, command.stack_id,
            command.bank_group, command.bank, command.row)


def _cold_loaded_controller(
        enable_refresh=True) -> ConventionalMemoryController:
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1,
                                enable_refresh=enable_refresh)
    )
    for block in range(16):
        mc.enqueue(MemoryRequest(kind=RequestKind.READ, address=block * 4096,
                                 size_bytes=4096))
    return mc


def test_plan_train_walks_an_advance_and_jumps_over_idle_instants():
    """One call of the decision loop covers a whole advance: it issues at
    exactly the instants and commands ``_step`` does, counts one
    evaluation, lands on the idle instants of the tRRD-spaced ACT ramp
    only to jump past them, and returns how many instants issued."""
    looped = _cold_loaded_controller(enable_refresh=False)
    loop_issues = _record_issues(looped)
    issuing = looped.scheduler.plan_train(looped, 512)
    assert looped.now == 512
    assert looped.stats.evaluations == 1
    stepped = _cold_loaded_controller(enable_refresh=False)
    step_issues = _record_issues(stepped)
    assert sum(stepped._step(t) for t in range(512)) == issuing
    assert loop_issues == step_issues
    times = sorted({now for now, _ in loop_issues})
    assert issuing == len(times)
    # Some instants issue more than one command (the two PCs' ACTs) ...
    assert len(loop_issues) > issuing
    # ... and the loop evaluates few of the instants that issue nothing.
    idle = looped.stats.instants - issuing
    assert 0 < idle < 512 - issuing


def test_plan_train_issues_due_refresh_where_pick_refresh_issues_it(timing):
    """With refreshes due at the start, the loop issues each REFpb at the
    very instant the per-step scheduler (``pick_refresh`` first in every
    ``_step``) issues it, alongside the same ACTs and column commands."""
    start = timing.tREFIpb
    looped = _cold_loaded_controller()
    looped.now = start
    loop_issues = _record_issues(looped)
    looped.scheduler.plan_train(looped, start + 600)
    assert any(key[0] is CommandKind.REFPB for _, key in loop_issues)
    stepped = _cold_loaded_controller()
    step_issues = _record_issues(stepped)
    for t in range(start, start + 600):
        stepped._step(t)
    assert loop_issues == step_issues


def test_plan_train_returns_none_exactly_when_nothing_issues():
    """Over a 4 ns advance a lone read issues only its ACT, at the first
    instant, in one evaluation; then nothing issues before tRCD, and the
    loop says so.  A target that is not after ``now`` evaluates
    nothing."""
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=False)
    )
    mc.enqueue(MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32))
    issued = _record_issues(mc)
    assert mc.scheduler.plan_train(mc, 0) is None
    assert mc.stats.evaluations == 0
    assert mc.scheduler.plan_train(mc, 4) == 1
    assert issued == [(0, (CommandKind.ACT, 0, 0, 0, 0, 0))]
    assert mc.now == 4 and mc.stats.evaluations == 1
    # The idle instant after the ACT, then a jump to the target.
    assert mc.stats.instants == 2
    assert mc.scheduler.plan_train(mc, 8) is None
    assert mc.now == 8 and len(issued) == 1


def test_a_refresh_out_of_rotation_order_raises_in_the_loop(timing):
    """The loop issues through the live refresh rotation: a REFpb to a
    target that is not the engine's most urgent one raises."""
    start = timing.tREFIpb
    mc = _cold_loaded_controller()
    mc.now = start
    scheduler = mc.scheduler
    pick_refresh = scheduler.pick_refresh

    def wrong_bank(now):
        decision = pick_refresh(now)
        # Another closed bank of the same bank group: the channel takes
        # its REFpb, only the rotation does not.
        other = replace(decision.refresh_target,
                        bank=decision.refresh_target.bank + 2)
        return replace(decision, refresh_target=other,
                       command=replace(decision.command, bank=other.bank))

    scheduler.pick_refresh = wrong_bank
    with pytest.raises(ValueError, match="out of rotation order"):
        scheduler.plan_train(mc, start + 10)


def test_pick_column_tests_a_blocked_bank_once(setup, timing):
    """Younger hits to a bank whose oldest hit is blocked are skipped: a
    column command's readiness does not depend on its column."""
    channel, scheduler, mapping, queue = setup
    blocks = decompose(MemoryRequest(kind=RequestKind.READ, address=0,
                                     size_bytes=4096), mapping)
    bank_a = [t for t in blocks if t.coordinate.bank_group == 1
              and t.coordinate.pseudo_channel == 0][:2]
    bank_b = [t for t in blocks if t.coordinate.bank_group == 0
              and t.coordinate.pseudo_channel == 0][:1]
    assert bank_a[0].coordinate.column != bank_a[1].coordinate.column
    for t in bank_a + bank_b:
        queue.push(t)
    # Open B first and A one tRRDS later, so at B's tRCDRD only B is ready.
    _issue_row(channel, scheduler._act_command(bank_b[0]), 0, queue)
    _issue_row(channel, scheduler._act_command(bank_a[0]), timing.tRRDS,
               queue)
    asked = []
    can_issue_column = channel.can_issue_column

    def spy(pc, sid, bank_group, bank, row, is_read, now):
        asked.append(bank_group)
        return can_issue_column(pc, sid, bank_group, bank, row, is_read, now)

    channel.can_issue_column = spy
    picked = scheduler.pick_column([(queue, True)], now=timing.tRCDRD)
    assert picked is bank_b[0]
    assert asked == [1, 0]
