"""Tests for FR-FCFS scheduling decisions."""

import pytest

from repro.controller.mc import ControllerConfig, ConventionalMemoryController
from repro.controller.page_policy import OpenPagePolicy
from repro.controller.queues import RequestQueue
from repro.controller.request import MemoryRequest, RequestKind, decompose
from repro.controller.scheduler import FrFcfsScheduler
from repro.dram.address import baseline_hbm4_mapping
from repro.dram.channel import Channel, ChannelConfig
from repro.dram.commands import CommandKind


@pytest.fixture
def setup(timing):
    channel = Channel(ChannelConfig(timing=timing, num_stack_ids=1))
    scheduler = FrFcfsScheduler(channel=channel, page_policy=OpenPagePolicy())
    mapping = baseline_hbm4_mapping(num_channels=1)
    queue = RequestQueue(capacity=64)
    return channel, scheduler, mapping, queue


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
    channel.issue(act.command, 0)
    decision = scheduler.pick_column([(queue, True)], now=timing.tRCDRD)
    assert decision is not None
    assert decision.transaction.request is first


def test_pick_row_issues_precharge_on_conflict(setup, timing):
    channel, scheduler, mapping, queue = setup
    # Two requests to the same bank but different rows.
    near = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32)
    far = MemoryRequest(kind=RequestKind.READ,
                        address=mapping.bytes_per_row_system, size_bytes=32)
    for t in decompose(near, mapping):
        queue.push(t)
    act = scheduler.pick_row([(queue, True)], now=0)
    channel.issue(act.command, 0)
    rd = scheduler.pick_column([(queue, True)], now=timing.tRCDRD)
    channel.issue(rd.command, timing.tRCDRD)
    queue.remove(rd.transaction)
    for t in decompose(far, mapping):
        queue.push(t)
    decision = scheduler.pick_row([(queue, True)], now=timing.tRAS)
    assert decision is not None
    assert decision.command.kind is CommandKind.PRE


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


def test_refresh_decision_when_due(timing):
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=True)
    )
    decision = mc.scheduler.pick_refresh(now=timing.tREFIpb)
    assert decision is not None
    assert decision.command.kind in (CommandKind.REFPB, CommandKind.PRE)


def test_plan_train_reports_count_stride_and_end():
    """The burst-train planner's (count, stride, end_ns) surface must be
    self-consistent: a dense train over N instants with >= 1 command each."""
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=False)
    )
    for block in range(16):
        mc.enqueue(MemoryRequest(kind=RequestKind.READ, address=block * 4096,
                                 size_bytes=4096))
    # Warm past the cold-start ACT ramp (tRRD-spaced, so not dense) into
    # the saturated column stream the planner covers.
    mc.run_for(64)
    train = mc.scheduler.plan_train(
        mc.read_queue, mc.write_queue, mc._backlog, now=mc.now,
        target_ns=10_000, num_picks=mc.config.num_pseudo_channels,
    )
    assert train is not None
    assert train.stride_ns == 1
    assert train.end_ns == train.steps[0].time_ns + len(train.steps) - 1
    assert train.count == sum(len(step.decisions) for step in train.steps)
    assert train.count >= len(train.steps)  # dense: >= 1 command per instant


def test_plan_train_refuses_when_refresh_is_due(timing):
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=True)
    )
    for block in range(16):
        mc.enqueue(MemoryRequest(kind=RequestKind.READ, address=block * 4096,
                                 size_bytes=4096))
    mc._fill_queues()
    assert mc.scheduler.plan_train(
        mc.read_queue, mc.write_queue, mc._backlog,
        now=timing.tREFIpb, target_ns=timing.tREFIpb + 10_000,
        num_picks=mc.config.num_pseudo_channels,
    ) is None


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
    channel.issue(scheduler._act_command(bank_b[0]), 0)
    channel.issue(scheduler._act_command(bank_a[0]), timing.tRRDS)
    asked = []
    can_issue = channel.can_issue

    def spy(command, now):
        asked.append(command.bank_group)
        return can_issue(command, now)

    channel.can_issue = spy
    decision = scheduler.pick_column([(queue, True)], now=timing.tRCDRD)
    assert decision is not None
    assert decision.transaction is bank_b[0]
    assert asked == [1, 0]
