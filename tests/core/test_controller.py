"""Tests for the simplified RoMe memory controller (Section V-A)."""

import pytest

from repro.core.controller import (
    RoMeControllerConfig,
    RoMeMemoryController,
    VbaState,
)
from repro.core.interface import RowRequest, RowRequestKind, requests_for_transfer
from repro.core.timing import ROME_TIMING
from repro.core.virtual_bank import paper_vba_config
from repro.dram.timing import TimingParameters


def _controller(**overrides) -> RoMeMemoryController:
    defaults = dict(request_queue_depth=4, num_stack_ids=1, enable_refresh=False)
    defaults.update(overrides)
    return RoMeMemoryController(config=RoMeControllerConfig(**defaults))


def _streaming_requests(total_bytes: int, kind=RowRequestKind.RD_ROW):
    vba = paper_vba_config()
    return requests_for_transfer(
        total_bytes,
        kind=kind,
        effective_row_bytes=vba.effective_row_bytes,
        num_channels=1,
        vbas_per_channel=vba.vbas_per_channel_per_sid,
    )


def test_single_read_takes_trd_row():
    mc = _controller()
    request = RowRequest(kind=RowRequestKind.RD_ROW, vba=0, row=0)
    mc.enqueue(request)
    mc.run_until_idle()
    assert request.issue_ns == 0
    assert request.completion_ns == ROME_TIMING.tRD_row


def test_single_write_takes_twr_row():
    mc = _controller()
    request = RowRequest(kind=RowRequestKind.WR_ROW, vba=0, row=0)
    mc.enqueue(request)
    mc.run_until_idle()
    assert request.completion_ns == ROME_TIMING.tWR_row


def test_streaming_reads_saturate_bandwidth():
    mc = _controller()
    for request in _streaming_requests(64 * 4096):
        mc.enqueue(request)
    mc.run_until_idle()
    assert mc.bandwidth_utilization() > 0.95


def test_back_to_back_reads_to_different_vbas_spaced_by_tr2rs():
    mc = _controller()
    requests = [
        RowRequest(kind=RowRequestKind.RD_ROW, vba=0, row=0),
        RowRequest(kind=RowRequestKind.RD_ROW, vba=1, row=0),
    ]
    for request in requests:
        mc.enqueue(request)
    mc.run_until_idle()
    assert requests[1].issue_ns - requests[0].issue_ns == ROME_TIMING.tR2RS


def test_same_vba_requests_wait_for_trd_row():
    mc = _controller()
    requests = [
        RowRequest(kind=RowRequestKind.RD_ROW, vba=0, row=0),
        RowRequest(kind=RowRequestKind.RD_ROW, vba=0, row=1),
    ]
    for request in requests:
        mc.enqueue(request)
    mc.run_until_idle()
    assert requests[1].issue_ns - requests[0].issue_ns >= ROME_TIMING.tRD_row


def test_read_to_write_turnaround_gap():
    mc = _controller()
    read = RowRequest(kind=RowRequestKind.RD_ROW, vba=0, row=0)
    write = RowRequest(kind=RowRequestKind.WR_ROW, vba=1, row=0)
    mc.enqueue(read)
    mc.enqueue(write)
    mc.run_until_idle()
    assert write.issue_ns - read.issue_ns >= ROME_TIMING.tR2WS


def test_queue_depth_two_is_enough_for_full_bandwidth():
    shallow = _controller(request_queue_depth=1)
    paper_depth = _controller(request_queue_depth=2)
    for controller in (shallow, paper_depth):
        for request in _streaming_requests(32 * 4096):
            controller.enqueue(request)
        controller.run_until_idle()
    assert paper_depth.bandwidth_utilization() > 0.95
    assert shallow.bandwidth_utilization() < 0.8


def test_at_most_two_data_fsms_and_five_total():
    mc = RoMeMemoryController(
        config=RoMeControllerConfig(num_stack_ids=1, enable_refresh=True,
                                    request_queue_depth=4)
    )
    for request in _streaming_requests(128 * 4096):
        mc.enqueue(request)
    mc.run_until_idle()
    assert mc.stats.peak_active_fsms <= mc.config.num_bank_fsms


def test_overfetch_accounted_for_partial_rows():
    mc = _controller()
    request = RowRequest(kind=RowRequestKind.RD_ROW, vba=0, row=0, valid_bytes=1000)
    mc.enqueue(request)
    mc.run_until_idle()
    assert mc.stats.overfetch_bytes == 4096 - 1000
    assert mc.stats.bytes_read == 4096


def test_refresh_issued_and_blocks_vba():
    mc = RoMeMemoryController(
        config=RoMeControllerConfig(num_stack_ids=1, enable_refresh=True)
    )
    mc.run_for(3 * mc.config.timing.tREFIpb)
    assert mc.stats.refreshes_issued > 0


def test_sub_nanosecond_refresh_interval_is_rejected():
    """Regression: with tREFIpb=0 the paired-refresh interval was 0, so the
    first VBA stayed due forever."""
    with pytest.raises(ValueError, match="tREFIpb"):
        _controller(enable_refresh=True,
                    conventional_timing=TimingParameters(tREFIpb=0))
    _controller(enable_refresh=False,
                conventional_timing=TimingParameters(tREFIpb=0))


def test_rejects_out_of_range_vba():
    mc = _controller()
    with pytest.raises(ValueError, match="vba"):
        mc.enqueue(RowRequest(kind=RowRequestKind.RD_ROW, vba=99, row=0))


def test_rejects_out_of_range_stack():
    mc = _controller()
    with pytest.raises(ValueError, match="stack"):
        mc.enqueue(RowRequest(kind=RowRequestKind.RD_ROW, vba=0, stack_id=3))


def test_energy_counters_reflect_expansion():
    mc = _controller()
    for request in _streaming_requests(8 * 4096):
        mc.enqueue(request)
    mc.run_until_idle()
    counters = mc.energy_counters()
    assert counters.activates == 8 * 4  # 2 banks x 2 PCs per row command
    assert counters.reads_bytes == 8 * 4096
    assert counters.interface_commands == 8
    assert counters.row_command_expansions == 8


def test_oldest_first_service_order():
    mc = _controller(request_queue_depth=4)
    requests = [
        RowRequest(kind=RowRequestKind.RD_ROW, vba=i % 4, row=i, arrival_ns=0)
        for i in range(8)
    ]
    for request in requests:
        mc.enqueue(request)
    mc.run_until_idle()
    issue_order = sorted(range(len(requests)), key=lambda i: requests[i].issue_ns)
    assert issue_order == list(range(len(requests)))


def test_average_read_latency_reported():
    mc = _controller()
    for request in _streaming_requests(16 * 4096):
        mc.enqueue(request)
    mc.run_until_idle()
    assert mc.stats.average_read_latency >= ROME_TIMING.tRD_row


def test_retire_completed_drops_all_completed_in_one_pass():
    """Regression: retirement must drop every completed in-flight entry in a
    single sweep (the seed used an O(n^2) ``list`` + ``deque.remove`` walk
    that this replaced) while preserving arrival order of the rest."""
    mc = _controller()
    requests = [
        RowRequest(kind=RowRequestKind.RD_ROW, vba=i % 4, row=i)
        for i in range(5)
    ]
    for i, request in enumerate(requests):
        request.issue_ns = 0
        request.completion_ns = 10 if i in (0, 2, 3) else 100
        mc.queue.append(request)
    mc._retire_completed(50)
    assert list(mc.queue) == [requests[1], requests[4]]
    mc._retire_completed(50)  # idempotent, nothing left to retire
    assert list(mc.queue) == [requests[1], requests[4]]


def test_read_latency_accumulator_is_bounded_and_exact():
    mc = _controller()
    for request in _streaming_requests(64 * 4096):
        mc.enqueue(request)
    mc.run_until_idle()
    stats = mc.stats
    assert stats.read_latency.count == 64
    assert stats.average_read_latency == pytest.approx(
        sum(stats.read_latency.samples) / 64
    )
    # Synthetic long-traffic check: the reservoir stays bounded while the
    # exact moments keep counting.
    accumulated = stats.read_latency
    for value in range(20_000):
        accumulated.record(value % 977)
    assert accumulated.count == 64 + 20_000
    assert len(accumulated.samples) <= accumulated.reservoir_size


def test_event_and_tick_wrappers_share_one_scheduler():
    """tick() must remain a thin 1-ns wrapper over the same scheduler the
    event core uses (same issue decisions at the same instants)."""
    results = []
    for use_tick in (False, True):
        mc = _controller()
        requests = _streaming_requests(8 * 4096)
        for request in requests:
            mc.enqueue(request)
        if use_tick:
            for _ in range(2000):
                mc.tick()
        else:
            mc.advance_to(2000)
        results.append([(r.issue_ns, r.completion_ns) for r in requests])
    assert results[0] == results[1]


def test_next_event_is_immediate_for_critical_refresh_under_fsm_saturation():
    """Regression: a postponement-exhausted (critical) refresh bypasses
    refresh-FSM saturation in the scheduler, so next_event_ns() must report
    the current instant rather than the next FSM release."""
    mc = RoMeMemoryController(
        config=RoMeControllerConfig(num_stack_ids=1, enable_refresh=True)
    )
    # Saturate the refresh FSMs with in-progress refreshes...
    for vba in (1, 2, 3):
        tracker = mc._vbas[(0, vba)]
        mc._mark_busy((0, vba), tracker, VbaState.REFRESHING, mc.now + 500)
    # ...and push the most urgent VBA far past its postponement budget.
    key = mc.refresh.most_urgent(mc.now)
    mc.now = mc.refresh.due_ns() + mc.refresh.slack_ns() + 1
    assert mc.refresh.is_critical(key, mc.now)
    assert mc._vbas[key].is_free(mc.now)
    assert mc.next_event_ns() == mc.now
    issued = mc._try_issue_refresh(mc.now)
    assert issued
