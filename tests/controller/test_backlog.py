"""The conventional controller's backlog: request cursors, built windows
and the memory they bound.

A request is booked on arrival and kept as a request cursor; its
transactions are built a window (at most one queue depth of blocks) at a
time as the queues take them, so the controller's memory follows its
queue depth, not the bytes in flight.
"""

import tracemalloc

import pytest

from repro.controller.mc import ControllerConfig, ConventionalMemoryController
from repro.controller.request import MemoryRequest, RequestKind, decompose
from repro.reliability import ReliabilityConfig
from repro.sim.traces import mixed_trace, streaming_trace

#: Serves 4,800 blocks, 75 windows, of a long transfer; a full drain of
#: the memory tests' transfers runs in the slow tier.
_HORIZON_NS = 5_000


def _peak_bytes(requests, horizon_ns):
    """The tracemalloc peak, above the memory traced before, of a fresh
    controller taking ``requests`` and running ``horizon_ns`` (``None``:
    until idle)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mc = ConventionalMemoryController(ControllerConfig(num_stack_ids=1))
        for request in requests:
            mc.enqueue(request)
        if horizon_ns is None:
            mc.run_until_idle()
        else:
            mc.run_for(horizon_ns)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _reads(count, size_bytes):
    return streaming_trace(count * size_bytes, request_bytes=size_bytes)


_HORIZONS = [_HORIZON_NS,
             pytest.param(None, marks=pytest.mark.slow, id="drain")]


@pytest.mark.parametrize("horizon_ns", _HORIZONS)
def test_a_long_transfer_takes_the_memory_of_a_short_one(horizon_ns):
    """One 4 MiB read peaks within 1.2x of one 64 KiB read: a transfer
    holds built transactions for one window beyond the queues, not for
    every block (decomposing on arrival peaked at ~27 MiB per 4 MiB)."""
    _peak_bytes(_reads(1, 4096), horizon_ns)  # warm-up: tables, caches
    short = _peak_bytes(_reads(1, 64 * 1024), horizon_ns)
    long = _peak_bytes(_reads(1, 4 * 1024 * 1024), horizon_ns)
    assert long <= 1.2 * short


@pytest.mark.parametrize("horizon_ns", _HORIZONS)
def test_sixty_four_transfers_stay_under_a_tenth_of_their_blocks(horizon_ns):
    """64 x 64 KiB reads peak below 2.7 MiB, a tenth of their peak when
    every request was decomposed on arrival (26.7 MiB).  What is left
    grows with the requests, not with their blocks: each keeps its
    ``MemoryRequest``, its booking and its cursor."""
    _peak_bytes(_reads(1, 4096), horizon_ns)
    assert _peak_bytes(_reads(64, 64 * 1024), horizon_ns) < 2.7 * 2 ** 20


@pytest.mark.parametrize("event_driven", [False, True],
                         ids=["tick", "event"])
def test_at_most_one_window_is_built_beyond_the_queues(event_driven):
    """After every refill, the built backlog holds RAS replays and at most
    one window of one request: no more blocks than the deepest queue.
    The drain mixes reads and writes across queues of two depths, under
    live faults that queue replays (no bank is offlined, which would take
    the eager path)."""
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, read_queue_depth=24,
                                write_queue_depth=16),
        reliability=ReliabilityConfig(
            seed=11, transient_ber=2e-4, retention_ber=4e-5,
            hard_row_rate=0.5, retry_backoff_ns=7))
    depth = max(mc.read_queue.capacity, mc.write_queue.capacity)
    refill = mc._refill
    windows = set()

    def checked_refill():
        served = refill()
        built = [transaction for transaction in mc._backlog
                 if not transaction.request.retry_attempt]
        assert len(built) <= depth
        assert len({id(transaction.request) for transaction in built}) <= 1
        if built:
            windows.add((built[-1].request.request_id,
                         built[-1].coordinate))
        assert mc._unbuilt_blocks == sum(
            cursor.end_block - cursor.next_block for cursor in mc._cursors)
        return served

    mc._refill = checked_refill
    for request in mixed_trace(32 * 1024, request_bytes=2048,
                               write_fraction=0.3, seed=5):
        mc.enqueue(request)
    mc.run_until_idle(event_driven=event_driven)
    assert mc.ras.stats.retries_scheduled > 0
    assert len(windows) > 16
    assert not mc._backlog and not mc._cursors


def test_enqueue_books_blocks_without_building_transactions():
    mc = ConventionalMemoryController(ControllerConfig(num_stack_ids=1))
    request = MemoryRequest(kind=RequestKind.WRITE, address=48,
                            size_bytes=4096)
    mc.enqueue(request)
    assert mc._pending_transactions == {request.request_id: 129}
    assert not mc._backlog
    (cursor,) = mc._cursors
    assert (cursor.request, cursor.is_read) == (request, False)
    assert (cursor.next_block, cursor.end_block) == (1, 130)
    assert mc._unbuilt_blocks == 129


def test_offlining_builds_earlier_cursors_ahead_of_the_remapped_request():
    """Once a bank is offline, a request is decomposed and re-striped on
    arrival, behind every block of earlier requests, which are built
    first and keep their coordinates."""
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=False),
        reliability=ReliabilityConfig(seed=3, transient_ber=1e-12,
                                      offline_after_row_failures=1))
    earlier = MemoryRequest(kind=RequestKind.READ, address=0,
                            size_bytes=4096)
    mc.enqueue(earlier)
    mc.run_for(40)
    offline = (0, 0, 0, 0)
    mc.ras._note_row_failure(offline)
    later = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=4096)
    mc.enqueue(later)
    assert not mc._cursors and mc._unbuilt_blocks == 0
    backlog = list(mc._backlog)
    split = [transaction.request for transaction in backlog].index(later)
    assert split and len(backlog) == split + 128
    assert [(transaction.request, transaction.coordinate)
            for transaction in backlog[:split]] == [
        (earlier, transaction.coordinate)
        for transaction in decompose(earlier, mc.mapping)[-split:]]
    assert all((transaction.coordinate.pseudo_channel,
                transaction.coordinate.stack_id,
                transaction.coordinate.bank_group,
                transaction.coordinate.bank) != offline
               for transaction in backlog[split:])
    mc.run_until_idle()
    assert earlier.completion_ns is not None
    assert later.completion_ns is not None
