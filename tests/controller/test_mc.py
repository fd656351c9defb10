"""Tests for the conventional FR-FCFS memory controller."""

import itertools
from collections import Counter

import pytest

from repro.controller.mc import ControllerConfig, ConventionalMemoryController
from repro.controller.request import MemoryRequest, RequestKind, decompose
from repro.dram.address import baseline_hbm4_mapping
from repro.dram.timing import TimingParameters
from repro.reliability import ReliabilityConfig
from repro.sim.traces import mixed_trace, streaming_trace


def _controller(**overrides) -> ConventionalMemoryController:
    defaults = dict(read_queue_depth=64, write_queue_depth=64,
                    num_stack_ids=1, enable_refresh=False)
    defaults.update(overrides)
    return ConventionalMemoryController(config=ControllerConfig(**defaults))


def test_single_read_completes_with_reasonable_latency():
    mc = _controller()
    request = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32)
    mc.enqueue(request)
    mc.run_until_idle()
    timing = mc.config.timing
    assert request.completion_ns is not None
    minimum = timing.tRCDRD + timing.tCL + timing.burst_ns
    assert minimum <= request.completion_ns <= minimum + 10


def test_row_hits_avoid_extra_activates():
    mc = _controller()
    # 8 sequential 32 B reads interleave over bank groups / PCs: 8 blocks span
    # 8 distinct banks in the default mapping, so at most 8 ACTs are needed,
    # and a second pass over the same addresses must not re-activate.
    for address in range(0, 256, 32):
        mc.enqueue(MemoryRequest(kind=RequestKind.READ, address=address, size_bytes=32))
    mc.run_until_idle()
    first_acts = mc.channel.command_counts().get("ACT", 0)
    for address in range(0, 256, 32):
        mc.enqueue(MemoryRequest(kind=RequestKind.READ, address=address, size_bytes=32))
    mc.run_until_idle()
    second_acts = mc.channel.command_counts().get("ACT", 0)
    assert first_acts <= 8
    assert second_acts == first_acts  # open-page policy kept the rows open


def test_streaming_reads_reach_high_bandwidth_utilization():
    mc = _controller()
    for request in streaming_trace(64 * 1024, request_bytes=4096):
        mc.enqueue(request)
    mc.run_until_idle()
    assert mc.bandwidth_utilization() > 0.9


def test_small_queue_limits_bandwidth():
    deep = _controller(read_queue_depth=64)
    shallow = _controller(read_queue_depth=4)
    for controller in (deep, shallow):
        for request in streaming_trace(32 * 1024, request_bytes=4096):
            controller.enqueue(request)
        controller.run_until_idle()
    assert shallow.bandwidth_utilization() < deep.bandwidth_utilization()


def test_writes_are_served_and_counted():
    mc = _controller()
    for request in streaming_trace(8 * 1024, request_bytes=1024,
                                   kind=RequestKind.WRITE):
        mc.enqueue(request)
    mc.run_until_idle()
    assert mc.stats.bytes_written == 8 * 1024
    assert mc.stats.bytes_read == 0
    assert mc.channel.command_counts().get("WR", 0) == 256


def test_mixed_reads_and_writes_complete():
    mc = _controller()
    mc.enqueue(MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=2048))
    mc.enqueue(MemoryRequest(kind=RequestKind.WRITE, address=8192, size_bytes=2048))
    mc.enqueue(MemoryRequest(kind=RequestKind.READ, address=16384, size_bytes=2048))
    end = mc.run_until_idle()
    assert mc.outstanding_requests == 0
    assert mc.stats.bytes_read == 4096
    assert mc.stats.bytes_written == 2048
    assert end > 0


def test_refresh_commands_issued_when_enabled():
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=True)
    )
    # Run long enough to cover several per-bank refresh intervals.
    mc.run_for(4 * mc.config.timing.tREFIpb)
    assert mc.stats.refreshes_issued > 0


@pytest.mark.parametrize("num_stack_ids", [1, 2])
def test_idle_controller_refreshes_every_bank(num_stack_ids):
    """Within one refresh period plus the postponement headroom every bank
    of every pseudo channel receives a REFpb, and each one is accounted
    to a refresh engine."""
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=num_stack_ids,
                                enable_refresh=True)
    )
    engines = mc.scheduler.refresh_engines
    mc.run_for(engines[0].interval() + engines[0].slack_ns())
    for pc in mc.channel.pseudo_channels:
        banks = pc.all_banks()
        assert len(banks) == 16 * num_stack_ids
        assert all(bank.counters.refreshes >= 1 for bank in banks)
    assert mc.channel.command_counts()["REFpb"] == sum(
        engine.issued for engine in engines)


def test_sub_nanosecond_refresh_interval_is_rejected():
    """Regression: with tREFIpb=0 every bank's interval was 0, so bank
    (0, 0, 0) stayed due forever and a read stream never drained."""
    with pytest.raises(ValueError, match="tREFIpb"):
        ConventionalMemoryController(
            config=ControllerConfig(num_stack_ids=1, enable_refresh=True,
                                    timing=TimingParameters(tREFIpb=0)))
    # Without refresh the knob is unused and the controller still builds.
    ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=False,
                                timing=TimingParameters(tREFIpb=0)))


def test_refresh_does_not_lose_requests():
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=True)
    )
    for request in streaming_trace(16 * 1024, request_bytes=4096):
        mc.enqueue(request)
    mc.run_until_idle()
    assert mc.stats.bytes_read == 16 * 1024


def test_energy_counters_match_command_counts():
    mc = _controller()
    for request in streaming_trace(16 * 1024, request_bytes=4096):
        mc.enqueue(request)
    mc.run_until_idle()
    counters = mc.energy_counters()
    commands = mc.channel.command_counts()
    assert counters.activates == commands.get("ACT", 0)
    assert counters.reads_bytes == 16 * 1024
    assert counters.interface_commands == sum(commands.values())


def test_bank_counters_add_up_to_the_channel_command_counts():
    """Every command the controller issues lands on exactly one bank's
    counters: ACT, PRE, RD, WR and REFpb are all per-bank commands."""
    mc = _controller(enable_refresh=True)
    for request in mixed_trace(32 * 1024, write_fraction=0.4, seed=3):
        mc.enqueue(request)
    mc.run_until_idle()
    banks = [bank for pc in mc.channel.pseudo_channels
             for bank in pc.all_banks()]
    totals = {name: sum(getattr(bank.counters, name) for bank in banks)
              for name in ("activates", "precharges", "reads", "writes",
                           "refreshes")}
    commands = mc.channel.command_counts()
    assert totals == {
        "activates": commands["ACT"],
        "precharges": commands.get("PRE", 0),
        "reads": commands["RD"],
        "writes": commands["WR"],
        "refreshes": commands["REFpb"],
    }
    assert set(commands) <= {"ACT", "PRE", "RD", "WR", "REFpb"}
    assert totals["refreshes"] == mc.stats.refreshes_issued > 0


@pytest.mark.parametrize("num_stack_ids", [1, 2])
def test_transaction_bank_index_names_the_channel_bank(num_stack_ids):
    """Every block of a local mapping indexes ``Channel.banks`` at the bank
    its coordinate names."""
    mc = _controller(num_stack_ids=num_stack_ids)
    mapping = mc.mapping
    request = MemoryRequest(kind=RequestKind.READ, address=0,
                            size_bytes=mapping.bytes_per_row_system)
    seen = set()
    for transaction in decompose(request, mapping):
        coord = transaction.coordinate
        bank = mc.channel.pseudo_channel(coord.pseudo_channel).bank(
            coord.bank_group, coord.bank, coord.stack_id)
        assert mc.channel.banks[transaction.bank_index] is bank
        seen.add(transaction.bank_index)
    assert seen == set(range(len(mc.channel.banks)))


def test_mapping_with_another_bank_geometry_is_rejected():
    config = ControllerConfig(num_stack_ids=1)
    with pytest.raises(ValueError, match="num_stack_ids"):
        ConventionalMemoryController(
            config=config, mapping=baseline_hbm4_mapping(num_channels=1))


def test_ras_remap_moves_the_bank_index_with_the_coordinate():
    """Transactions re-striped away from an offlined bank index the channel
    bank they now target, and drain without touching the offlined one."""
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=False),
        reliability=ReliabilityConfig(seed=3, transient_ber=1e-12,
                                      offline_after_row_failures=1))
    offline = (0, 0, 0, 0)
    mc.ras._note_row_failure(offline)
    assert offline in mc.ras.offline
    request = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=4096)
    mc.enqueue(request)
    assert mc.ras.stats.remapped_requests > 0
    for transaction in mc._backlog:
        coord = transaction.coordinate
        assert (coord.pseudo_channel, coord.stack_id, coord.bank_group,
                coord.bank) != offline
        assert mc.channel.banks[transaction.bank_index] is \
            mc.channel.pseudo_channel(coord.pseudo_channel).bank(
                coord.bank_group, coord.bank, coord.stack_id)
    mc.run_until_idle()
    assert request.completion_ns is not None
    assert mc.channel.banks[0].counters.reads == 0


def _outstanding(mc):
    """Per request id, its blocks not yet built (a request cursor's
    remaining blocks) and its transactions waiting in the backlog, in
    either queue or in the RAS layer's replay queue."""
    replays = [entry[2] for entry in mc.ras._replays]
    outstanding = Counter(transaction.request.request_id
                          for transaction in itertools.chain(
                              mc._backlog, mc.read_queue, mc.write_queue,
                              replays))
    for cursor in mc._cursors:
        outstanding[cursor.request.request_id] += \
            cursor.end_block - cursor.next_block
    return outstanding


@pytest.mark.parametrize("event_driven", [False, True], ids=["tick", "event"])
def test_pending_is_the_booking_of_every_waiting_transaction(event_driven):
    """At every instant a request is booked in ``_pending_transactions``
    exactly while transactions of it wait (backlogged, queued or queued
    for replay), with their count, so ``_pending()`` -- the booking alone
    -- is whether any work waits.  The drain runs under live faults, so
    DUE reads queue replays, and takes requests of no transactions, which
    complete on arrival and are never booked."""
    mc = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, read_queue_depth=16,
                                write_queue_depth=16),
        reliability=ReliabilityConfig(
            seed=11, transient_ber=2e-4, retention_ber=4e-5,
            hard_row_rate=0.5, retry_backoff_ns=7, spare_rows_per_bank=1,
            offline_after_row_failures=2))
    batches = [mixed_trace(16 * 1024, request_bytes=1024,
                           write_fraction=0.25, seed=seed,
                           start_address=seed * 65536)
               + [MemoryRequest(kind=kind, address=64, size_bytes=0)
                  for kind in RequestKind]
               for seed in range(2)]
    empty = [request for batch in batches for request in batch
             if not request.size_bytes]
    replays_seen = False
    for batch in batches:
        for request in batch:
            mc.enqueue(request)
        while True:
            outstanding = _outstanding(mc)
            assert dict(outstanding) == mc._pending_transactions
            assert mc._pending() == bool(outstanding)
            replays_seen = replays_seen or mc.ras.pending_replays > 0
            if not mc._pending():
                break
            if event_driven:
                mc.advance_to(mc.now + 3)
            else:
                mc.tick()
    assert replays_seen
    assert all(request.completion_ns == 0 for request in empty)
    assert all(request.completion_ns is not None
               for batch in batches for request in batch)
