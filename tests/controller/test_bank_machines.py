"""The request queues' live bank machines never drift.

The conventional controller keeps its queues' bank machines up to date
incrementally: on push, on every column issue, and on every ACT and PRE, on
the tick core and in the event core's decision loop alike.  This checks,
after every ``_step`` and every call of the loop, that each queue's machines
equal a from-scratch rebuild from its entries (in admission order) and the
live ``Bank.open_row`` values.
"""

from hypothesis import given, settings, strategies as st

from repro.controller.mc import ControllerConfig, ConventionalMemoryController
from repro.controller.request import MemoryRequest, RequestKind
from repro.dram.address import DramCoordinate


def _rebuilt_machines(queue, banks):
    """What :meth:`RequestQueue.machines` must read, derived by brute
    force from the queue's entries and the banks' open rows."""
    open_rows = tuple(bank.open_row for bank in banks)
    by_bank = [[] for _ in banks]
    for transaction in queue:
        by_bank[transaction.bank_index].append(transaction)
    fifos = tuple(tuple(fifo) for fifo in by_bank)
    hits = [[t for t in fifo if t.coordinate.row == open_rows[index]]
            for index, fifo in enumerate(fifos)]
    first_hits = tuple(bank_hits[0] if bank_hits else None
                       for bank_hits in hits)
    first_misses = tuple(
        fifo[0] if fifo and fifo[0].coordinate.row != open_rows[index]
        else None
        for index, fifo in enumerate(fifos))
    hit_ids = {id(t) for t in first_hits if t is not None}
    miss_ids = {id(t) for t in first_misses if t is not None}
    return (
        open_rows,
        fifos,
        tuple(len(bank_hits) for bank_hits in hits),
        first_hits,
        first_misses,
        tuple(t for t in queue if id(t) in hit_ids),
        tuple(t for t in queue if id(t) in miss_ids),
    )


def _assert_machines_exact(controller):
    banks = controller.channel.banks
    for queue in (controller.read_queue, controller.write_queue):
        assert list(queue.entries) == sorted(queue.entries)
        assert queue.machines() == _rebuilt_machines(queue, banks)


def _checked(controller):
    """Check the machines after every ``_step`` and every call of the
    event core's decision loop (``FrFcfsScheduler.plan_train``)."""
    step, loop = controller._step, controller.scheduler.plan_train
    checks = {"steps": 0, "loops": 0}

    def checked_step(now):
        acted = step(now)
        _assert_machines_exact(controller)
        checks["steps"] += 1
        return acted

    def checked_loop(mc, target_ns, *stops):
        evaluations = mc.stats.evaluations
        issued = loop(mc, target_ns, *stops)
        _assert_machines_exact(controller)
        checks["loops"] += mc.stats.evaluations - evaluations
        return issued

    controller._step = checked_step
    controller.scheduler.plan_train = checked_loop
    return checks


@st.composite
def _conflicting_mixes(draw):
    """Refresh off or on, a queue depth, and two batches of mixed reads
    and writes of 32 B-4 KiB whose first blocks fall on one or two
    (stack ID, bank) pairs and rows 0-2, the second batch arriving
    mid-run: few banks, many row hits and conflicts, and backlogs that
    outgrow the queues."""
    enable_refresh = draw(st.booleans())
    depth = draw(st.sampled_from([8, 64]))
    mapping = ControllerConfig(num_stack_ids=2).local_mapping()
    banks = draw(st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 3)),
        min_size=1, max_size=2, unique=True))

    def batch():
        requests = []
        for _ in range(draw(st.integers(1, 5))):
            stack_id, bank = draw(st.sampled_from(banks))
            first = DramCoordinate(
                channel=0, pseudo_channel=draw(st.integers(0, 1)),
                stack_id=stack_id, bank_group=draw(st.integers(0, 3)),
                bank=bank, row=draw(st.integers(0, 2)),
                column=draw(st.integers(0, 31)))
            requests.append(MemoryRequest(
                kind=draw(st.sampled_from([RequestKind.READ,
                                           RequestKind.WRITE])),
                address=mapping.encode(first),
                size_bytes=32 * draw(st.integers(1, 128))))
        return requests

    first, second = batch(), batch()
    arrival_ns = draw(st.integers(0, 400))
    return enable_refresh, depth, first, arrival_ns, second


@settings(deadline=None, max_examples=25)
@given(spec=_conflicting_mixes())
def test_bank_machines_match_a_rebuild_after_every_evaluation(spec):
    enable_refresh, depth, first, arrival_ns, second = spec
    for event_driven in (False, True):
        controller = ConventionalMemoryController(
            config=ControllerConfig(num_stack_ids=2,
                                    enable_refresh=enable_refresh,
                                    read_queue_depth=depth,
                                    write_queue_depth=depth))
        checks = _checked(controller)
        for request in first:
            controller.enqueue(MemoryRequest(
                kind=request.kind, address=request.address,
                size_bytes=request.size_bytes))
        controller.run_for(arrival_ns, event_driven=event_driven)
        for request in second:
            controller.enqueue(MemoryRequest(
                kind=request.kind, address=request.address,
                size_bytes=request.size_bytes, arrival_ns=controller.now))
        controller.run_until_idle(event_driven=event_driven)
        assert controller.read_queue.is_empty
        assert controller.write_queue.is_empty
        # Every evaluation, step or loop call, was checked.
        assert controller.stats.evaluations > 0
        assert checks["steps"] + checks["loops"] \
            == controller.stats.evaluations
        assert (checks["loops"] > 0) == event_driven
