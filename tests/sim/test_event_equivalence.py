"""Cycle-exactness of the event-driven cores.

The event-driven simulation core must produce *identical* results to
per-nanosecond ticking: same command issue times, same statistics, same
energy counters, same end-of-run timestamps, and identical state at
``run_for`` boundaries.  Three comparisons are made:

* RoMe event core vs. the controller's own legacy 1-ns ``tick()`` wrapper;
* RoMe event core vs. the frozen seed implementation
  (:class:`repro.sim.reference.ReferenceRoMeController`), an independent
  oracle that predates every hot-path optimization in this tree;
* conventional controller event core vs. its legacy ``tick()`` wrapper.
"""

import random

import pytest

from repro.controller.mc import ControllerConfig, ConventionalMemoryController
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.controller import RoMeControllerConfig, RoMeMemoryController
from repro.core.interface import RowRequest, RowRequestKind, requests_for_transfer
from repro.core.virtual_bank import paper_vba_config
from repro.dram.address import DramCoordinate, baseline_hbm4_mapping
from repro.sim.engine import Simulation
from repro.sim.memory_system import MemorySystemConfig, RoMeMemorySystem
from repro.sim.reference import ReferenceRoMeController
from repro.sim.traces import mixed_trace, random_trace, streaming_trace


# --------------------------------------------------------------------- RoMe


def _streaming_rows(total_bytes: int):
    vba = paper_vba_config()
    return requests_for_transfer(
        total_bytes,
        kind=RowRequestKind.RD_ROW,
        effective_row_bytes=vba.effective_row_bytes,
        num_channels=1,
        vbas_per_channel=vba.vbas_per_channel_per_sid,
    )


def _mixed_rows(seed: int, count: int, vbas: int = 8, stacks: int = 2):
    rng = random.Random(seed)
    return [
        RowRequest(
            kind=rng.choice([RowRequestKind.RD_ROW, RowRequestKind.WR_ROW]),
            vba=rng.randrange(vbas),
            stack_id=rng.randrange(stacks),
            row=rng.randrange(64),
            valid_bytes=rng.choice([4096, 1000]),
        )
        for _ in range(count)
    ]


def _rome_fingerprint(controller, requests):
    return (
        controller.now,
        controller.stats,
        controller.energy_counters(),
        [(r.issue_ns, r.completion_ns) for r in requests],
    )


def _run_rome(make_controller, requests, runner):
    controller = make_controller()
    for request in requests:
        controller.enqueue(request)
    runner(controller)
    return _rome_fingerprint(controller, requests)


ROME_SCENARIOS = {
    "streaming": (False, lambda: _streaming_rows(64 * 4096)),
    "mixed-rw": (False, lambda: _mixed_rows(seed=7, count=200)),
    "refresh-streaming": (True, lambda: _streaming_rows(128 * 4096)),
    "refresh-mixed": (True, lambda: _mixed_rows(seed=11, count=200)),
}


@pytest.mark.parametrize("name", sorted(ROME_SCENARIOS))
def test_rome_event_core_matches_tick_core(name):
    enable_refresh, make_requests = ROME_SCENARIOS[name]

    def make_controller():
        return RoMeMemoryController(
            config=RoMeControllerConfig(num_stack_ids=2,
                                        enable_refresh=enable_refresh)
        )

    event = _run_rome(make_controller, make_requests(),
                      lambda c: c.run_until_idle(event_driven=True))
    tick = _run_rome(make_controller, make_requests(),
                     lambda c: c.run_until_idle(event_driven=False))
    assert event == tick


@pytest.mark.parametrize("name", sorted(ROME_SCENARIOS))
def test_rome_event_core_matches_seed_reference(name):
    enable_refresh, make_requests = ROME_SCENARIOS[name]
    config = RoMeControllerConfig(num_stack_ids=2, enable_refresh=enable_refresh)
    event = _run_rome(lambda: RoMeMemoryController(config=config),
                      make_requests(), lambda c: c.run_until_idle())
    seed = _run_rome(lambda: ReferenceRoMeController(config=config),
                     make_requests(), lambda c: c.run_until_idle())
    assert event == seed


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_rome_run_for_boundaries_are_tick_identical(depth):
    """Interrupting the event core at arbitrary instants must expose the
    same queue/backlog/stat state the tick core would have."""
    snapshots = []
    for event_driven in (False, True):
        controller = RoMeMemoryController(
            config=RoMeControllerConfig(num_stack_ids=2, enable_refresh=True,
                                        request_queue_depth=depth)
        )
        for request in _mixed_rows(seed=3, count=120):
            controller.enqueue(request)
        states = []
        for _ in range(15):
            controller.run_for(333, event_driven=event_driven)
            states.append((
                controller.now,
                controller.queue_occupancy,
                controller.outstanding_requests,
                controller.stats.served_reads,
                controller.stats.served_writes,
                controller.stats.refreshes_issued,
            ))
        controller.run_until_idle(event_driven=event_driven)
        snapshots.append((states, controller.now, controller.stats))
    assert snapshots[0] == snapshots[1]


def test_rome_memory_system_results_identical_across_cores():
    results = []
    for event_driven in (False, True):
        system = RoMeMemorySystem(MemorySystemConfig(
            num_channels=2,
            rome_controller=RoMeControllerConfig(num_stack_ids=1,
                                                 enable_refresh=True),
        ))
        for request in _streaming_rows(96 * 4096):
            request.channel = request.channel % 2
            system.enqueue(request)
        system.run_until_idle(event_driven=event_driven)
        results.append(system.result())
    assert results[0] == results[1]


def test_rome_refresh_only_run_for_matches_tick():
    fingerprints = []
    for event_driven in (False, True):
        controller = RoMeMemoryController(
            config=RoMeControllerConfig(num_stack_ids=1, enable_refresh=True)
        )
        controller.run_for(10 * controller.config.timing.tREFIpb,
                           event_driven=event_driven)
        fingerprints.append((controller.now, controller.stats))
    assert fingerprints[0] == fingerprints[1]
    assert fingerprints[0][1].refreshes_issued > 0


# ------------------------------------------------------------- conventional


def _conventional_trace(name: str, seed: int):
    if name == "streaming":
        return streaming_trace(64 * 1024, request_bytes=4096,
                               kind=RequestKind.READ)
    if name == "mixed":
        return mixed_trace(48 * 1024, write_fraction=0.4, seed=seed)
    return random_trace(192, 1 << 22, request_bytes=256, seed=seed)


@pytest.mark.parametrize("name", ["streaming", "mixed", "random"])
@pytest.mark.parametrize("enable_refresh", [False, True])
def test_conventional_event_core_matches_tick_core(name, enable_refresh):
    fingerprints = []
    for event_driven in (False, True):
        controller = ConventionalMemoryController(
            config=ControllerConfig(num_stack_ids=1,
                                    enable_refresh=enable_refresh)
        )
        for request in _conventional_trace(name, seed=5):
            controller.enqueue(request)
        states = []
        for _ in range(8):
            controller.run_for(250, event_driven=event_driven)
            states.append((
                controller.now,
                controller.read_queue.occupancy,
                controller.write_queue.occupancy,
                controller.stats.served_reads,
                controller.stats.served_writes,
            ))
        controller.run_until_idle(event_driven=event_driven)
        fingerprints.append((
            states,
            controller.now,
            controller.stats,
            controller.channel.command_counts(),
            controller.energy_counters(),
        ))
    assert fingerprints[0] == fingerprints[1]


# -------------------------------------------------------- saturated drains


def _drain_conventional(trace, event_driven, enable_refresh=False):
    controller = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1,
                                enable_refresh=enable_refresh)
    )
    requests = list(trace)
    for request in requests:
        controller.enqueue(request)
    end = controller.run_until_idle(event_driven=event_driven)
    return controller, (
        end,
        controller.stats,
        controller.channel.command_counts(),
        controller.energy_counters(),
        [request.completion_ns for request in requests],
    )


@pytest.mark.parametrize("enable_refresh", [False, True])
@pytest.mark.parametrize("name", ["streaming", "mixed", "random"])
def test_conventional_burst_train_drain_is_bit_identical(name, enable_refresh):
    """Full saturated drains match the tick core stat-for-stat,
    command-for-command, and per-request."""
    make = lambda: _conventional_trace(name, seed=13)
    event_controller, event = _drain_conventional(make(), True, enable_refresh)
    tick_controller, tick = _drain_conventional(make(), False, enable_refresh)
    assert event == tick
    if name == "streaming":
        # The event core must evaluate far less often than once per ns on
        # saturated streaming, with refresh *on* as well (its loop issues
        # the REFpbs inside the advance): >= 5x fewer scheduler
        # evaluations than one-per-nanosecond.
        assert event_controller.stats.evaluations * 5 \
            <= tick_controller.stats.evaluations
        if enable_refresh:
            assert event_controller.stats.refreshes_issued > 0


def _row_conflict_trace(num_requests=12):
    """Row conflicts in two shapes.

    First a 32 B read opens row 0 of bank 0 (bank group 0, PC 0) and a
    read to row 1 of that bank queues behind it.  Reads to bank 1 of the
    same bank group, one ahead of them and 15 behind, take every column
    slot of the group past tRAS ahead of a young row-0 hit to bank 0.
    The miss heads bank 0's queue while the hit waits unserved and a PRE
    would be legal, so only the pending-hit rule keeps the row open.
    Then 4 KiB requests alternate between two rows of the same banks
    (every fourth one a write).
    """
    mapping = baseline_hbm4_mapping(num_channels=1)
    row_bytes = mapping.bytes_per_row_system
    base = 2 * row_bytes
    column_bytes = 256
    bank_bytes = 8192
    same_group = [
        MemoryRequest(kind=RequestKind.READ,
                      address=bank_bytes + column_bytes * column,
                      size_bytes=32)
        for column in range(16)
    ]
    starved_hit = [
        same_group[0],
        MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32),
        MemoryRequest(kind=RequestKind.READ, address=row_bytes,
                      size_bytes=32),
        *same_group[1:],
        MemoryRequest(kind=RequestKind.READ, address=column_bytes,
                      size_bytes=32),
    ]
    return starved_hit + [
        MemoryRequest(
            kind=RequestKind.WRITE if index % 4 == 3 else RequestKind.READ,
            address=base + (index % 2) * row_bytes + (index // 2) * 4096,
            size_bytes=4096,
        )
        for index in range(num_requests)
    ]


@pytest.mark.parametrize("enable_refresh", [False, True])
def test_conventional_row_conflict_drain_is_bit_identical(enable_refresh):
    """A drain dominated by row conflicts, whose busy periods carry ACTs
    and PREs, matches the tick core stat-for-stat and per-request."""
    event_controller, event = _drain_conventional(
        _row_conflict_trace(), True, enable_refresh)
    tick_controller, tick = _drain_conventional(
        _row_conflict_trace(), False, enable_refresh)
    assert event == tick
    assert event_controller.channel.command_counts()["PRE"] > 0
    assert event_controller.stats.evaluations \
        < tick_controller.stats.evaluations


def _command_key(command):
    return (command.kind, command.pseudo_channel, command.stack_id,
            command.bank_group, command.bank, command.row)


def _record_channel_issues(controller):
    """Record, per instant, the key of every command the controller's
    channel issues (``Channel.issue`` and ``Channel.issue_column``) and
    every transaction the controller serves.  Returns both dicts."""
    issued, served = {}, {}
    channel = controller.channel
    issue, issue_column = channel.issue, channel.issue_column
    serve = controller._issue_column

    def record_issue(command, now):
        issued.setdefault(now, []).append(_command_key(command))
        issue(command, now)

    def record_column(pc, kind, sid, bank_group, bank, row, now):
        issued.setdefault(now, []).append(
            (kind, pc, sid, bank_group, bank, row))
        issue_column(pc, kind, sid, bank_group, bank, row, now)

    def record_serve(transaction, now):
        served.setdefault(now, []).append(transaction)
        serve(transaction, now)

    channel.issue = record_issue
    channel.issue_column = record_column
    controller._issue_column = record_serve
    return issued, served


def _issue_logs_of_both_cores(make_controller, make_requests):
    """Drain fresh requests on a fresh controller with the tick core, then
    with the event core, recording at the channel.  Asserts both cores
    issue exactly the same commands at the same instants and serve the
    same transactions at them; returns the event core's controller and
    its logs (``(issued, served)``, served as transactions)."""
    logs = []
    for event_driven in (False, True):
        controller = make_controller()
        for request in make_requests():
            controller.enqueue(request)
        issued, served = _record_channel_issues(controller)
        controller.run_until_idle(event_driven=event_driven)
        logs.append((issued, served))
    (tick_issued, tick_served), (issued, served) = logs
    assert issued == tick_issued

    def columns(log):
        return {now: [(t.coordinate, t.is_read) for t in transactions]
                for now, transactions in log.items()}

    assert columns(served) == columns(tick_served)
    return controller, issued, served


@pytest.mark.parametrize("enable_refresh", [False, True])
def test_event_core_issues_the_commands_the_steps_issue(enable_refresh):
    """On a row-conflict drain the event core's decision loop issues
    every command -- ACT, PRE, RD, WR and REFpb -- at the very instant the
    per-step scheduler does, and serves the same transactions."""
    _, issued, _ = _issue_logs_of_both_cores(
        lambda: ConventionalMemoryController(
            config=ControllerConfig(num_stack_ids=1,
                                    enable_refresh=enable_refresh)),
        lambda: _row_conflict_trace(num_requests=8))
    kinds = {key[0].value for keys in issued.values() for key in keys}
    assert kinds == {"ACT", "PRE", "RD", "WR"} | (
        {"REFpb"} if enable_refresh else set())


def test_event_core_serves_a_hit_behind_an_older_miss_as_the_steps_do():
    """The per-step scheduler serves a row hit queued behind an older miss
    of the same bank (the pending-hit rule keeps the row open for it).
    The event core serves those hits too, at the same instants."""
    behind_per_core = []

    def make_controller():
        controller = ConventionalMemoryController(
            config=ControllerConfig(num_stack_ids=1, enable_refresh=False))
        issue_column = controller._issue_column
        behind = []
        behind_per_core.append(behind)

        def record(transaction, now):
            queue = (controller.read_queue if transaction.is_read
                     else controller.write_queue)
            for older in queue:
                if older is transaction:
                    break
                if older.bank_index == transaction.bank_index \
                        and not older.served:
                    behind.append(now)
                    break
            issue_column(transaction, now)

        controller._issue_column = record
        return controller

    _issue_logs_of_both_cores(make_controller,
                              lambda: _row_conflict_trace(num_requests=0))
    tick_behind, event_behind = behind_per_core
    assert event_behind and event_behind == tick_behind


def _run_conventional_with_arrivals(event_driven, enable_refresh=False):
    controller = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=enable_refresh)
    )
    # Lockstep mode is forced with an on_cycle hook (the legacy escape
    # hatch); event mode uses arrival-bounded advance_to.
    simulation = Simulation(
        controllers=[controller],
        on_cycle=None if event_driven else (lambda now: None),
    )
    for request in streaming_trace(48 * 1024, request_bytes=4096,
                                   kind=RequestKind.READ):
        controller.enqueue(request)
    arrivals = []
    for index, request in enumerate(
        streaming_trace(16 * 1024, request_bytes=4096,
                        kind=RequestKind.READ, start_address=1 << 20)
    ):
        # Arrival instants chosen to land mid-burst while the initial
        # drain saturates the channel.
        time_ns = 37 + 111 * index
        request.arrival_ns = time_ns
        arrivals.append(request)
        simulation.at(
            time_ns, lambda now, request=request: controller.enqueue(request)
        )
    simulation.run_for(3000)
    controller.run_until_idle(event_driven=event_driven)
    return controller, arrivals


@pytest.mark.parametrize("enable_refresh", [False, True])
def test_arrival_mid_train_truncates_at_exact_nanosecond(enable_refresh):
    """A ``Simulation.at`` arrival due mid-burst must be enqueued before
    any controller evaluates that instant: the event run (refresh on or
    off) and the forced-lockstep run must
    agree on every statistic and on the arrivals' completion times."""
    fingerprints = []
    for event_driven in (False, True):
        controller, arrivals = _run_conventional_with_arrivals(
            event_driven, enable_refresh)
        assert all(request.completion_ns is not None for request in arrivals)
        fingerprints.append((
            controller.now,
            controller.stats,
            controller.channel.command_counts(),
            controller.energy_counters(),
            [request.completion_ns for request in arrivals],
        ))
    assert fingerprints[0] == fingerprints[1]


def _assert_rome_evaluations_bounded(controller):
    """The event core evaluates about once per issued command (at most two
    per read or refresh, counting the wake-up a refresh forces on the next
    ns) and at least 10x less often than the tick core's one per ns."""
    stats = controller.stats
    assert stats.evaluations <= 2 * (stats.served_reads
                                     + stats.refreshes_issued)
    assert stats.evaluations * 10 <= controller.now


def test_rome_event_core_drain_is_bounded_and_matches_seed_reference():
    """A saturated streaming drain on the event core stays bit-identical
    to the frozen seed oracle while evaluating about once per issued
    command, an order of magnitude fewer than the tick core's one per ns."""
    config = RoMeControllerConfig(num_stack_ids=1, enable_refresh=False)
    requests = _streaming_rows(96 * 4096)
    event = RoMeMemoryController(config=config)
    for request in requests:
        event.enqueue(request)
    event.run_until_idle()
    seed_fingerprint = _run_rome(
        lambda: ReferenceRoMeController(config=config),
        _streaming_rows(96 * 4096), lambda c: c.run_until_idle(),
    )
    assert _rome_fingerprint(event, requests) == seed_fingerprint
    _assert_rome_evaluations_bounded(event)


def test_rome_refresh_enabled_event_core_drain_is_bounded_and_matches_seed():
    """Under refresh pressure (the paper's steady state) the event core
    stays bit-identical to the frozen seed oracle and keeps its bound: a
    refresh costs an evaluation just as a data command does."""
    config = RoMeControllerConfig(num_stack_ids=1, enable_refresh=True)
    requests = _streaming_rows(128 * 4096)
    event = RoMeMemoryController(config=config)
    for request in requests:
        event.enqueue(request)
    event.run_until_idle()
    seed_fingerprint = _run_rome(
        lambda: ReferenceRoMeController(config=config),
        _streaming_rows(128 * 4096), lambda c: c.run_until_idle(),
    )
    assert _rome_fingerprint(event, requests) == seed_fingerprint
    assert event.stats.refreshes_issued > 0
    _assert_rome_evaluations_bounded(event)


def test_rome_arrival_mid_drain_with_refresh_is_lockstep_identical():
    """RoMe arrivals scheduled mid-drain (refresh enabled) must cut the
    event core's jumps at the exact arrival instant: the event run and the
    forced lockstep run agree on every statistic and completion time."""
    fingerprints = []
    for event_driven in (False, True):
        controller = RoMeMemoryController(
            config=RoMeControllerConfig(num_stack_ids=1, enable_refresh=True)
        )
        simulation = Simulation(
            controllers=[controller],
            on_cycle=None if event_driven else (lambda now: None),
        )
        initial = _streaming_rows(48 * 4096)
        for request in initial:
            controller.enqueue(request)
        arrivals = _streaming_rows(16 * 4096)
        for index, request in enumerate(arrivals):
            time_ns = 53 + 97 * index
            request.arrival_ns = time_ns
            simulation.at(
                time_ns,
                lambda now, request=request: controller.enqueue(request),
            )
        simulation.run_for(4000)
        controller.run_until_idle(event_driven=event_driven)
        assert all(r.completion_ns is not None for r in initial + arrivals)
        fingerprints.append((
            controller.now,
            controller.stats,
            controller.energy_counters(),
            [r.completion_ns for r in initial + arrivals],
        ))
    assert fingerprints[0] == fingerprints[1]


# ------------------------------------------------- workload-generated schedules
#
# Arrival-driven workloads from repro.workloads compile seeded schedules
# (prefill bursts, shared decode iterations, multi-tenant merges) onto
# Simulation.at; the driver's event runs must stay bit-identical to the
# forced-lockstep runs on both controllers.


from repro.workloads.driver import run_workload  # noqa: E402
from repro.workloads.scenarios import ScenarioSpec  # noqa: E402
from repro.workloads.serving import ServingConfig  # noqa: E402

#: Small, dense shapes so the lockstep reference stays affordable while
#: arrivals still land inside saturated spans.
_WORKLOAD_SERVING = ServingConfig(
    model_name="grok-1",
    batch_capacity=2,
    prompt_tokens=128,
    output_tokens=2,
    iteration_interval_ns=512,
    traffic_scale=2.0 ** -26,
)

WORKLOAD_SCENARIOS = {
    "decode-serving": dict(rate_per_s=400_000.0, num_requests=4, seed=3),
    "prefill-interleaved": dict(rate_per_s=300_000.0, num_requests=4, seed=5),
    "mixed-tenant": dict(rate_per_s=400_000.0, num_requests=4, seed=7),
    "antagonist": dict(rate_per_s=100_000.0, num_requests=6, seed=9),
}


@pytest.mark.parametrize("system", ["rome", "hbm4"])
@pytest.mark.parametrize("name", sorted(WORKLOAD_SCENARIOS))
def test_workload_event_run_is_lockstep_identical(name, system):
    """>= 3 workload-generated scenarios per controller: the event core
    (arrival truncation included) must reproduce the forced 1-ns
    lockstep run bit-for-bit, WorkloadResult-for-WorkloadResult."""
    spec = ScenarioSpec(scenario=name, system=system,
                        serving=_WORKLOAD_SERVING,
                        **WORKLOAD_SCENARIOS[name])
    event = run_workload(spec, event_driven=True)
    lockstep = run_workload(spec, event_driven=False)
    assert event == lockstep
    # The flag and percentiles derive from identical samples.
    assert event.overloaded == lockstep.overloaded
    assert event.latency.p99 == lockstep.latency.p99


@pytest.mark.parametrize("system", ["rome", "hbm4"])
def test_workload_arrival_on_train_boundary_truncates_identically(system):
    """run_for/next_arrival_ns interplay: a saturating drain transfer at
    t=0 keeps the channel saturated while a dense fixed-rate
    foreground lands arrivals throughout the drain -- including instants
    inside busy periods.  Event and tick cores
    must truncate identically (extends the arrival-mid-train tests with a
    workload-generated schedule)."""
    from repro.workloads.arrivals import Transfer, compile_schedule

    drain = compile_schedule([0], [Transfer(read_bytes=48 * 1024, tag="drain")])
    # 97 ns spacing sweeps arrival instants across every phase of the
    # hbm4 CAS grid and of RoMe's row-command grid.
    foreground = compile_schedule(
        [97 * (index + 1) for index in range(30)],
        [Transfer(read_bytes=4096, tag="fg")] * 30)
    schedule = drain.merged(foreground)
    spec = ScenarioSpec(scenario="streaming-drain", system=system,
                        num_requests=1, serving=_WORKLOAD_SERVING)
    event = run_workload(spec, schedule=schedule, event_driven=True)
    lockstep = run_workload(spec, schedule=schedule, event_driven=False)
    assert event == lockstep
    # The merged load keeps the channel near peak through the horizon, so
    # arrivals land in busy periods.
    assert event.utilization > 0.5
    # The event core must actually skip instants for the truncation to
    # matter.
    assert event.evaluations < lockstep.evaluations


@pytest.mark.parametrize("system", ["rome", "hbm4"])
def test_workload_refresh_enabled_stays_lockstep_identical(system):
    """Refresh under arrival-driven load: the refresh FSMs
    keep firing between and during transfers, and the event run must
    still match lockstep exactly."""
    spec = ScenarioSpec(scenario="decode-serving", system=system,
                        rate_per_s=200_000.0, num_requests=3, seed=1,
                        enable_refresh=True, serving=_WORKLOAD_SERVING)
    event = run_workload(spec, event_driven=True)
    lockstep = run_workload(spec, event_driven=False)
    assert event == lockstep


@pytest.mark.parametrize("enable_refresh", [False, True],
                         ids=["refresh-off", "refresh-on"])
@pytest.mark.parametrize("system", ["rome", "hbm4"])
def test_closed_loop_run_is_lockstep_identical(system, enable_refresh):
    """Closed-loop serving feeds controller completion instants back into
    the launch schedule, so any event/lockstep divergence would *compound*
    across iterations; the full WorkloadResult (SLO block included) must
    still match bit-for-bit, with and without the refresh FSMs."""
    from repro.workloads.serving import SLOSpec

    spec = ScenarioSpec(scenario="decode-serving", system=system,
                        rate_per_s=2_000_000.0, num_requests=4, seed=3,
                        enable_refresh=enable_refresh,
                        serving=_WORKLOAD_SERVING, closed_loop=True,
                        slo=SLOSpec(ttft_ms=0.002, tpot_ms=0.001))
    event = run_workload(spec, event_driven=True)
    lockstep = run_workload(spec, event_driven=False)
    assert event == lockstep
    assert event.goodput_per_s == lockstep.goodput_per_s
    assert event.ttft == lockstep.ttft
    assert event.tpot == lockstep.tpot
    assert event.requests == 4


# -------------------------------------------------- refresh postponement edge


def test_conventional_train_does_not_outlive_the_drain():
    """Regression (hypothesis-found): with tREFIpb=163/tRFCpb=82 and no
    postponement budget, the planner used to append a refresh-only step
    (a critical PRE) *after* the step that served the final transaction
    -- an instant a draining per-step core never evaluates, leaving the
    event run one PRE and one nanosecond ahead.  The event core must stop
    once the queues and backlog are exhausted."""
    from repro.dram.timing import TimingParameters

    timing = TimingParameters(tREFIpb=163, tRFCpb=82)
    fingerprints = []
    for event_driven in (False, True):
        controller = ConventionalMemoryController(
            config=ControllerConfig(num_stack_ids=1, enable_refresh=True,
                                    timing=timing)
        )
        for engine in controller.scheduler.refresh_engines:
            engine.max_postponed = 0
        for request in streaming_trace(16 * 1024, request_bytes=4096,
                                       kind=RequestKind.READ):
            controller.enqueue(request)
        end = controller.run_until_idle(event_driven=event_driven)
        fingerprints.append((
            end,
            controller.stats,
            controller.channel.command_counts(),
            controller.energy_counters(),
        ))
    assert fingerprints[0] == fingerprints[1]


@pytest.mark.parametrize("max_postponed", [0, 1])
@pytest.mark.parametrize("name", ["streaming", "mixed"])
def test_conventional_postponement_edge_stays_bit_identical(
        name, max_postponed):
    """With the postponement budget at its edge every due refresh turns
    critical (almost) immediately, forcing planned critical precharges into
    trains; results must stay tick-identical."""
    fingerprints = []
    for event_driven in (False, True):
        controller = ConventionalMemoryController(
            config=ControllerConfig(num_stack_ids=1, enable_refresh=True)
        )
        for engine in controller.scheduler.refresh_engines:
            engine.max_postponed = max_postponed
        for request in _conventional_trace(name, seed=29):
            controller.enqueue(request)
        end = controller.run_until_idle(event_driven=event_driven)
        fingerprints.append((
            end,
            controller.stats,
            controller.channel.command_counts(),
            controller.energy_counters(),
        ))
    assert fingerprints[0] == fingerprints[1]
    assert fingerprints[0][1].refreshes_issued > 0


@pytest.mark.parametrize("max_postponed", [0, 1])
def test_rome_postponement_edge_stays_bit_identical(max_postponed):
    """Critical refreshes bypass refresh-FSM saturation; at the edge of the
    postponement budget the planner must model that transition exactly."""
    fingerprints = []
    for event_driven in (False, True):
        controller = RoMeMemoryController(
            config=RoMeControllerConfig(num_stack_ids=2, enable_refresh=True)
        )
        controller.refresh.max_postponed = max_postponed
        for request in _mixed_rows(seed=17, count=160):
            controller.enqueue(request)
        controller.run_until_idle(event_driven=event_driven)
        fingerprints.append((controller.now, controller.stats,
                             controller.energy_counters()))
    assert fingerprints[0] == fingerprints[1]
    assert fingerprints[0][1].refreshes_issued > 0


# ------------------------------------------------- refresh-knob property sweep


from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(deadline=None, max_examples=12)
@given(
    trefipb=st.integers(min_value=40, max_value=300),
    trfcpb=st.integers(min_value=40, max_value=400),
    max_postponed=st.integers(min_value=0, max_value=6),
    num_stack_ids=st.sampled_from([1, 2]),
)
def test_conventional_refresh_knobs_property_bit_identity(
        trefipb, trfcpb, max_postponed, num_stack_ids):
    """Train-vs-tick bit-identity must hold across the refresh timing
    design space: deadline cadence (tREFIpb), stall length (tRFCpb), the
    postponement bound / criticality threshold, and the stack IDs the
    (stack ID, bank group, bank) rotation runs over."""
    from repro.dram.timing import TimingParameters

    timing = TimingParameters(tREFIpb=trefipb, tRFCpb=trfcpb)
    fingerprints = []
    for event_driven in (False, True):
        controller = ConventionalMemoryController(
            config=ControllerConfig(num_stack_ids=num_stack_ids,
                                    enable_refresh=True, timing=timing)
        )
        for engine in controller.scheduler.refresh_engines:
            engine.max_postponed = max_postponed
        for request in streaming_trace(16 * 1024, request_bytes=4096,
                                       kind=RequestKind.READ):
            controller.enqueue(request)
        end = controller.run_until_idle(event_driven=event_driven)
        fingerprints.append((
            end,
            controller.stats,
            controller.channel.command_counts(),
            controller.energy_counters(),
        ))
    assert fingerprints[0] == fingerprints[1]


@settings(deadline=None, max_examples=12)
@given(
    trefipb=st.integers(min_value=40, max_value=300),
    trfcpb=st.integers(min_value=40, max_value=400),
    max_postponed=st.integers(min_value=0, max_value=6),
)
def test_rome_refresh_knobs_property_bit_identity(
        trefipb, trfcpb, max_postponed):
    """Same sweep on the RoMe controller: the planner's modeled refresh
    FSM pool, VBA stalls, and criticality transitions must stay exact for
    any legal knob combination."""
    from repro.dram.timing import TimingParameters

    conventional = TimingParameters(tREFIpb=trefipb, tRFCpb=trfcpb)
    fingerprints = []
    for event_driven in (False, True):
        controller = RoMeMemoryController(
            config=RoMeControllerConfig(num_stack_ids=2, enable_refresh=True,
                                        conventional_timing=conventional)
        )
        controller.refresh.max_postponed = max_postponed
        for request in _mixed_rows(seed=23, count=120):
            controller.enqueue(request)
        controller.run_until_idle(event_driven=event_driven)
        fingerprints.append((controller.now, controller.stats,
                             controller.energy_counters()))
    assert fingerprints[0] == fingerprints[1]


# ------------------------------------- generated tick-vs-event differential


@st.composite
def _bank_focused_drains(draw):
    """A drain spec: 1 or 2 stack IDs, refresh off or on, a queue depth,
    and 1-6 mixed reads and writes of 32 B-4 KiB whose first blocks fall
    on one or two (stack ID, bank) pairs and rows 0-2 -- few banks, many
    row hits and conflicts."""
    num_stack_ids = draw(st.sampled_from([1, 2]))
    enable_refresh = draw(st.booleans())
    depth = draw(st.sampled_from([8, 64]))
    mapping = ControllerConfig(num_stack_ids=num_stack_ids).local_mapping()
    banks = draw(st.lists(
        st.tuples(st.integers(0, num_stack_ids - 1), st.integers(0, 3)),
        min_size=1, max_size=2, unique=True))
    requests = []
    for _ in range(draw(st.integers(1, 6))):
        stack_id, bank = draw(st.sampled_from(banks))
        first = DramCoordinate(
            channel=0, pseudo_channel=draw(st.integers(0, 1)),
            stack_id=stack_id, bank_group=draw(st.integers(0, 3)),
            bank=bank, row=draw(st.integers(0, 2)),
            column=draw(st.integers(0, 31)))
        requests.append(MemoryRequest(
            kind=draw(st.sampled_from([RequestKind.READ, RequestKind.WRITE])),
            address=mapping.encode(first),
            size_bytes=32 * draw(st.integers(1, 128))))
    return num_stack_ids, enable_refresh, depth, requests


def _check_generated_drain(spec):
    num_stack_ids, enable_refresh, depth, requests = spec
    _issue_logs_of_both_cores(
        lambda: ConventionalMemoryController(
            config=ControllerConfig(num_stack_ids=num_stack_ids,
                                    enable_refresh=enable_refresh,
                                    read_queue_depth=depth,
                                    write_queue_depth=depth)),
        lambda: [MemoryRequest(kind=request.kind, address=request.address,
                               size_bytes=request.size_bytes)
                 for request in requests])


@settings(deadline=None, max_examples=8)
@given(spec=_bank_focused_drains())
def test_event_core_issues_as_the_steps_on_generated_drains(spec):
    """The issue-log differential of
    ``test_event_core_issues_the_commands_the_steps_issue`` on generated
    drains (a small profile; the ``slow`` variant draws more)."""
    _check_generated_drain(spec)


@pytest.mark.slow
@settings(deadline=None, max_examples=300)
@given(spec=_bank_focused_drains())
def test_event_core_issues_as_the_steps_on_many_generated_drains(spec):
    _check_generated_drain(spec)


# ------------------------------------------------------------- the wake-ups


@st.composite
def _wake_specs(draw):
    """Refresh off, or on with drawn knobs -- a short tREFIpb and tRFCpb
    and a postponement budget of 0-2, so due refreshes keep waiting on
    open, precharging and refreshing banks; 1 or 2 stack IDs; a queue
    depth of 8 or 64; two batches of mixed reads and writes of 32 B-4 KiB
    on one or two (stack ID, bank) pairs and rows 0-2, the second arriving
    mid-run; and the length of the event run's advances."""
    from repro.dram.timing import TimingParameters

    num_stack_ids = draw(st.sampled_from([1, 2]))
    enable_refresh = draw(st.booleans())
    timing, max_postponed = TimingParameters(), None
    if enable_refresh:
        timing = TimingParameters(tREFIpb=draw(st.integers(40, 200)),
                                  tRFCpb=draw(st.integers(20, 120)))
        max_postponed = draw(st.integers(0, 2))
    depth = draw(st.sampled_from([8, 64]))
    mapping = ControllerConfig(num_stack_ids=num_stack_ids).local_mapping()
    banks = draw(st.lists(
        st.tuples(st.integers(0, num_stack_ids - 1), st.integers(0, 3)),
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

    config = ControllerConfig(num_stack_ids=num_stack_ids, timing=timing,
                              enable_refresh=enable_refresh,
                              read_queue_depth=depth, write_queue_depth=depth)
    first, second = batch(), batch()
    arrival_ns = draw(st.integers(1, 600))
    slice_ns = draw(st.integers(1, 300))
    return config, max_postponed, first, arrival_ns, second, slice_ns


def _run_with_arrival(spec, controller, event_driven, advance):
    """Run ``spec``'s two batches on ``controller``: the first at 0, the
    second at its arrival instant, then 3 us more and a drain.
    ``advance(end)`` runs the controller to ``end``."""
    _, _, first, arrival_ns, second, _ = spec
    for request in first:
        controller.enqueue(MemoryRequest(
            kind=request.kind, address=request.address,
            size_bytes=request.size_bytes))
    advance(arrival_ns)
    for request in second:
        controller.enqueue(MemoryRequest(
            kind=request.kind, address=request.address,
            size_bytes=request.size_bytes, arrival_ns=controller.now))
    advance(controller.now + 3_000)
    controller.run_until_idle(event_driven=event_driven)
    assert controller.outstanding_requests == 0
    return (controller.now, controller.stats,
            controller.channel.command_counts())


def _controller_of(spec):
    config, max_postponed, *_ = spec
    controller = ConventionalMemoryController(config=config)
    for engine in controller.scheduler.refresh_engines:
        engine.max_postponed = max_postponed
    return controller


@settings(deadline=None, max_examples=25)
@given(spec=_wake_specs())
def test_no_command_issues_before_the_wake(spec):
    """Stepping ``_step`` one ns at a time issues nothing strictly before
    ``next_event_ns()`` (checked at every advance boundary of a sliced
    event run) or before the instant the event core's loop jumps to after
    an idle instant (checked at every jump), until new requests arrive:
    both wakes are lower bounds of the next issue.  The steps are the
    tick core's run of the same inputs, whose state at every instant is
    the event core's (the two runs end identical).  The jumps are also
    exact: each that the tick run reaches lands on an issuing instant."""
    from bisect import bisect_left

    tick = _controller_of(spec)
    issuing = []
    step = tick._step

    def recorded_step(now):
        acted = step(now)
        if acted:
            issuing.append(now)
        return acted

    tick._step = recorded_step
    tick_end = _run_with_arrival(
        spec, tick, False, lambda end: tick.run_for(end - tick.now,
                                                     event_driven=False))

    # Until ``arrival``: the instant the next requests are enqueued.
    arrival = spec[3]

    def next_issue(start):
        """The first instant from ``start`` on at which ``_step`` issues
        before the next arrival, or None."""
        index = bisect_left(issuing, start)
        if index == len(issuing) or issuing[index] >= arrival:
            return None
        return issuing[index]

    def assert_wake(start, wake, what):
        issue = next_issue(start)
        assert issue is None or wake is not None and issue >= wake, \
            f"{what} is {wake}, but _step issues at {issue}"

    controller = _controller_of(spec)
    scheduler = controller.scheduler
    wake_ns = scheduler._wake_ns
    landed = []

    def checked_wake(t, served, sweep_at):
        wake = wake_ns(t, served, sweep_at)
        assert next_issue(t) != t
        assert_wake(t + 1, wake, f"the loop's jump from idle {t}")
        if wake is not None and wake < min(arrival, tick.now):
            landed.append(next_issue(wake) == wake)
        return wake

    scheduler._wake_ns = checked_wake

    def advance(end):
        while controller.now < end:
            assert_wake(controller.now, controller.next_event_ns(),
                        f"next_event_ns() at {controller.now}")
            controller.advance_to(min(controller.now + spec[-1], end))

    def advance_to_arrival(end):
        nonlocal arrival
        advance(end)
        arrival = float("inf")

    assert _run_with_arrival(spec, controller, True,
                             advance_to_arrival) == tick_end
    assert all(landed)
