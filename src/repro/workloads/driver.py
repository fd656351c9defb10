"""Run compiled workload schedules on the cycle-level controllers.

The driver is the bridge between a scenario's
:class:`~repro.workloads.arrivals.ArrivalSchedule` and the event core:
every ``(time_ns, transfer)`` record becomes a
:meth:`repro.sim.engine.Simulation.at` callback that materializes the
transfer as controller requests at its exact arrival instant, the engine
advances arrival-to-arrival (no advance crosses the next one), and the run
drains to idle after the last arrival.

Contracts the driver relies on (tested in ``tests/sim/test_engine.py``):

* records sharing a nanosecond are registered in schedule order and
  ``Simulation.at`` fires same-instant callbacks in registration order;
* a record at the current instant (time 0 before the first advance)
  fires immediately at registration, so no arrival can be lost ahead of
  the first ``run_for``.

Determinism: given the same :class:`ScenarioSpec`, every run -- serial,
pool worker, fork or spawn start method, event or lockstep core --
simulates the same cycles and returns an equal :class:`WorkloadResult`.

Checkpointing
-------------
:func:`checkpoint_workload` cuts a run mid-flight and captures the whole
in-flight state -- controller, issued-transfer records (request identity
intact), and the not-yet-fired arrivals -- as one
:class:`~repro.sim.checkpoint.Checkpoint`; :func:`resume_workload`
finishes it.  The resumed :class:`WorkloadResult` is bit-identical to the
uninterrupted run: the cut is just one more ``advance_to`` target, at
which the controllers stop exactly as at a scheduled arrival, and they
are cycle-exact under any advance granularity.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.controller.mc import ControllerConfig, ConventionalMemoryController
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.controller import RoMeControllerConfig, RoMeMemoryController
from repro.core.interface import (
    DEFAULT_ROWS_PER_VBA,
    RowRequestKind,
    requests_for_transfer,
)
from repro.core.virtual_bank import paper_vba_config
from repro.defaults import DEFAULT_DRAIN_HORIZON_NS
from repro.latency import LatencyAccumulator
from repro.obs.metrics import MetricRegistry
from repro.obs.sink import ObsSink
from repro.obs.trace import TraceRecorder
from repro.reliability.ras import ReliabilityStats
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    make_checkpoint,
)
from repro.sim.engine import Simulation
from repro.sim.stats import BandwidthResult, LatencyResult
from repro.sim.sweep import FaultPlan, SweepResult, run_sweep
from repro.workloads.arrivals import ArrivalSchedule, Transfer
from repro.workloads.scenarios import (
    ScenarioSpec,
    ServingPlan,
    build_schedule,
    serving_plan,
)
from repro.workloads.serving import ClosedLoopServer, SLOSpec

__all__ = [
    "RateProbe",
    "RateSearchResult",
    "WorkloadResult",
    "checkpoint_workload",
    "find_max_sustainable_rate",
    "rate_sweep",
    "resume_workload",
    "run_workload",
    "run_workload_point",
    "workload_sweep",
]

#: A drain tail longer than this fraction of the arrival horizon means the
#: channel could not keep up with the offered load.
_SATURATION_TAIL_FRACTION = 0.1

#: A closed-loop run whose goodput falls below this fraction of the
#: offered rate is flagged overloaded (the :func:`find_max_sustainable_rate`
#: default threshold matches).
GOODPUT_OVERLOAD_THRESHOLD = 0.9

#: ``Checkpoint.kind`` of a mid-flight workload cut.
_WORKLOAD_CHECKPOINT_KIND = "workload"


@dataclass
class WorkloadResult:
    """Outcome of one arrival-driven workload run.

    ``latency`` holds per-request statistics -- one sample per scheduled
    transfer, from its arrival instant to the completion of its last
    memory request -- accumulated through the bounded deterministic
    :class:`~repro.latency.LatencyAccumulator`, so percentiles stay
    available for million-request runs without unbounded memory.
    ``latency_by_tag`` breaks the same samples out per traffic class
    (``"decode"``, ``"prefill"``, ``"foreground"``, ...).

    ``overloaded`` means the channel fell behind the offered load.  On a
    closed-loop run it derives from the SLO accounting (goodput below
    :data:`GOODPUT_OVERLOAD_THRESHOLD` of the offered rate); open-loop
    runs keep the drain-tail proxy (tail > 10 % of the arrival horizon,
    or every arrival due at t=0).

    The SLO block (``requests`` .. ``peak_kv_bytes``) is populated only by
    closed-loop runs: per-request TTFT/TPOT percentile summaries, the
    count meeting both SLOs, and the offered/goodput rates they imply.
    ``evaluations`` is the scheduler-evaluation counter (excluded from
    equality, like every other result object in this tree).
    """

    scenario: str
    system: str
    bandwidth: BandwidthResult
    latency: LatencyResult
    latency_by_tag: Dict[str, LatencyResult]
    transfers: int
    horizon_ns: int
    end_ns: int
    overloaded: bool
    requests: int = 0
    rejected: int = 0
    slo: Optional[SLOSpec] = None
    slo_met: int = 0
    offered_rate_per_s: float = 0.0
    goodput_per_s: float = 0.0
    ttft: Optional[LatencyResult] = None
    tpot: Optional[LatencyResult] = None
    peak_batch: int = 0
    peak_kv_bytes: int = 0
    evaluations: int = field(default=0, compare=False)
    #: The run's RAS outcome counters when the spec carried a reliability
    #: config (``None`` otherwise), and part of equality: fault campaigns
    #: must be bit-identical like every other workload outcome.
    reliability: Optional[ReliabilityStats] = None
    #: Trace events / windowed metric series recorded when the spec
    #: carried an enabled :class:`~repro.obs.config.ObsConfig` (``None``
    #: otherwise), and part of equality: observed runs must be
    #: bit-identical across worker counts, start methods, and checkpoint
    #: cuts.
    trace: Optional[TraceRecorder] = None
    metrics: Optional[MetricRegistry] = None

    @property
    def goodput_fraction(self) -> float:
        """Goodput as a fraction of the offered rate (1.0 when nothing
        was offered -- an empty episode breaks no SLOs)."""
        if self.offered_rate_per_s <= 0.0:
            return 1.0
        return self.goodput_per_s / self.offered_rate_per_s

    @property
    def utilization(self) -> float:
        return self.bandwidth.utilization

    def summary(self) -> str:
        state = "overloaded" if self.overloaded else "keeping up"
        text = (
            f"{self.scenario}/{self.system}: "
            f"{self.bandwidth.achieved_gbps:.1f} GB/s "
            f"({self.utilization:.1%} of peak, {state}), "
            f"p50 {self.latency.p50:.0f} ns / p99 {self.latency.p99:.0f} ns "
            f"over {self.transfers} transfers"
        )
        if self.slo is not None:
            text += (
                f"; goodput {self.goodput_per_s:.1f}/s of "
                f"{self.offered_rate_per_s:.1f}/s offered "
                f"({self.slo_met}/{self.requests} in SLO, "
                f"{self.rejected} rejected)"
            )
        return text


class _RomeMaterializer:
    """Turn transfers into row requests on one RoMe channel."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.vba = paper_vba_config()
        self.obs = ObsSink.from_config(spec.obs, track="chan0")
        self.controller = RoMeMemoryController(
            config=RoMeControllerConfig(num_stack_ids=1,
                                        enable_refresh=spec.enable_refresh),
            reliability=spec.reliability,
            obs=self.obs,
        )
        self._row_cursor = 0

    def enqueue(self, transfer: Transfer, now: int) -> List:
        requests = []
        vbas = self.vba.vbas_per_channel_per_sid
        for nbytes, kind in ((transfer.read_bytes, RowRequestKind.RD_ROW),
                             (transfer.write_bytes, RowRequestKind.WR_ROW)):
            if not nbytes:
                continue
            rows = -(-nbytes // (self.vba.effective_row_bytes * vbas))
            if self._row_cursor + rows > DEFAULT_ROWS_PER_VBA:
                # Wrap like the hbm4 address decode: a transfer that does
                # not fit in the rows left starts over at row 0.
                self._row_cursor = 0
            batch = requests_for_transfer(
                nbytes,
                kind=kind,
                effective_row_bytes=self.vba.effective_row_bytes,
                num_channels=1,
                vbas_per_channel=vbas,
                start_row=self._row_cursor,
                arrival_ns=now,
            )
            self._row_cursor += rows
            requests.extend(batch)
        for request in requests:
            self.controller.enqueue(request)
        return requests

    def peak_bytes_per_ns(self) -> float:
        timing = self.controller.config.conventional_timing
        return (self.vba.base_access_granularity_bytes
                * self.vba.num_pseudo_channels / timing.tCCDS)

    def bytes_moved(self) -> int:
        stats = self.controller.stats
        return stats.bytes_read + stats.bytes_written


class _ConventionalMaterializer:
    """Turn transfers into 32 B-block host requests on one HBM4 channel."""

    #: Requests are cut at the RoMe effective-row size so both systems see
    #: the same request stream shape (only the interface granularity
    #: differs).
    request_bytes = 4096

    def __init__(self, spec: ScenarioSpec) -> None:
        self.obs = ObsSink.from_config(spec.obs, track="chan0")
        self.controller = ConventionalMemoryController(
            config=ControllerConfig(num_stack_ids=1,
                                    enable_refresh=spec.enable_refresh),
            reliability=spec.reliability,
            obs=self.obs,
        )
        self._address_cursor = 0

    def enqueue(self, transfer: Transfer, now: int) -> List:
        requests = []
        for nbytes, kind in ((transfer.read_bytes, RequestKind.READ),
                             (transfer.write_bytes, RequestKind.WRITE)):
            remaining = nbytes
            while remaining > 0:
                size = min(self.request_bytes, remaining)
                requests.append(MemoryRequest(kind=kind,
                                              address=self._address_cursor,
                                              size_bytes=size,
                                              arrival_ns=now))
                self._address_cursor += self.request_bytes
                remaining -= size
        for request in requests:
            self.controller.enqueue(request)
        return requests

    def peak_bytes_per_ns(self) -> float:
        return self.controller.channel.config.peak_bandwidth_bytes_per_ns

    def bytes_moved(self) -> int:
        stats = self.controller.stats
        return stats.bytes_read + stats.bytes_written


def _materializer(spec: ScenarioSpec):
    if spec.system == "rome":
        return _RomeMaterializer(spec)
    return _ConventionalMaterializer(spec)


# ------------------------------------------------------------ run plumbing


def _make_simulation(controller: Any, event_driven: bool,
                     now: int = 0) -> Simulation:
    return Simulation(
        controllers=[controller],
        on_cycle=None if event_driven else (lambda now: None),
        now=now,
    )


def _register_arrivals(simulation: Simulation, records, materializer,
                       issued: List[Tuple[int, Transfer, List]]) -> None:
    """Register ``(time_ns, transfer)`` records as engine arrivals.

    Each arrival carries its ``transfer`` as the engine payload, so a
    mid-flight checkpoint can capture the not-yet-fired tail of the
    schedule and :func:`resume_workload` can rebuild these callbacks.
    """

    def make_arrival(time_ns: int, transfer: Transfer):
        def arrive(now: int) -> None:
            issued.append((time_ns, transfer,
                           materializer.enqueue(transfer, now)))
        return arrive

    for time_ns, transfer in records:
        simulation.at(time_ns, make_arrival(time_ns, transfer),
                      payload=transfer)


def _finish_run(simulation: Simulation, controller: Any, horizon: int,
                event_driven: bool) -> int:
    """Advance through the arrival horizon, then drain to idle."""
    if simulation.now <= horizon:
        simulation.run_for(horizon - simulation.now + 1)
    return controller.run_until_idle(horizon + DEFAULT_DRAIN_HORIZON_NS,
                                     event_driven=event_driven)


def _transfer_latencies(
        issued: Sequence[Tuple[int, Transfer, List]],
) -> Tuple[LatencyAccumulator, Dict[str, LatencyAccumulator]]:
    """Per-transfer latency samples (arrival to last request completion),
    overall and per traffic tag."""
    overall = LatencyAccumulator()
    by_tag: Dict[str, LatencyAccumulator] = {}
    for time_ns, transfer, requests in issued:
        completions = [request.completion_ns for request in requests]
        if any(completion is None for completion in completions):
            raise RuntimeError("workload drain left requests incomplete")
        sample = max(completions) - time_ns
        overall.record(sample)
        by_tag.setdefault(transfer.tag, LatencyAccumulator()).record(sample)
    return overall, by_tag


def _collect_result(spec: ScenarioSpec, transfers: int, horizon_ns: int,
                    materializer, issued: Sequence[Tuple[int, Transfer, List]],
                    end_ns: int) -> WorkloadResult:
    """Assemble the :class:`WorkloadResult` of a finished run.

    The result holds the run's own RAS counters and obs recorders, not
    copies: every run is collected once, after its last advance.
    """
    overall, by_tag = _transfer_latencies(issued)
    controller = materializer.controller
    ras, sink = controller.ras, materializer.obs
    tail = end_ns - horizon_ns
    overloaded = (horizon_ns == 0
                  or tail > _SATURATION_TAIL_FRACTION * horizon_ns)
    return WorkloadResult(
        scenario=spec.scenario,
        system=spec.system,
        bandwidth=BandwidthResult(
            bytes_transferred=materializer.bytes_moved(),
            elapsed_ns=float(end_ns),
            peak_bytes_per_ns=materializer.peak_bytes_per_ns(),
        ),
        latency=LatencyResult.from_accumulators([overall]),
        latency_by_tag={
            tag: LatencyResult.from_accumulators([acc])
            for tag, acc in sorted(by_tag.items())
        },
        transfers=transfers,
        horizon_ns=horizon_ns,
        end_ns=end_ns,
        overloaded=overloaded,
        evaluations=controller.stats.evaluations,
        reliability=None if ras is None else ras.stats,
        trace=None if sink is None else sink.trace,
        metrics=None if sink is None else sink.metrics,
    )


# -------------------------------------------------------------- closed loop


def _advance_until_complete(simulation: Simulation, controller: Any,
                            requests: Sequence[Any],
                            deadline_ns: int) -> int:
    """Advance until every request of one iteration has completed; return
    the iteration's completion instant (the closed-loop launch gate).

    :func:`_run_closed_loop` has already advanced to the iteration's
    cadence instant in one ``run_for``, so this loop only runs for an
    iteration that overran its cadence (or the last one, which is not
    sliced).  It steps to ``controller.next_event_ns()`` -- the same
    instants the event core picks on its own -- so the advance trajectory
    (and with it every launch decision) is a pure function of controller
    state.  The cycle-exact controllers reach identical states at
    identical instants under any advance slicing, and under the event and
    lockstep cores, which keeps closed-loop results bit-identical.
    """
    while any(request.completion_ns is None for request in requests):
        target = controller.next_event_ns()
        if target is None or target <= simulation.now:
            # No stored future constraint: the controller has fresh work
            # to evaluate (advance_to performs it), so step one instant.
            target = simulation.now + 1
        if target > deadline_ns:
            raise RuntimeError(
                f"closed-loop iteration still incomplete at the drain "
                f"deadline ({deadline_ns} ns)")
        simulation.run_for(target - simulation.now)
    return max(request.completion_ns for request in requests)


def _run_closed_loop(spec: ScenarioSpec, *,
                     plan: Optional[ServingPlan] = None,
                     event_driven: bool = True,
                     ) -> Tuple[WorkloadResult, ClosedLoopServer]:
    """Run ``spec`` closed-loop on a fresh controller.

    The loop: ask the server for the next launch instant, advance the
    engine to it, register the launch through ``Simulation.at`` (firing
    synchronously under the at-or-past edge contract, so the launch is an
    ordinary engine arrival), advance until the iteration's memory
    traffic completes, and feed the completion instant back -- the next
    launch gates on ``max(accelerator cadence, completion)``.  Returns
    the result plus the server, whose per-request records tests inspect.

    Cadence slicing: since no launch comes before ``launch +
    iteration_interval_ns``, the driver first reaches that instant in one
    ``run_for`` -- one call of the event core, however busy -- and steps
    event by event (:func:`_advance_until_complete`) only past it, i.e.
    when the iteration overran its cadence.  The server's last iteration
    (:meth:`ClosedLoopServer.finishing`) is not sliced: advancing past its
    completion would stretch ``end_ns`` and the bandwidth window.

    ``plan`` overrides the scenario registry's serving plan -- the fleet
    layer replays *routed* arrival instants through the same loop, so a
    replica's episode is the plain closed-loop run of its assignment.
    """
    materializer = _materializer(spec)
    controller = materializer.controller
    simulation = _make_simulation(controller, event_driven)
    if plan is None:
        plan = serving_plan(spec)
    server = ClosedLoopServer(plan.serving, plan.arrival_times_ns,
                              obs=materializer.obs)
    horizon_ns = max(plan.arrival_times_ns, default=0)
    deadline_ns = horizon_ns + DEFAULT_DRAIN_HORIZON_NS
    interval = plan.serving.iteration_interval_ns
    issued: List[Tuple[int, Transfer, List]] = []
    while True:
        launch = server.next_launch_ns()
        if launch is None:
            break
        launch = max(launch, simulation.now)
        if launch > simulation.now:
            simulation.run_for(launch - simulation.now)
        fired: List[Tuple[int, Transfer, List]] = []

        def arrive(now: int, server=server, fired=fired) -> None:
            for transfer in server.begin_iteration(now):
                fired.append((now, transfer,
                              materializer.enqueue(transfer, now)))

        simulation.at(launch, arrive)
        if fired:
            issued.extend(fired)
            requests = [request for _, _, batch in fired
                        for request in batch]
            if not server.finishing():
                # The next launch is never before the cadence instant, so
                # reach it in one advance; the last
                # iteration stops at its completion to keep ``end_ns``.
                cadence = min(launch + interval, deadline_ns)
                if cadence > simulation.now:
                    simulation.run_for(cadence - simulation.now)
            completion = _advance_until_complete(simulation, controller,
                                                 requests, deadline_ns)
        else:
            completion = launch
        server.finish_iteration(launch, completion)
    end_ns = controller.run_until_idle(deadline_ns,
                                       event_driven=event_driven)
    result = _collect_closed_result(spec, materializer, issued, server,
                                    horizon_ns, end_ns)
    return result, server


def _collect_closed_result(spec: ScenarioSpec, materializer,
                           issued: Sequence[Tuple[int, Transfer, List]],
                           server: ClosedLoopServer, horizon_ns: int,
                           end_ns: int) -> WorkloadResult:
    """Assemble a closed-loop :class:`WorkloadResult` with SLO accounting.

    Offered rate and goodput share one denominator -- the arrival horizon
    -- so ``goodput <= offered`` holds by construction (``slo_met`` never
    exceeds ``requests``); ``overloaded`` derives from their ratio.
    """
    slo = spec.slo if spec.slo is not None else SLOSpec()
    total = len(server.records)
    met = sum(1 for record in server.records if record.meets(slo))
    elapsed_s = max(horizon_ns, 1) / 1e9
    offered = total / elapsed_s
    goodput = met / elapsed_s
    ttft_acc = LatencyAccumulator()
    tpot_acc = LatencyAccumulator()
    for record in server.records:
        if record.ttft_ns is not None:
            ttft_acc.record(record.ttft_ns)
        if record.tpot_ns is not None:
            tpot_acc.record(record.tpot_ns)
    return replace(
        _collect_result(spec, len(issued), horizon_ns, materializer, issued,
                        end_ns),
        overloaded=goodput < GOODPUT_OVERLOAD_THRESHOLD * offered,
        requests=total,
        rejected=server.rejected,
        slo=slo,
        slo_met=met,
        offered_rate_per_s=offered,
        goodput_per_s=goodput,
        ttft=LatencyResult.from_accumulators([ttft_acc]),
        tpot=LatencyResult.from_accumulators([tpot_acc]),
        peak_batch=server.peak_batch,
        peak_kv_bytes=server.peak_kv_bytes,
    )


def run_workload(spec: ScenarioSpec,
                 schedule: Optional[ArrivalSchedule] = None,
                 event_driven: bool = True) -> WorkloadResult:
    """Compile ``spec`` (unless a ``schedule`` is given) and simulate it.

    A spec with ``closed_loop=True`` runs through the completion-gated
    iteration loop instead of a precompiled schedule (its scenario must
    have a registered serving plan) and fills the SLO block of the
    result.

    ``event_driven=False`` forces per-nanosecond lockstep through the
    legacy ``on_cycle`` escape hatch -- only useful to *prove* the event
    core bit-identical (the equivalence suite does); it is orders of
    magnitude slower on serving-scale horizons.
    """
    if spec.closed_loop:
        if schedule is not None:
            raise ValueError(
                "closed-loop runs build their own iteration schedule; "
                "schedule= applies to open-loop runs only")
        result, _ = _run_closed_loop(spec, event_driven=event_driven)
        return result
    if schedule is None:
        schedule = build_schedule(spec)
    materializer = _materializer(spec)
    controller = materializer.controller
    simulation = _make_simulation(controller, event_driven)
    issued: List[Tuple[int, Transfer, List]] = []
    _register_arrivals(simulation, schedule, materializer, issued)
    horizon = schedule.horizon_ns
    end_ns = _finish_run(simulation, controller, horizon, event_driven)
    return _collect_result(spec, len(schedule), horizon, materializer,
                           issued, end_ns)


# -------------------------------------------------------- checkpoint/resume


@dataclass
class _WorkloadState:
    """The complete in-flight state of a cut workload run.

    Pickled as ONE object graph inside the checkpoint payload, which is
    what keeps request-object identity intact: a request sitting in a
    controller queue and referenced from an ``issued`` record stays a
    single object after restore, so completions recorded by the
    controller remain visible to the latency collection.
    """

    spec: ScenarioSpec
    transfers: int
    horizon_ns: int
    materializer: Any
    issued: List[Tuple[int, Transfer, List]]
    pending: Tuple[Tuple[int, Transfer], ...]
    now_ns: int


def checkpoint_workload(spec: ScenarioSpec, at_ns: int,
                        schedule: Optional[ArrivalSchedule] = None,
                        ) -> Checkpoint:
    """Run ``spec`` up to ``at_ns`` and capture the in-flight state.

    The cut instant is handed to the controllers as a plain ``advance_to``
    target, at which the controllers stop exactly as at a scheduled
    arrival, so the captured state is one the
    uninterrupted run also passes through, and
    :func:`resume_workload` finishes bit-identically.  Arrivals due after
    ``at_ns`` are stored as ``(time_ns, transfer)`` payload pairs (the
    engine's checkpointable schedule view); everything else -- controller,
    issued records, refresh and stats state -- pickles as one graph.

    Closed-loop specs are rejected: their launch instants depend on
    completion feedback, so a cut cannot be replayed from a schedule.
    The :func:`find_max_sustainable_rate` probe journal is what makes a
    closed-loop search resumable instead.
    """
    if spec.closed_loop:
        raise CheckpointError(
            "closed-loop runs cannot be cut mid-flight (launches depend "
            "on completion feedback); use the rate-search journal for "
            "resumability")
    if schedule is None:
        schedule = build_schedule(spec)
    materializer = _materializer(spec)
    controller = materializer.controller
    simulation = _make_simulation(controller, True)
    issued: List[Tuple[int, Transfer, List]] = []
    _register_arrivals(simulation, schedule, materializer, issued)
    if at_ns > simulation.now:
        simulation.run_for(at_ns - simulation.now)
    state = _WorkloadState(
        spec=spec,
        transfers=len(schedule),
        horizon_ns=schedule.horizon_ns,
        materializer=materializer,
        issued=issued,
        pending=simulation.pending_arrivals(),
        now_ns=simulation.now,
    )
    return make_checkpoint(
        kind=_WORKLOAD_CHECKPOINT_KIND,
        now_ns=simulation.now,
        state=state,
        meta={"scenario": spec.scenario, "system": spec.system,
              "horizon_ns": schedule.horizon_ns},
    )


def resume_workload(checkpoint: Checkpoint,
                    event_driven: bool = True) -> WorkloadResult:
    """Finish a workload cut by :func:`checkpoint_workload`.

    Restores the pickled state graph, re-registers the pending arrivals
    (their callbacks are rebuilt from the stored payloads), and runs the
    remaining horizon plus drain exactly as :func:`run_workload` would
    have.  The result is bit-identical to the uninterrupted run.
    """
    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {checkpoint.version} is not supported "
            f"(this tree reads version {CHECKPOINT_VERSION})"
        )
    if checkpoint.kind != _WORKLOAD_CHECKPOINT_KIND:
        raise CheckpointError(
            f"checkpoint kind {checkpoint.kind!r} is not a workload cut"
        )
    state = checkpoint.state()
    materializer = state.materializer
    controller = materializer.controller
    simulation = _make_simulation(controller, event_driven,
                                  now=state.now_ns)
    _register_arrivals(simulation, state.pending, materializer, state.issued)
    end_ns = _finish_run(simulation, controller, state.horizon_ns,
                         event_driven)
    return _collect_result(state.spec, state.transfers, state.horizon_ns,
                           materializer, state.issued, end_ns)


# ------------------------------------------------------------------- sweeps


def run_workload_point(spec: ScenarioSpec) -> WorkloadResult:
    """One arrival-driven sweep point (picklable: takes only the spec).

    This is to workloads what ``queue_depth_point`` is to drain sweeps --
    the unit :func:`repro.sim.sweep.run_sweep` shards across worker
    processes.  The schedule is recompiled inside the worker from the spec's
    seed, so results are identical at any worker count.
    """
    return run_workload(spec)


def workload_sweep(specs: Sequence[ScenarioSpec],
                   workers: int = 1,
                   *,
                   journal: Optional[str] = None,
                   point_timeout_s: Optional[float] = None,
                   retries: int = 0,
                   backoff_s: float = 0.0,
                   on_error: str = "raise",
                   fault_plan: Optional[FaultPlan] = None) -> SweepResult:
    """Shard independent workload points across worker processes.

    ``workers=1`` runs the exact serial loop; results come back in
    ``specs`` order at any worker count, with scheduler evaluations
    aggregated into the :class:`~repro.sim.sweep.SweepStats`.  The
    keyword-only fault-tolerance knobs pass straight through to
    :func:`repro.sim.sweep.run_sweep`: ``journal`` makes a killed sweep
    resumable (finished specs are skipped on re-run), and
    ``point_timeout_s``/``retries``/``on_error``/``fault_plan`` engage the
    sweep runner's fault-tolerance paths.
    """
    return run_sweep(run_workload_point, list(specs), workers=workers,
                     journal=journal, point_timeout_s=point_timeout_s,
                     retries=retries, backoff_s=backoff_s,
                     on_error=on_error, fault_plan=fault_plan)


def rate_sweep(spec: ScenarioSpec, rates_per_s: Sequence[float],
               systems: Sequence[str] = ("rome", "hbm4"),
               workers: int = 1,
               *,
               journal: Optional[str] = None,
               ) -> List[WorkloadResult]:
    """Sweep ``spec`` over arrival rates for one or both controllers.

    Points are ordered rate-major, system-minor and shard across workers
    exactly like drain points (the CLI ``workload`` command's backend);
    each point is one cold :func:`run_workload`.  ``journal`` makes a
    killed sweep resumable.
    """
    points = [
        spec.with_rate(rate).with_system(system)
        for rate in rates_per_s
        for system in systems
    ]
    return list(workload_sweep(points, workers=workers, journal=journal))


# -------------------------------------------------------------- rate search


@dataclass(frozen=True)
class RateProbe:
    """One bisection probe: the rate offered and what it achieved.

    ``wall_s`` is the wall-clock cost of simulating the probe and
    ``evaluations`` its deterministic counterpart, the controller's
    scheduler evaluations (0.0 and 0 for a probe replayed from an old
    journal without the fields).  Both are excluded from equality like
    every other cost counter -- the simulated outcome does not depend on
    how much work reaching it took.
    """

    rate_per_s: float
    goodput_per_s: float
    goodput_fraction: float
    sustainable: bool
    wall_s: float = field(default=0.0, compare=False)
    evaluations: int = field(default=0, compare=False)


@dataclass
class RateSearchResult:
    """Outcome of :func:`find_max_sustainable_rate`.

    ``max_rate_per_s`` is the highest *probed* rate whose goodput
    fraction cleared the threshold (0.0 when even the bracket floor did
    not).  ``probes`` records every probe in execution order;
    ``executed_probes`` counts the ones actually simulated -- a resumed
    search replays the journaled prefix without executing it, so the
    counter is excluded from equality like every other cost counter.
    """

    scenario: str
    system: str
    max_rate_per_s: float
    threshold: float
    probes: Tuple[RateProbe, ...]
    executed_probes: int = field(default=0, compare=False)


def _load_rate_journal(path: str) -> List[dict]:
    """Journaled probe entries, tolerating a torn tail from a kill."""
    entries: List[dict] = []
    try:
        handle = open(path, encoding="utf-8")
    except FileNotFoundError:
        return entries
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                break
    return entries


def find_max_sustainable_rate(spec: ScenarioSpec, low_per_s: float,
                              high_per_s: float, *,
                              threshold: float = GOODPUT_OVERLOAD_THRESHOLD,
                              probes: int = 8,
                              journal: Optional[str] = None,
                              ) -> RateSearchResult:
    """Deterministic bisection for the max sustainable arrival rate.

    A rate is *sustainable* when the closed-loop goodput fraction
    (requests/s meeting both SLOs over requests/s offered) clears
    ``threshold``.  The search probes the bracket ends, then bisects --
    at most ``probes`` runs total.  Every probe is one cold closed-loop
    run of ``spec.system`` at its rate, made through :func:`rate_sweep`,
    so the search is a pure function of ``(spec, low, high, threshold,
    probes)``: float midpoints are exact IEEE halves and the simulation
    underneath is bit-identical, making the final rate reproducible
    anywhere.

    ``journal`` names an append-only JSONL file recording each probe's
    outcome.  Re-running with the same arguments replays the journaled
    prefix without simulating (a mid-search kill resumes where it
    stopped); a journal written by different arguments is detected by
    rate mismatch and rejected.
    """
    if not 0.0 < low_per_s <= high_per_s:
        raise ValueError("need 0 < low_per_s <= high_per_s")
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if probes < 2:
        raise ValueError("probes must be at least 2 (the bracket ends)")
    spec = replace(spec, closed_loop=True,
                   slo=spec.slo if spec.slo is not None else SLOSpec())
    journaled = _load_rate_journal(journal) if journal else []
    recorded: List[RateProbe] = []
    executed = 0

    def probe_rate(rate: float) -> RateProbe:
        nonlocal executed
        index = len(recorded)
        if index < len(journaled):
            entry = journaled[index]
            if entry.get("rate_per_s") != rate:
                raise CheckpointError(
                    f"rate-search journal diverges at probe {index}: "
                    f"journaled rate {entry.get('rate_per_s')!r}, "
                    f"search wants {rate!r} (different search arguments?)")
            probe = RateProbe(rate_per_s=rate,
                              goodput_per_s=entry["goodput_per_s"],
                              goodput_fraction=entry["goodput_fraction"],
                              sustainable=entry["sustainable"],
                              wall_s=entry.get("wall_s", 0.0),
                              evaluations=entry.get("evaluations", 0))
        else:
            started = time.perf_counter()
            result = rate_sweep(spec, [rate], systems=(spec.system,))[0]
            wall_s = time.perf_counter() - started
            probe = RateProbe(rate_per_s=rate,
                              goodput_per_s=result.goodput_per_s,
                              goodput_fraction=result.goodput_fraction,
                              sustainable=result.goodput_fraction
                              >= threshold,
                              wall_s=wall_s,
                              evaluations=result.evaluations)
            executed += 1
            if journal:
                with open(journal, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(
                        {"probe": index, "rate_per_s": rate,
                         "goodput_per_s": probe.goodput_per_s,
                         "goodput_fraction": probe.goodput_fraction,
                         "sustainable": probe.sustainable,
                         "wall_s": probe.wall_s,
                         "evaluations": probe.evaluations},
                        sort_keys=True) + "\n")
        recorded.append(probe)
        return probe

    best = 0.0
    if probe_rate(low_per_s).sustainable:
        best = low_per_s
        if high_per_s > low_per_s:
            if probe_rate(high_per_s).sustainable:
                best = high_per_s
            else:
                low, high = low_per_s, high_per_s
                for _ in range(probes - 2):
                    mid = (low + high) / 2.0
                    if probe_rate(mid).sustainable:
                        low = best = mid
                    else:
                        high = mid
    return RateSearchResult(
        scenario=spec.scenario,
        system=spec.system,
        max_rate_per_s=best,
        threshold=threshold,
        probes=tuple(recorded),
        executed_probes=executed,
    )
