"""Run one traffic stream across a fleet of closed-loop replicas.

Execution is two deterministic phases, which is what makes the whole
fleet bit-identical across worker counts, start methods, and checkpoint
cuts:

1. **Plan** (in the parent, pure): build the base scenario's serving
   plan, draw every replica's health timeline
   (:class:`~repro.fleet.health.ReplicaFaultProcess`), and route the
   arrival stream (:func:`~repro.fleet.router.route_requests`).  The
   result is one picklable :class:`ReplicaTask` per replica that
   received traffic.
2. **Serve** (sharded): each task runs its replica's closed-loop episode
   through the ordinary workload driver -- the same
   ``_run_closed_loop`` a plain ``run_workload`` uses, fed the routed
   arrival instants -- via :func:`repro.sim.sweep.run_sweep`, so replica
   sharding inherits the sweep runner's worker-count/start-method
   determinism and its JSONL journal *is* the fleet's checkpoint cut: a
   killed campaign resumes by skipping completed replicas.

Aggregation then joins per-request copies (primary + hedge) back into
fleet-level TTFT/TPOT percentiles, availability, SLO goodput, and the
router's counters in a :class:`FleetResult`.

Degraded-mode goodput: a replica whose timeline ever degrades runs its
memory under ``degraded_reliability`` (engaging the PR 8 RAS ladder) for
its whole episode -- a conservative approximation that keeps each
replica run a pure function of its task.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.latency import LatencyAccumulator
from repro.obs.metrics import MetricRegistry, merge_registries
from repro.obs.sink import ObsSink
from repro.obs.trace import TraceRecorder, merge_traces
from repro.reliability.faults import ReliabilityConfig
from repro.reliability.taxonomy import ReplicaFaultKind
from repro.sim.stats import BandwidthResult, LatencyResult
from repro.sim.sweep import SweepStats, run_sweep
from repro.workloads.driver import (
    WorkloadResult,
    _controller_config,
    _run_closed_loop,
)
from repro.workloads.scenarios import ScenarioSpec, ServingPlan, serving_plan
from repro.workloads.serving import SLOSpec

from repro.fleet.health import (
    ReplicaFaultConfig,
    ReplicaFaultProcess,
    ReplicaTimeline,
)
from repro.fleet.router import (
    FleetAssignment,
    RouterCounters,
    RouterPolicy,
    route_requests,
)

__all__ = [
    "FleetResult",
    "FleetSpec",
    "ReplicaRunResult",
    "ReplicaTask",
    "run_fleet",
    "run_replica_point",
]


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to rebuild one fleet episode anywhere.

    ``base`` is the single traffic stream (its scenario must have a
    registered serving plan; ``closed_loop`` is forced on).  Replica
    count either comes directly from ``num_replicas`` or from a device
    pool via :meth:`for_devices`.  ``degraded_reliability`` is the
    device-fault config a replica serves under once its timeline has
    degraded (``None`` leaves degraded replicas on ideal memory, so
    degradation affects routing only).
    """

    base: ScenarioSpec
    num_replicas: int = 3
    faults: ReplicaFaultConfig = ReplicaFaultConfig()
    router: RouterPolicy = RouterPolicy()
    degraded_reliability: Optional[ReliabilityConfig] = None

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be at least 1")

    @classmethod
    def for_devices(cls, base: ScenarioSpec, total_devices: int,
                    **kwargs: object) -> "FleetSpec":
        """Size the fleet from an accelerator pool: one replica per full
        TP/DP group of the base model's decode parallelism."""
        from repro.llm.models import model_by_name
        from repro.llm.parallelism import (
            default_decode_parallelism,
            replica_groups,
        )

        parallelism = default_decode_parallelism(
            model_by_name(base.model_name))
        return cls(base=base,
                   num_replicas=replica_groups(total_devices, parallelism),
                   **kwargs)


@dataclass(frozen=True)
class ReplicaTask:
    """One replica's picklable sweep point: its routed arrival stream.

    ``arrival_times_ns`` is sorted by ``(send instant, fleet id)`` and
    ``fleet_ids`` is parallel to it, so the closed-loop server's stable
    arrival sort maps record ``index`` straight back to ``fleet_ids``.
    """

    spec: ScenarioSpec
    replica: int
    fleet_ids: Tuple[int, ...]
    arrival_times_ns: Tuple[int, ...]


@dataclass(frozen=True)
class FleetRecord:
    """Per-copy outcome a replica run reports back to the aggregator."""

    fleet_id: int
    replica: int
    send_ns: int
    rejected: bool
    first_token_ns: Optional[int]
    tpot_ns: Optional[float]


@dataclass
class ReplicaRunResult:
    """One replica's :class:`WorkloadResult` plus per-copy records."""

    replica: int
    result: WorkloadResult
    records: Tuple[FleetRecord, ...]

    @property
    def evaluations(self) -> int:
        """Scheduler evaluations, surfaced for sweep-stats aggregation."""
        return self.result.evaluations


def run_replica_point(task: ReplicaTask) -> ReplicaRunResult:
    """Run one replica's closed-loop episode (picklable sweep unit).

    The routed arrival instants replay through the exact closed-loop
    path ``run_workload`` uses -- only the serving plan is supplied
    explicitly instead of coming from the scenario registry -- so a
    zero-fault single-replica fleet is bit-identical to the plain run.
    """
    spec = task.spec
    plan = ServingPlan(arrival_times_ns=task.arrival_times_ns,
                       serving=spec.serving_config())
    result, server = _run_closed_loop(spec, plan=plan)
    records = tuple(
        FleetRecord(
            fleet_id=task.fleet_ids[record.index],
            replica=task.replica,
            send_ns=record.arrival_ns,
            rejected=record.rejected,
            first_token_ns=record.first_token_ns,
            tpot_ns=record.tpot_ns,
        )
        for record in server.records
    )
    return ReplicaRunResult(replica=task.replica, result=result,
                            records=records)


@dataclass
class FleetResult:
    """Outcome of one fleet episode.

    Every compared field is deterministic: request accounting (a shed or
    failed request counts against goodput exactly like a rejected one),
    fleet-level TTFT/TPOT percentiles (TTFT measured from the request's
    *fleet* arrival, so routing delay and retries count against it; a
    hedged request scores its earliest first token), availability (mean
    up-fraction of the replica timelines over the episode horizon), the
    router's counters, and the per-replica results and timelines
    themselves.  When the base scenario enables observability, ``trace``
    and ``metrics`` carry the fleet-level recordings (router decisions
    and replica-health transitions) merged with every replica's own
    recordings under ``replica<i>/`` prefixes; they participate in
    equality because exported traces are part of the determinism
    contract.  ``evaluations`` and ``stats`` are cost/telemetry and
    excluded from equality like everywhere else in the tree.
    """

    scenario: str
    system: str
    replicas: int
    horizon_ns: int
    availability: float
    requests: int
    served: int
    shed: int
    failed: int
    slo: SLOSpec
    slo_met: int
    offered_rate_per_s: float
    goodput_per_s: float
    counters: RouterCounters
    ttft: LatencyResult
    tpot: LatencyResult
    bandwidth: BandwidthResult
    replica_results: Tuple[Optional[WorkloadResult], ...]
    timelines: Tuple[ReplicaTimeline, ...]
    trace: Optional[TraceRecorder] = None
    metrics: Optional[MetricRegistry] = None
    evaluations: int = field(default=0, compare=False)
    stats: Optional[SweepStats] = field(default=None, compare=False)

    @property
    def goodput_fraction(self) -> float:
        if self.offered_rate_per_s <= 0.0:
            return 1.0
        return self.goodput_per_s / self.offered_rate_per_s

    @property
    def transitions(self) -> Tuple[Tuple[str, ...], ...]:
        """Per-replica health-transition kinds (bench gates assert on
        these to prove a campaign actually exercised failover)."""
        return tuple(tuple(str(kind) for kind in timeline.kinds)
                     for timeline in self.timelines)

    def summary(self) -> str:
        return (
            f"fleet[{self.replicas}x {self.scenario}/{self.system}]: "
            f"availability {self.availability:.1%}, goodput "
            f"{self.goodput_per_s:.1f}/s of {self.offered_rate_per_s:.1f}/s "
            f"offered ({self.slo_met}/{self.requests} in SLO; "
            f"{self.counters.rerouted} rerouted, {self.counters.hedged} "
            f"hedged, {self.shed} shed, {self.failed} failed)"
        )


def _fleet_timeline_horizon(spec: FleetSpec, horizon_ns: int) -> int:
    """How far health timelines must extend past the last arrival: every
    retry and hedge the policy can generate must land on drawn health."""
    policy = spec.router
    retry_tail = policy.max_retries * (policy.request_timeout_ns
                                       + policy.retry_backoff_ns
                                       * (policy.max_retries + 1))
    tail = (retry_tail + policy.request_timeout_ns
            + (policy.hedge_delay_ns or 0) + spec.faults.window_ns)
    return horizon_ns + tail


def run_fleet(spec: FleetSpec, workers: int = 1, *,
              journal: Optional[Union[str, os.PathLike]] = None,
              start_method: Optional[str] = None) -> FleetResult:
    """Run one fleet episode; see the module docstring for the phases.

    ``workers`` shards replica episodes across worker processes (results
    are bit-identical at any count); ``journal`` makes a killed campaign
    resumable through the sweep journal (completed replicas are skipped
    on re-run); ``start_method`` pins the workers' start method -- results
    are identical under ``fork`` and ``spawn``.
    """
    base = replace(spec.base, closed_loop=True,
                   slo=spec.base.slo if spec.base.slo is not None
                   else SLOSpec())
    plan = serving_plan(base)
    times = sorted(plan.arrival_times_ns)
    arrivals_horizon = max(times) if times else 0
    process = ReplicaFaultProcess(spec.faults)
    timeline_horizon = _fleet_timeline_horizon(spec, arrivals_horizon)
    timelines = tuple(process.timeline(replica, timeline_horizon)
                      for replica in range(spec.num_replicas))
    assignment = route_requests(spec.router, timelines, times)

    tasks: List[ReplicaTask] = []
    for replica in range(spec.num_replicas):
        pairs = assignment.per_replica[replica]
        if not pairs:
            continue
        reliability = base.reliability
        if spec.degraded_reliability is not None and any(
                timelines[replica].kinds):
            # Any transition implies the replica at least degraded.
            reliability = spec.degraded_reliability
        tasks.append(ReplicaTask(
            spec=replace(base, reliability=reliability),
            replica=replica,
            fleet_ids=tuple(fleet_id for fleet_id, _ in pairs),
            arrival_times_ns=tuple(send_ns for _, send_ns in pairs),
        ))

    sweep = run_sweep(run_replica_point, tasks, workers=workers,
                      journal=journal, start_method=start_method)
    return _aggregate(spec, base, times, timelines, assignment,
                      list(sweep.values), sweep.stats)


#: Health-gauge level recorded after each transition kind (1.0 healthy,
#: 0.5 degraded, 0.0 down) -- a plottable state track per replica.
_HEALTH_LEVEL = {
    ReplicaFaultKind.DEGRADED: 0.5,
    ReplicaFaultKind.DOWN: 0.0,
    ReplicaFaultKind.RECOVERED: 1.0,
}


def _fleet_observability(
    base: ScenarioSpec,
    timelines: Tuple[ReplicaTimeline, ...],
    assignment: FleetAssignment,
    runs: List[ReplicaRunResult],
) -> Tuple[Optional[TraceRecorder], Optional[MetricRegistry]]:
    """Fleet-level trace/metrics when the base scenario enables obs.

    Router decisions and replica-health transitions are recorded from
    the pure plan-phase values (``assignment``, ``timelines``), then
    merged with each replica run's own recordings under ``replica<i>/``
    prefixes.  Every input is deterministic, so the merged recordings
    are bit-identical at any worker count or start method.
    """
    sink = ObsSink.from_config(base.obs, track="router")
    if sink is None:
        return None, None
    for route in assignment.routes:
        for number, attempt in enumerate(route.attempts):
            name = "fleet.route" if number == 0 else "fleet.reroute"
            sink.event(attempt.send_ns, name, request=route.index,
                       replica=attempt.replica, lost=attempt.lost)
            sink.count(attempt.send_ns,
                       "fleet.routed" if number == 0 else "fleet.rerouted")
        if route.hedge is not None:
            sink.event(route.hedge.send_ns, "fleet.hedge",
                       request=route.index, replica=route.hedge.replica,
                       lost=route.hedge.lost)
            sink.count(route.hedge.send_ns, "fleet.hedged")
        if route.outcome != "served":
            # Shed requests never got an attempt; failed ones record
            # their terminal verdict after the last send they burned.
            at_ns = max([route.arrival_ns]
                        + [attempt.send_ns for attempt in route.attempts])
            sink.event(at_ns, f"fleet.{route.outcome}", request=route.index)
            sink.count(at_ns, f"fleet.{route.outcome}")
    for timeline in timelines:
        track = f"replica{timeline.replica}"
        for event in timeline.events:
            sink.event(event.at_ns, f"health.{event.kind.value}",
                       track=track)
            sink.gauge(event.at_ns, f"fleet.{track}.health",
                       _HEALTH_LEVEL[event.kind])
    trace: Optional[TraceRecorder] = None
    if sink.trace is not None:
        parts = [("", sink.trace)]
        parts += [(f"replica{run.replica}/", run.result.trace)
                  for run in runs if run.result.trace is not None]
        trace = merge_traces(parts)
    metrics: Optional[MetricRegistry] = None
    if sink.metrics is not None:
        reg_parts = [("", sink.metrics)]
        reg_parts += [(f"replica{run.replica}/", run.result.metrics)
                      for run in runs if run.result.metrics is not None]
        metrics = merge_registries(reg_parts)
    return trace, metrics


def _aggregate(spec: FleetSpec, base: ScenarioSpec, times: List[int],
               timelines: Tuple[ReplicaTimeline, ...],
               assignment: FleetAssignment,
               runs: List[ReplicaRunResult],
               stats: SweepStats) -> FleetResult:
    """Join replica runs and routing decisions into the fleet result."""
    slo = base.slo if base.slo is not None else SLOSpec()
    replica_results: List[Optional[WorkloadResult]] = \
        [None] * spec.num_replicas
    copies: Dict[int, List[FleetRecord]] = {}
    for run in runs:
        replica_results[run.replica] = run.result
        for record in run.records:
            copies.setdefault(record.fleet_id, []).append(record)

    # The episode extends through every send the router generated, so a
    # replica's local horizon can never exceed the fleet's -- the
    # denominator ordering behind "fleet goodput <= sum of replica
    # goodput".
    sends = [attempt.send_ns
             for route in assignment.routes
             for attempt in route.attempts]
    sends += [route.hedge.send_ns for route in assignment.routes
              if route.hedge is not None]
    horizon_ns = max([max(times)] + sends) if times else 0

    served = shed = failed = met = 0
    ttft_acc = LatencyAccumulator()
    tpot_acc = LatencyAccumulator()
    for route in assignment.routes:
        if route.outcome == "shed":
            shed += 1
            continue
        finished = [record for record in copies.get(route.index, ())
                    if not record.rejected
                    and record.first_token_ns is not None]
        if route.outcome == "failed" or not finished:
            failed += 1
            continue
        winner = min(finished,
                     key=lambda record: (record.first_token_ns,
                                         record.replica))
        served += 1
        ttft_ns = winner.first_token_ns - route.arrival_ns
        ttft_acc.record(ttft_ns)
        if winner.tpot_ns is not None:
            tpot_acc.record(winner.tpot_ns)
        if (ttft_ns <= slo.ttft_ns and winner.tpot_ns is not None
                and winner.tpot_ns <= slo.tpot_ns):
            met += 1

    elapsed_s = max(horizon_ns, 1) / 1e9
    end_ns = max([horizon_ns] + [result.end_ns
                                 for result in replica_results
                                 if result is not None])
    total_bytes = sum(result.bandwidth.bytes_transferred
                      for result in replica_results if result is not None)
    peak_per_replica = _controller_config(base).peak_bandwidth_bytes_per_ns
    availability = sum(
        timeline.up_fraction(horizon_ns) for timeline in timelines
    ) / max(1, len(timelines))
    trace, metrics = _fleet_observability(base, timelines, assignment, runs)

    return FleetResult(
        scenario=base.scenario,
        system=base.system,
        replicas=spec.num_replicas,
        horizon_ns=horizon_ns,
        availability=availability,
        requests=len(times),
        served=served,
        shed=shed,
        failed=failed,
        slo=slo,
        slo_met=met,
        offered_rate_per_s=len(times) / elapsed_s,
        goodput_per_s=met / elapsed_s,
        counters=assignment.counters,
        ttft=LatencyResult.from_accumulators([ttft_acc]),
        tpot=LatencyResult.from_accumulators([tpot_acc]),
        bandwidth=BandwidthResult(
            bytes_transferred=total_bytes,
            elapsed_ns=float(end_ns),
            peak_bytes_per_ns=peak_per_replica * spec.num_replicas,
        ),
        replica_results=tuple(replica_results),
        timelines=timelines,
        trace=trace,
        metrics=metrics,
        evaluations=sum(result.evaluations for result in replica_results
                        if result is not None),
        stats=stats,
    )
