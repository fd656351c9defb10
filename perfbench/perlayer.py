"""Per-layer probes and the per-layer metrics of one traced run.

:func:`install_probes` puts a host-time span or leaf counter on each
public call the benchmark attributes time to; :func:`layer_metrics`
turns one traced run into the ``per_layer`` metrics of BENCHMARK.json.
Counts are exact and must repeat across traced runs (:func:`work_counts`).
A layer's host time is reported as its ``*_share`` of the traced call's
host time (multiply by ``wall_s`` for seconds); the probes inflate it,
and ``obs.trace_overhead_x`` says by how much.  Simulated times are in
``sim-ns``, never mixed with host time.
"""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Any, Dict, List

from repro.controller.mc import ConventionalMemoryController
from repro.controller.scheduler import FrFcfsScheduler
from repro.core.controller import RoMeMemoryController
from repro.dram.address import AddressMapping
from repro.dram.channel import Channel
from repro.fleet import driver as fleet_driver
from repro.fleet.health import ReplicaTimeline
from repro.sim.engine import Simulation
from repro.workloads import driver as workload_driver
from repro.workloads.serving import ClosedLoopServer

from hostspans import HostTracer

#: An engine advance shorter than this steps the driver almost one
#: nanosecond at a time (the train planner needs longer horizons).
SHORT_ADVANCE_NS = 8

SERVING_SPANS = ("workloads.serving.next_launch_ns",
                 "workloads.serving.begin_iteration",
                 "workloads.serving.finish_iteration")
PLAN_SPANS = ("workloads.scenarios.serving_plan",
              "workloads.scenarios.build_schedule")
ROUTER_FIELDS = ("routed", "rerouted", "hedged", "timeouts", "shed", "failed")
SIM_OUTPUTS = ("sim_max_rate_per_s", "sim_goodput_per_s", "sim_ttft_p50_ns",
               "sim_ttft_p99_ns", "sim_bandwidth_fraction", "sim_mib_moved")


def install_probes(tracer: HostTracer) -> None:
    """Probe every layer boundary at the attribute its caller resolves."""
    span, leaf = tracer.span, tracer.leaf
    # Episodes: one rate-search probe, one replica.
    span(workload_driver, "rate_sweep", "workloads.driver.rate_sweep",
         new_episode=True)
    span(fleet_driver, "run_replica_point", "fleet.driver.run_replica_point",
         new_episode=True)
    span(fleet_driver, "run_sweep", "sim.sweep.run_sweep")
    span(fleet_driver, "route_requests", "fleet.router.route_requests")
    span(workload_driver, "serving_plan", "workloads.scenarios.serving_plan")
    span(fleet_driver, "serving_plan", "workloads.scenarios.serving_plan")
    span(workload_driver, "build_schedule",
         "workloads.scenarios.build_schedule")
    span(Simulation, "run_for", "sim.engine.run_for",
         observe=lambda args, result: args[1])
    for method in ("next_launch_ns", "begin_iteration", "finish_iteration"):
        span(ClosedLoopServer, method, f"workloads.serving.{method}")
    span(FrFcfsScheduler, "pick_column", "controller.scheduler.pick_column")
    span(FrFcfsScheduler, "plan_train", "controller.scheduler.plan_train",
         observe=lambda args, result: result is not None)
    for method in ("advance_to", "run_until_idle"):
        span(ConventionalMemoryController, method, f"controller.mc.{method}")
        span(RoMeMemoryController, method, f"core.controller.{method}")
    leaf(Channel, "can_issue", "dram.channel.can_issue")
    leaf(Channel, "issue", "dram.channel.issue")
    leaf(AddressMapping, "decode", "dram.address.decode")
    leaf(ReplicaTimeline, "health_at", "fleet.health.health_at")
    leaf(ReplicaTimeline, "goes_down_within", "fleet.health.goes_down_within")


def _sim_events(outcome: Any) -> Counter:
    return Counter(event.name for trace in outcome.traces
                   for event in trace.events)


def work_counts(tracer: HostTracer, outcome: Any, cache: Any) -> Dict:
    """Everything about a traced run that must repeat exactly."""
    return {
        "calls": dict(tracer.calls),
        "observed": {name: list(values)
                     for name, values in tracer.observed.items()},
        "evaluations": outcome.evaluations,
        "sim_events": dict(_sim_events(outcome)),
        "dropped": sum(trace.dropped for trace in outcome.traces),
        "cache": (cache.hits, cache.misses),
        "router": dict(outcome.router),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: HostTracer, outcome: Any, cache: Any,
                  self_rows: List[Dict[str, Any]], untraced_wall_s: float,
                  ) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    A layer the workload never enters reports 0 (for example every
    ``controller.*`` value on ``fleet-rome``, which runs only RoMe).
    ``self_rows`` is the ``span_self_times`` table of the written trace.
    """
    count = tracer.count

    def share(*names: str) -> float:
        return _ratio(tracer.seconds(*names), outcome.wall_s)

    advances = tracer.observed["sim.engine.run_for"]
    plans = tracer.observed["controller.scheduler.plan_train"]
    events = _sim_events(outcome)
    conventional = outcome.system == "hbm4"
    self_ns = {row["name"]: row["self_ns"] for row in self_rows}
    can_issue = count("dram.channel.can_issue")
    issues = count("dram.channel.issue")
    metrics = {
        "wall_s": untraced_wall_s,
        "workloads.driver.advances": len(advances),
        "workloads.driver.advance_ns_p50":
            statistics.median(advances) if advances else 0.0,
        "workloads.driver.short_advance_fraction": _ratio(
            sum(1 for ns in advances if ns < SHORT_ADVANCE_NS),
            len(advances)),
        "sim.engine.run_for_share": share("sim.engine.run_for"),
        "workloads.serving.iterations":
            count("workloads.serving.begin_iteration"),
        "workloads.serving.self_share": _ratio(
            sum(self_ns.get(name, 0.0) for name in SERVING_SPANS) / 1e9,
            outcome.wall_s),
        "workloads.scenarios.plan_share": share(*PLAN_SPANS),
        "controller.scheduler.picks":
            count("controller.scheduler.pick_column"),
        "controller.scheduler.pick_share":
            share("controller.scheduler.pick_column"),
        "controller.scheduler.plans": len(plans),
        "controller.scheduler.plan_share":
            share("controller.scheduler.plan_train"),
        "controller.scheduler.plan_success_ratio":
            _ratio(sum(plans), len(plans)),
        "controller.mc.evaluations":
            outcome.evaluations if conventional else 0,
        "controller.mc.trains_applied":
            events["train.apply"] if conventional else 0,
        "controller.mc.refreshes":
            events["refresh.issue"] if conventional else 0,
        "core.controller.evaluations":
            0 if conventional else outcome.evaluations,
        "core.controller.trains_applied":
            0 if conventional else events["train.apply"],
        "core.controller.advance_share": share(
            "core.controller.advance_to", "core.controller.run_until_idle"),
        "dram.channel.can_issue_calls": can_issue,
        "dram.channel.can_issue_share": share("dram.channel.can_issue"),
        "dram.channel.issues": issues,
        "dram.channel.issue_share": share("dram.channel.issue"),
        "dram.channel.issue_per_check": _ratio(issues, can_issue),
        "dram.address.decodes": count("dram.address.decode"),
        "dram.address.decode_share": share("dram.address.decode"),
        "trace_cache.hit_ratio": cache.hit_rate,
        "fleet.router.route_share": share("fleet.router.route_requests"),
        "fleet.health.scan_calls": count("fleet.health.health_at",
                                         "fleet.health.goes_down_within"),
        "fleet.health.scan_share": share("fleet.health.health_at",
                                         "fleet.health.goes_down_within"),
        "sim.sweep.overhead_share": max(
            0.0, share("sim.sweep.run_sweep")
            - share("fleet.driver.run_replica_point")),
        "obs.trace_overhead_x": _ratio(outcome.wall_s, untraced_wall_s),
        "obs.events": sum(len(trace.events) for trace in outcome.traces),
        "obs.dropped": sum(trace.dropped for trace in outcome.traces),
    }
    for field in ROUTER_FIELDS:
        metrics[f"fleet.router.{field}"] = outcome.router.get(field, 0)
    for name in SIM_OUTPUTS:
        metrics[name] = outcome.sim.get(name, 0.0)
    return metrics
