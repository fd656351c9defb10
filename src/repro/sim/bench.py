"""Simulation-core throughput measurement (seed tick vs event-driven).

Reports simulated nanoseconds per wall-clock second for each simulation
core on a streaming drain, so the perf trajectory of the event-driven
rewrite stays visible in the benchmark suite and in CI via
``python -m repro.cli bench-smoke``.

Three cores are measured for the RoMe system:

* ``seed-tick`` -- the frozen seed implementation
  (:class:`repro.sim.reference.ReferenceRoMeController`), one Python
  evaluation per nanosecond with the seed's full-scan hot path;
* ``tick`` -- the current controller's tick core
  (:meth:`repro.drive.Driven.tick`: one ``_step`` per nanosecond, on the
  same internals as the event core);
* ``event`` -- the event-driven core (the default execution mode).

The headline ``speedup`` of a comparison row is event vs. seed-tick: the
wall-clock improvement of this tree over the seed for the same simulated
drain.

The ``bench-smoke`` report is data: :data:`SECTIONS` lists each report
key with the producer that builds it, and :data:`GATES` lists every
check on those rows, applied by :func:`evaluate_gates`.
"""

from __future__ import annotations

import time
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.controller.mc import ControllerConfig, ConventionalMemoryController
from repro.controller.request import RequestKind
from repro.core.controller import RoMeControllerConfig, RoMeMemoryController
from repro.core.interface import RowRequestKind, requests_for_transfer
from repro.core.virtual_bank import paper_vba_config
from repro.sim.reference import ReferenceRoMeController
from repro.sim.traces import streaming_trace


def _rome_controller(core: str, enable_refresh: bool = False):
    config = RoMeControllerConfig(num_stack_ids=1, enable_refresh=enable_refresh)
    if core == "seed-tick":
        return ReferenceRoMeController(config=config)
    return RoMeMemoryController(config=config)


def _load_rome(controller, total_bytes: int) -> None:
    vba = paper_vba_config()
    for request in requests_for_transfer(
        total_bytes,
        kind=RowRequestKind.RD_ROW,
        effective_row_bytes=vba.effective_row_bytes,
        num_channels=1,
        vbas_per_channel=vba.vbas_per_channel_per_sid,
    ):
        controller.enqueue(request)


def measure_rome_core(core: str, total_bytes: int = 512 * 1024,
                      enable_refresh: bool = False) -> Dict[str, Any]:
    """Drain a streaming read trace; returns simulated-ns/wall-second."""
    controller = _rome_controller(core, enable_refresh)
    _load_rome(controller, total_bytes)
    start = time.perf_counter()
    if core == "tick":
        end_ns = controller.run_until_idle(event_driven=False)
    else:
        # "event" uses the default core; the seed-tick reference has no
        # event_driven parameter (it only knows how to tick).
        end_ns = controller.run_until_idle()
    wall_s = max(time.perf_counter() - start, 1e-9)
    return {
        "system": "rome",
        "core": core,
        "total_bytes": total_bytes,
        "simulated_ns": end_ns,
        "wall_ms": wall_s * 1e3,
        "sim_ns_per_wall_s": end_ns / wall_s,
        # The frozen seed reference predates the counter and reports 0.
        "evaluations": getattr(controller.stats, "evaluations", 0),
        "refreshes": controller.stats.refreshes_issued,
    }


def measure_hbm4_core(core: str, total_bytes: int = 96 * 1024,
                      enable_refresh: bool = False) -> Dict[str, Any]:
    """Drain a streaming read trace on the conventional controller."""
    controller = ConventionalMemoryController(
        config=ControllerConfig(num_stack_ids=1, enable_refresh=enable_refresh)
    )
    for request in streaming_trace(total_bytes, request_bytes=4096,
                                   kind=RequestKind.READ):
        controller.enqueue(request)
    start = time.perf_counter()
    end_ns = controller.run_until_idle(event_driven=(core == "event"))
    wall_s = max(time.perf_counter() - start, 1e-9)
    return {
        "system": "hbm4",
        "core": core,
        "total_bytes": total_bytes,
        "simulated_ns": end_ns,
        "wall_ms": wall_s * 1e3,
        "sim_ns_per_wall_s": end_ns / wall_s,
        "evaluations": controller.stats.evaluations,
        "refreshes": controller.stats.refreshes_issued,
    }


def _tick_vs_event(measure, total_bytes: int, repeats: int,
                   **kwargs) -> Dict[str, Any]:
    """Tick-vs-event comparison fields for one streaming drain.

    Shared by every comparison row (conventional and RoMe, refresh on and
    off) so they can never diverge on the cycle-exactness assertions or
    the speedup arithmetic.
    """
    tick = _best_rate(measure, "tick", repeats,
                      total_bytes=total_bytes, **kwargs)
    event = _best_rate(measure, "event", repeats,
                       total_bytes=total_bytes, **kwargs)
    if tick["simulated_ns"] != event["simulated_ns"]:
        raise AssertionError("cores disagree on simulated time")
    if tick["refreshes"] != event["refreshes"]:
        raise AssertionError("cores disagree on refreshes issued")
    return {
        "total_bytes": total_bytes,
        "simulated_ns": event["simulated_ns"],
        "tick_ns_per_s": tick["sim_ns_per_wall_s"],
        "event_ns_per_s": event["sim_ns_per_wall_s"],
        "speedup": (event["sim_ns_per_wall_s"]
                    / max(tick["sim_ns_per_wall_s"], 1e-9)),
        "tick_evaluations": tick["evaluations"],
        "event_evaluations": event["evaluations"],
        "refreshes": event["refreshes"],
    }


def _hbm4_tick_vs_event(total_bytes: int, repeats: int,
                        enable_refresh: bool = False) -> Dict[str, Any]:
    """Conventional-controller specialization of :func:`_tick_vs_event`."""
    return _tick_vs_event(measure_hbm4_core, total_bytes, repeats,
                          enable_refresh=enable_refresh)


def streaming_conventional_comparison(total_bytes: int = 512 * 1024,
                                      repeats: int = 2) -> Dict[str, Any]:
    """Conventional event-core gate row: the conventional controller on a
    saturated streaming drain, event core vs the 1-ns tick core.

    The drain is cycle-exact across cores (asserted), so the row compares
    wall-clock plus the scheduler-evaluation counts -- the tick core
    evaluates once per nanosecond, while one call of the event core's
    decision loop walks a whole advance and jumps over idle instants.
    ``evaluation_reduction`` is the ``bench-smoke`` gate for the paper's
    headline saturation scenario.
    """
    row = {"scenario": "streaming_conventional"}
    row.update(_hbm4_tick_vs_event(total_bytes, repeats))
    row["evaluation_reduction"] = (
        row["tick_evaluations"] / max(row["event_evaluations"], 1)
    )
    return row


def streaming_conventional_refresh_comparison(
    total_bytes: int = 512 * 1024,
    repeats: int = 2,
) -> Dict[str, Any]:
    """Refresh-enabled conventional event-core gate row.

    Same saturated streaming drain as
    :func:`streaming_conventional_comparison` but with per-bank refresh
    *on* -- the configuration the paper actually evaluates.  The decision
    loop issues the REFpbs inside the advance, so ``evaluation_reduction``
    here is gated by ``bench-smoke``'s
    ``--min-refresh-evaluation-reduction``.
    """
    row = {"scenario": "streaming_conventional_refresh"}
    row.update(_hbm4_tick_vs_event(total_bytes, repeats, enable_refresh=True))
    row["evaluation_reduction"] = (
        row["tick_evaluations"] / max(row["event_evaluations"], 1)
    )
    return row


def rome_refresh_comparison(total_bytes: int = 128 * 1024,
                            repeats: int = 2) -> Dict[str, Any]:
    """Refresh-enabled RoMe row: tick vs event core on a streaming drain.

    Exercises :func:`measure_rome_core` with ``enable_refresh=True`` so the
    perf trajectory tracks the paper's steady state (paired per-VBA
    refreshes interleaved with the stream) on the RoMe controller too.
    """
    row = {"scenario": "rome_refresh"}
    row.update(_tick_vs_event(measure_rome_core, total_bytes, repeats,
                              enable_refresh=True))
    row["evaluation_reduction"] = (
        row["tick_evaluations"] / max(row["event_evaluations"], 1)
    )
    return row


def _best_rate(measure, core: str, repeats: int, **kwargs) -> Dict[str, Any]:
    rows = [measure(core, **kwargs) for _ in range(max(1, repeats))]
    return max(rows, key=lambda row: row["sim_ns_per_wall_s"])


# ------------------------------------------------------------- workloads


def saturating_decode_spec(system: str):
    """The bench workload: open-loop decode serving that offers more
    bytes per iteration interval than the channel can move, so the run
    saturates and achieved bandwidth approaches the streaming peak."""
    from repro.workloads.scenarios import ScenarioSpec
    from repro.workloads.serving import ServingConfig

    serving = ServingConfig(
        model_name="grok-1",
        batch_capacity=4,
        prompt_tokens=256,
        output_tokens=3,
        iteration_interval_ns=256,
        traffic_scale=2.0 ** -23,
    )
    return ScenarioSpec(scenario="decode-serving", system=system,
                        rate_per_s=1_000_000.0, num_requests=4, seed=0,
                        serving=serving)


def measure_workload_core(core: str, system: str) -> Dict[str, Any]:
    """Run the saturating decode-serving workload on one core."""
    from repro.workloads.driver import run_workload

    start = time.perf_counter()
    result = run_workload(saturating_decode_spec(system),
                          event_driven=(core == "event"))
    wall_s = max(time.perf_counter() - start, 1e-9)
    return {
        "system": system,
        "core": core,
        "total_bytes": result.bandwidth.bytes_transferred,
        "simulated_ns": result.end_ns,
        "wall_ms": wall_s * 1e3,
        "sim_ns_per_wall_s": result.end_ns / wall_s,
        "evaluations": result.evaluations,
        "bandwidth_fraction": result.utilization,
        "saturated": result.overloaded,
        "p99_latency_ns": result.latency.p99,
    }


def workload_decode_serving_comparison(repeats: int = 1) -> List[Dict[str, Any]]:
    """Per-controller rows for the saturating decode-serving workload.

    One row per system (``rome``, ``hbm4``), each comparing the event
    core against forced per-nanosecond lockstep on the *same* compiled
    arrival schedule; the simulated outcome must agree bit-for-bit
    (asserted), so the row reports wall-clock, evaluations, and --
    the ``bench-smoke`` gate -- the achieved-bandwidth fraction of the
    saturated run (``--min-workload-bandwidth-fraction``).
    """
    rows: List[Dict[str, Any]] = []
    for system in ("rome", "hbm4"):
        tick = _best_rate(measure_workload_core, "tick", repeats,
                          system=system)
        event = _best_rate(measure_workload_core, "event", repeats,
                           system=system)
        if tick["simulated_ns"] != event["simulated_ns"]:
            raise AssertionError("cores disagree on simulated time")
        if tick["bandwidth_fraction"] != event["bandwidth_fraction"]:
            raise AssertionError("cores disagree on delivered bandwidth")
        rows.append({
            "scenario": "workload_decode_serving",
            "system": system,
            "total_bytes": event["total_bytes"],
            "simulated_ns": event["simulated_ns"],
            "tick_ns_per_s": tick["sim_ns_per_wall_s"],
            "event_ns_per_s": event["sim_ns_per_wall_s"],
            "speedup": (event["sim_ns_per_wall_s"]
                        / max(tick["sim_ns_per_wall_s"], 1e-9)),
            "tick_evaluations": tick["evaluations"],
            "event_evaluations": event["evaluations"],
            "bandwidth_fraction": event["bandwidth_fraction"],
            "saturated": event["saturated"],
            "p99_latency_ns": event["p99_latency_ns"],
        })
    return rows


def sustainable_rate_spec(system: str):
    """The bench rate-search workload: tiny closed-loop decode serving
    with an SLO tight enough that the bisection bracket actually brackets
    (low sustainable, high overloaded), so the search exercises real
    midpoint probes instead of collapsing to an endpoint."""
    from repro.workloads.scenarios import ScenarioSpec
    from repro.workloads.serving import SLOSpec, ServingConfig

    serving = ServingConfig(
        model_name="grok-1",
        batch_capacity=2,
        prompt_tokens=128,
        output_tokens=2,
        iteration_interval_ns=512,
        traffic_scale=2.0 ** -26,
    )
    return ScenarioSpec(scenario="decode-serving", system=system,
                        rate_per_s=200_000.0, num_requests=8, seed=0,
                        serving=serving, closed_loop=True,
                        slo=SLOSpec(ttft_ms=0.002, tpot_ms=0.001))


def max_sustainable_rate_comparison() -> List[Dict[str, Any]]:
    """Per-system rows for the max-sustainable-rate bisection.

    One row per system (``rome``, ``hbm4``): run
    :func:`repro.workloads.driver.find_max_sustainable_rate` over a
    fixed bracket; for the (cheap) RoMe search, run it twice and assert
    the two searches agree bit-for-bit (rate, probe sequence, goodput at
    every probe) -- the determinism contract of the closed-loop driver.
    The hbm4 search shares that contract (asserted by the tier-1
    equivalence suite) but costs tens of times the RoMe search in wall
    time (~0.4 s per probe on a 2-vCPU host), so the smoke runs it once.
    ``evaluations`` sums the probes' scheduler evaluations, the
    deterministic work counter behind ``wall_ms``.  The ``bench-smoke``
    gate (``--min-goodput-fraction``) checks the goodput fraction
    achieved at the found rate.
    """
    from repro.workloads.driver import find_max_sustainable_rate

    rows: List[Dict[str, Any]] = []
    for system in ("rome", "hbm4"):
        spec = sustainable_rate_spec(system)
        start = time.perf_counter()
        first = find_max_sustainable_rate(spec, 50_000.0, 5_000_000.0,
                                          probes=8)
        wall_s = max(time.perf_counter() - start, 1e-9)
        if system == "rome":
            second = find_max_sustainable_rate(spec, 50_000.0, 5_000_000.0,
                                               probes=8)
            if first != second:
                raise AssertionError(
                    "max-sustainable-rate search is not deterministic")
        best = max(
            (probe for probe in first.probes if probe.sustainable),
            key=lambda probe: probe.rate_per_s,
            default=None,
        )
        rows.append({
            "scenario": "max_sustainable_rate",
            "system": system,
            "max_rate_per_s": first.max_rate_per_s,
            "goodput_per_s": best.goodput_per_s if best else 0.0,
            "goodput_fraction": best.goodput_fraction if best else 0.0,
            "threshold": first.threshold,
            "probes": len(first.probes),
            "evaluations": sum(probe.evaluations for probe in first.probes),
            "wall_ms": wall_s * 1e3,
        })
    return rows


def measure_checkpoint_roundtrip(system: str, total_bytes: int,
                                 repeats: int = 1) -> Dict[str, Any]:
    """Snapshot+restore overhead and resume bit-identity for one system.

    Runs a refresh-enabled streaming drain uninterrupted, then reruns it
    with a cut at the halfway point: advance to ``end/2`` (the hbm4 event
    core's loop stops at the cut as it does at an arrival),
    snapshot the controller, restore from the pickled checkpoint, and
    finish.  ``identical`` requires the resumed run to match the
    uninterrupted one bit-for-bit (end time and full stats object);
    ``overhead_fraction`` is the snapshot+restore wall time as a fraction
    of the uninterrupted run's wall time (timings best-of ``repeats``,
    identity asserted on every repeat).
    """
    from repro.sim.checkpoint import restore_controller, snapshot_controller

    def build():
        if system == "rome":
            controller = _rome_controller("event", enable_refresh=True)
            _load_rome(controller, total_bytes)
        else:
            controller = ConventionalMemoryController(
                config=ControllerConfig(num_stack_ids=1, enable_refresh=True)
            )
            for request in streaming_trace(total_bytes, request_bytes=4096,
                                           kind=RequestKind.READ):
                controller.enqueue(request)
        return controller

    run_s = snapshot_s = restore_s = float("inf")
    snapshot_bytes = 0
    identical = True
    end_ns = 0
    refreshes = 0
    for _ in range(max(1, repeats)):
        baseline = build()
        start = time.perf_counter()
        end_ns = baseline.run_until_idle()
        run_s = min(run_s, time.perf_counter() - start)
        refreshes = baseline.stats.refreshes_issued

        cut = build()
        cut.advance_to(end_ns // 2)
        start = time.perf_counter()
        checkpoint = snapshot_controller(cut)
        snapshot_s = min(snapshot_s, time.perf_counter() - start)
        snapshot_bytes = len(checkpoint.payload)
        start = time.perf_counter()
        restored = restore_controller(checkpoint)
        restore_s = min(restore_s, time.perf_counter() - start)
        resumed_end = restored.run_until_idle()
        identical = identical and (resumed_end == end_ns
                                   and restored.stats == baseline.stats)
    return {
        "scenario": "checkpoint",
        "system": system,
        "total_bytes": total_bytes,
        "simulated_ns": end_ns,
        "run_ms": run_s * 1e3,
        "snapshot_ms": snapshot_s * 1e3,
        "restore_ms": restore_s * 1e3,
        "snapshot_bytes": snapshot_bytes,
        "overhead_fraction": (snapshot_s + restore_s) / max(run_s, 1e-9),
        "identical": identical,
        "refreshes": refreshes,
    }


def checkpoint_roundtrip_comparison(
    rome_bytes: int = 128 * 1024,
    hbm4_bytes: int = 96 * 1024,
    repeats: int = 1,
) -> List[Dict[str, Any]]:
    """Per-system ``checkpoint`` rows for ``bench-smoke``.

    One row per controller, each gated in :data:`GATES` on ``identical``
    (must be ``True``: a checkpoint that changes the simulation is a
    correctness bug, not a perf regression) and on ``overhead_fraction``
    (``--max-checkpoint-overhead``).
    """
    return [
        measure_checkpoint_roundtrip("rome", rome_bytes, repeats=repeats),
        measure_checkpoint_roundtrip("hbm4", hbm4_bytes, repeats=repeats),
    ]


# ----------------------------------------------------------- reliability


def fault_campaign_spec(system: str):
    """The bench fault campaign: a small streaming drain under a seeded
    device-fault model hot enough that the whole RAS ladder fires --
    corrections, detected-uncorrectable retries, recoveries, and scrub
    passes -- on ``system``.  Rates are per-system because the two
    controllers protect very different codewords (a 4 KiB effective row
    vs a 32 B access), so one bit-error rate cannot exercise both."""
    from repro.reliability import ReliabilityConfig
    from repro.workloads.scenarios import ScenarioSpec

    if system == "rome":
        reliability = ReliabilityConfig(
            seed=11, transient_ber=2e-5, retention_ber=4e-6,
            hard_row_rate=0.05, scrub_interval_ns=1_000)
    else:
        reliability = ReliabilityConfig(
            seed=11, transient_ber=2e-4, retention_ber=4e-5,
            hard_row_rate=0.02, scrub_interval_ns=1_000)
    return ScenarioSpec(scenario="streaming-drain", system=system,
                        num_requests=2, seed=0, reliability=reliability)


def reliability_comparison() -> List[Dict[str, Any]]:
    """Per-system ``reliability`` rows for ``bench-smoke``.

    One row per controller, double-gated in :data:`GATES`:

    * ``zero_rate_identical`` -- a run carrying an all-zero-rate
      :class:`~repro.reliability.faults.ReliabilityConfig` must be
      bit-identical to the run with no config at all (the inactive
      engine takes the exact baseline code paths);
    * ``campaign_identical`` -- the seeded fault campaign run twice must
      produce equal results including every RAS counter, and the
      campaign must be *live* (corrections and DUE retries both > 0),
      so the determinism claim covers an exercised ladder, not a no-op.
    """
    from dataclasses import replace as dc_replace

    from repro.reliability import ReliabilityConfig, ReliabilityStats
    from repro.workloads.driver import run_workload

    rows: List[Dict[str, Any]] = []
    for system in ("rome", "hbm4"):
        spec = fault_campaign_spec(system)
        baseline = run_workload(dc_replace(spec, reliability=None))
        zero = run_workload(dc_replace(
            spec,
            reliability=ReliabilityConfig(
                seed=spec.reliability.seed,
                ecc_scheme=spec.reliability.ecc_scheme)))
        zero_rate_identical = (
            dc_replace(zero, reliability=None) == baseline
            and (zero.reliability is None
                 or zero.reliability == ReliabilityStats())
        )
        start = time.perf_counter()
        first = run_workload(spec)
        wall_s = max(time.perf_counter() - start, 1e-9)
        second = run_workload(spec)
        stats = first.reliability
        campaign_identical = (
            first == second
            and stats is not None
            and stats.corrected > 0
            and stats.detected_uncorrectable > 0
            and stats.retries_scheduled > 0
            and stats.scrub_passes > 0
        )
        counters = stats.as_dict() if stats is not None else {}
        rows.append({
            "scenario": "reliability",
            "system": system,
            "zero_rate_identical": zero_rate_identical,
            "campaign_identical": campaign_identical,
            "ecc_scheme": spec.reliability.ecc_scheme,
            "reads_checked": counters.get("reads_checked", 0),
            "corrected": counters.get("corrected", 0),
            "due": counters.get("detected_uncorrectable", 0),
            "sdc": counters.get("silent_miscorrects", 0),
            "retries": counters.get("retries_scheduled", 0),
            "recovered": counters.get("recovered_reads", 0),
            "spared_rows": counters.get("spared_rows", 0),
            "offlined_banks": counters.get("offlined_banks", 0),
            "scrub_passes": counters.get("scrub_passes", 0),
            "sdc_rate": stats.sdc_rate if stats is not None else 0.0,
            "wall_ms": wall_s * 1e3,
        })
    return rows


def fleet_zero_fault_spec():
    """A one-replica, zero-fault fleet around a small closed-loop decode
    episode: the fleet layer must be a bit-exact no-op wrapper here."""
    from repro.fleet import FleetSpec
    from repro.workloads.scenarios import ScenarioSpec
    from repro.workloads.serving import SLOSpec

    base = ScenarioSpec(scenario="decode-serving", system="rome",
                        rate_per_s=200_000.0, num_requests=6, seed=3,
                        closed_loop=True, slo=SLOSpec())
    return FleetSpec(base=base, num_replicas=1)


def fleet_campaign_spec():
    """The bench live-failover campaign: three replicas under a seeded
    fault process hot enough that every replica walks the full
    degraded -> down -> recovered ladder inside the episode, with the
    router retrying lost requests and hedging degraded ones."""
    from repro.fleet import FleetSpec, ReplicaFaultConfig, RouterPolicy
    from repro.workloads.scenarios import ScenarioSpec
    from repro.workloads.serving import SLOSpec

    base = ScenarioSpec(scenario="decode-serving", system="rome",
                        rate_per_s=400_000.0, num_requests=12, seed=3,
                        closed_loop=True, slo=SLOSpec())
    return FleetSpec(
        base=base,
        num_replicas=3,
        faults=ReplicaFaultConfig(seed=0, window_ns=2_000, due_rate=0.8,
                                  due_threshold=2, hard_failure_rate=0.02,
                                  degraded_escalation=8.0,
                                  recovery_ns=12_000),
        router=RouterPolicy(health_check_interval_ns=4_000,
                            request_timeout_ns=6_000, max_retries=2,
                            retry_backoff_ns=1_000, hedge_delay_ns=1_000),
    )


def fleet_resilience_comparison() -> List[Dict[str, Any]]:
    """``fleet`` rows for ``bench-smoke``, double-gated in :data:`GATES`:

    * ``zero_fault_identical`` -- a one-replica zero-fault fleet must be
      bit-identical to the plain closed-loop run of its base spec (the
      routing/aggregation layers add exactly nothing);
    * ``campaign_identical`` -- the seeded live-failover campaign run
      twice (serial, then sharded across two workers) must produce equal
      results, and the campaign must be *live*: at least one replica
      walks degraded -> down -> recovered, requests were rerouted and
      hedged, and availability actually dipped below 1.
    """
    from repro.fleet import run_fleet
    from repro.workloads.driver import run_workload

    rows: List[Dict[str, Any]] = []

    spec = fleet_zero_fault_spec()
    start = time.perf_counter()
    fleet = run_fleet(spec)
    wall_s = max(time.perf_counter() - start, 1e-9)
    plain = run_workload(spec.base)
    zero_fault_identical = (
        fleet.replica_results == (plain,)
        and fleet.goodput_per_s == plain.goodput_per_s
        and fleet.availability == 1.0
    )
    rows.append({
        "scenario": "fleet-zero-fault",
        "system": spec.base.system,
        "replicas": spec.num_replicas,
        "zero_fault_identical": zero_fault_identical,
        "requests": fleet.requests,
        "served": fleet.served,
        "goodput_per_s": fleet.goodput_per_s,
        "availability": fleet.availability,
        "wall_ms": wall_s * 1e3,
    })

    spec = fleet_campaign_spec()
    start = time.perf_counter()
    first = run_fleet(spec, workers=1)
    wall_s = max(time.perf_counter() - start, 1e-9)
    second = run_fleet(spec, workers=2)
    ladder = ("degraded", "down", "recovered")
    campaign_identical = (
        first == second
        and any(kinds[:3] == ladder for kinds in first.transitions)
        and first.counters.rerouted > 0
        and first.counters.hedged > 0
        and 0.0 < first.availability < 1.0
    )
    rows.append({
        "scenario": "fleet-failover",
        "system": spec.base.system,
        "replicas": spec.num_replicas,
        "campaign_identical": campaign_identical,
        "requests": first.requests,
        "served": first.served,
        "shed": first.shed,
        "failed": first.failed,
        "slo_met": first.slo_met,
        "rerouted": first.counters.rerouted,
        "hedged": first.counters.hedged,
        "timeouts": first.counters.timeouts,
        "availability": first.availability,
        "goodput_per_s": first.goodput_per_s,
        "wall_ms": wall_s * 1e3,
    })
    return rows


# -------------------------------------------------------- observability


def observability_comparison(repeats: int = 1) -> List[Dict[str, Any]]:
    """``observability`` rows for ``bench-smoke``, triple-gated in
    :data:`GATES`:

    * ``obs_off_identical`` -- a run carrying a present-but-disabled
      :class:`~repro.obs.config.ObsConfig` must be bit-identical to the
      no-obs baseline, on both controllers' saturating decode workload
      and on the live closed-loop fleet campaign (the hooks must
      short-circuit to the exact pre-obs code paths);
    * ``obs_on_deterministic`` -- repeated obs-enabled runs must agree
      bit-for-bit *including* the exported Chrome-trace bytes; the
      fleet pair runs at worker counts 1 and 2, so trace byte-identity
      across sharding is gated too;
    * ``overhead_x`` -- obs-on over obs-off wall time (best of
      ``repeats`` each), gated by ``--max-obs-overhead``.
    """
    from dataclasses import replace as dc_replace

    from repro.fleet import run_fleet
    from repro.obs import ObsConfig, to_chrome_trace
    from repro.workloads.driver import run_workload

    enabled = ObsConfig(trace=True, metrics=True)
    rows: List[Dict[str, Any]] = []

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return result, max(time.perf_counter() - start, 1e-9)

    for system in ("rome", "hbm4"):
        spec = saturating_decode_spec(system)
        baseline = run_workload(spec)
        off_runs = [timed(lambda: run_workload(
            dc_replace(spec, obs=ObsConfig())))
            for _ in range(max(1, repeats))]
        # Always at least two enabled runs: the determinism gate needs
        # a pair to compare.
        on_runs = [timed(lambda: run_workload(
            dc_replace(spec, obs=enabled)))
            for _ in range(max(2, repeats))]
        first = on_runs[0][0]
        obs_off_identical = all(result == baseline
                                and result.trace is None
                                and result.metrics is None
                                for result, _ in off_runs)
        obs_on_deterministic = all(
            result == first
            and to_chrome_trace(result.trace) == to_chrome_trace(first.trace)
            for result, _ in on_runs[1:])
        off_s = min(wall for _, wall in off_runs)
        on_s = min(wall for _, wall in on_runs)
        rows.append({
            "scenario": "obs-workload",
            "target": system,
            "obs_off_identical": obs_off_identical,
            "obs_on_deterministic": obs_on_deterministic,
            "trace_events": len(first.trace.events),
            "metric_series": len(first.metrics),
            "off_ms": off_s * 1e3,
            "on_ms": on_s * 1e3,
            "overhead_x": on_s / off_s,
        })

    spec = fleet_campaign_spec()
    baseline = run_fleet(spec)
    disabled_spec = dc_replace(spec, base=dc_replace(spec.base,
                                                     obs=ObsConfig()))
    enabled_spec = dc_replace(spec, base=dc_replace(spec.base, obs=enabled))
    off_runs = [timed(lambda: run_fleet(disabled_spec))
                for _ in range(max(1, repeats))]
    on_runs = [timed(lambda: run_fleet(enabled_spec))
               for _ in range(max(1, repeats))]
    sharded, _ = timed(lambda: run_fleet(enabled_spec, workers=2))
    first = on_runs[0][0]
    obs_off_identical = all(result == baseline
                            and result.trace is None
                            and result.metrics is None
                            for result, _ in off_runs)
    obs_on_deterministic = all(
        result == first
        and to_chrome_trace(result.trace) == to_chrome_trace(first.trace)
        for result, _ in on_runs[1:] + [(sharded, 0.0)])
    off_s = min(wall for _, wall in off_runs)
    on_s = min(wall for _, wall in on_runs)
    rows.append({
        "scenario": "obs-fleet",
        "target": "fleet",
        "obs_off_identical": obs_off_identical,
        "obs_on_deterministic": obs_on_deterministic,
        "trace_events": len(first.trace.events),
        "metric_series": len(first.metrics),
        "off_ms": off_s * 1e3,
        "on_ms": on_s * 1e3,
        "overhead_x": on_s / off_s,
    })
    return rows


def throughput_comparison(
    rome_bytes: int = 512 * 1024,
    hbm4_bytes: int = 96 * 1024,
    repeats: int = 3,
    systems: Sequence[str] = ("rome", "hbm4"),
) -> List[Dict[str, Any]]:
    """Per-system core comparison rows with an event-vs-seed speedup.

    The drains are cycle-exact across cores (asserted), so the rows compare
    wall-clock only.
    """
    rows: List[Dict[str, Any]] = []
    if "rome" in systems:
        seed = _best_rate(measure_rome_core, "seed-tick", repeats,
                          total_bytes=rome_bytes)
        tick = _best_rate(measure_rome_core, "tick", repeats,
                          total_bytes=rome_bytes)
        event = _best_rate(measure_rome_core, "event", repeats,
                           total_bytes=rome_bytes)
        if len({seed["simulated_ns"], tick["simulated_ns"],
                event["simulated_ns"]}) != 1:
            raise AssertionError("cores disagree on simulated time")
        rows.append({
            "system": "rome",
            "total_bytes": rome_bytes,
            "simulated_ns": event["simulated_ns"],
            "seed_tick_ns_per_s": seed["sim_ns_per_wall_s"],
            "tick_ns_per_s": tick["sim_ns_per_wall_s"],
            "event_ns_per_s": event["sim_ns_per_wall_s"],
            "speedup": (event["sim_ns_per_wall_s"]
                        / max(seed["sim_ns_per_wall_s"], 1e-9)),
            "tick_evaluations": tick["evaluations"],
            "event_evaluations": event["evaluations"],
        })
    if "hbm4" in systems:
        # No frozen seed reference exists for the conventional controller,
        # so its speedup is event vs. the current tick wrapper only; the
        # seed-tick column is intentionally absent.
        row = {"system": "hbm4"}
        row.update(_hbm4_tick_vs_event(hbm4_bytes, repeats))
        rows.append(row)
    return rows


# ------------------------------------------------------------ bench-smoke


#: The ``bench-smoke`` report sections, in report and run order: each
#: report key with the producer that builds it from the run parameters
#: (``bytes``, ``conventional_bytes``, ``repeats``).
SECTIONS: List[Tuple[str, Callable[[Dict[str, int]], Any]]] = [
    ("core", lambda p: throughput_comparison(
        rome_bytes=p["bytes"], hbm4_bytes=min(p["bytes"], 64 * 1024),
        repeats=p["repeats"])),
    # The conventional controller on the paper's headline saturation
    # scenario, refresh off and -- the configuration the paper
    # evaluates -- refresh on.
    ("streaming_conventional", lambda p: streaming_conventional_comparison(
        total_bytes=p["conventional_bytes"], repeats=p["repeats"])),
    ("streaming_conventional_refresh",
     lambda p: streaming_conventional_refresh_comparison(
         total_bytes=p["conventional_bytes"], repeats=p["repeats"])),
    ("rome_refresh", lambda p: rome_refresh_comparison(
        total_bytes=p["bytes"], repeats=p["repeats"])),
    ("workload", lambda p: workload_decode_serving_comparison(
        repeats=p["repeats"])),
    ("max_sustainable_rate", lambda p: max_sustainable_rate_comparison()),
    ("checkpoint", lambda p: checkpoint_roundtrip_comparison(
        rome_bytes=p["bytes"],
        hbm4_bytes=min(p["conventional_bytes"], 96 * 1024),
        repeats=p["repeats"])),
    ("reliability", lambda p: reliability_comparison()),
    ("fleet", lambda p: fleet_resilience_comparison()),
    ("observability", lambda p: observability_comparison(
        repeats=p["repeats"])),
]


class Gate(NamedTuple):
    """One ``bench-smoke`` check on the rows of one report section.

    ``select`` is a ``(field, value)`` pair naming the rows the gate
    judges (``None``: every row); ``fails(row, threshold)`` is true when
    a row misses the gate, and ``message`` formats the failure line from
    ``row``, ``threshold`` and ``flag``.  A gate with a ``default`` is
    tunable through its ``--<name>`` flag (``help`` is the flag's help
    text); the others are always on.
    """

    name: str
    section: str
    select: Optional[Tuple[str, str]]
    fails: Callable[[Dict[str, Any], Optional[float]], bool]
    message: str
    default: Optional[float] = None
    help: Optional[str] = None

    @property
    def flag(self) -> str:
        return f"--{self.name}"


#: Every ``bench-smoke`` gate, grouped by section in report order.  The
#: identity gates are always on: a checkpoint, fault config, fleet
#: wrapper or obs config that perturbs the simulation, or a campaign
#: that is not bit-reproducible, is a correctness bug, not a perf
#: regression.
GATES: List[Gate] = [
    Gate("min-speedup", "core", ("system", "rome"),
         lambda row, t: row["speedup"] < t,
         "event core speedup {row[speedup]:.1f}x is below the {flag} gate "
         "of {threshold:g}x",
         5.0, "exit non-zero when the event core is slower than this "
              "multiple of the seed core (0 disables)"),
    Gate("min-conventional-speedup", "streaming_conventional", None,
         lambda row, t: row["speedup"] < t,
         "conventional streaming speedup {row[speedup]:.2f}x is below the "
         "{flag} gate of {threshold:g}x",
         1.2, "exit non-zero when the conventional event core is slower "
              "than this multiple of its tick core on the streaming drain "
              "(0 disables)"),
    Gate("min-evaluation-reduction", "streaming_conventional", None,
         lambda row, t: row["evaluation_reduction"] < t,
         "conventional scheduler-evaluation reduction "
         "{row[evaluation_reduction]:.1f}x is below the {flag} gate of "
         "{threshold:g}x",
         10.0, "exit non-zero when the event core cuts conventional scheduler "
               "evaluations by less than this factor on the streaming "
               "drain (0 disables)"),
    Gate("min-refresh-evaluation-reduction", "streaming_conventional_refresh",
         None,
         lambda row, t: row["evaluation_reduction"] < t,
         "refresh-enabled evaluation reduction "
         "{row[evaluation_reduction]:.1f}x is below the {flag} gate of "
         "{threshold:g}x",
         5.0, "exit non-zero when the refresh-enabled event core cuts "
              "conventional scheduler evaluations by less than this factor "
              "on the refresh-enabled streaming drain -- the configuration "
              "the paper evaluates (0 disables)"),
    Gate("min-workload-bandwidth-fraction", "workload", None,
         lambda row, t: row["bandwidth_fraction"] < t,
         "{row[system]} saturating decode-serving workload delivered "
         "{row[bandwidth_fraction]:.2f} of peak bandwidth, below the {flag} "
         "gate of {threshold:g}",
         0.5, "exit non-zero when the saturating decode-serving workload "
              "delivers less than this fraction of peak bandwidth on "
              "either controller (0 disables)"),
    Gate("min-goodput-fraction", "max_sustainable_rate", None,
         lambda row, t: (row["max_rate_per_s"] <= 0
                         or row["goodput_fraction"] < t),
         "{row[system]} max-sustainable-rate search found "
         "{row[max_rate_per_s]:g} req/s at goodput fraction "
         "{row[goodput_fraction]:.2f}, below the {flag} gate of "
         "{threshold:g}",
         0.9, "exit non-zero when the max-sustainable-rate search finds no "
              "rate, or the goodput fraction at the found rate is below "
              "this, on either controller (0 disables)"),
    Gate("checkpoint-identical", "checkpoint", None,
         lambda row, t: not row["identical"],
         "{row[system]} checkpoint-resume run diverged from the "
         "uninterrupted run (bit-identity violated)"),
    Gate("max-checkpoint-overhead", "checkpoint", None,
         lambda row, t: row["overhead_fraction"] > t,
         "{row[system]} checkpoint snapshot+restore took "
         "{row[overhead_fraction]:.2f} of the run's wall time, above the "
         "{flag} gate of {threshold:g}",
         1.0, "exit non-zero when a controller's checkpoint "
              "snapshot+restore round-trip costs more than this fraction "
              "of the uninterrupted run's wall time (0 disables; resume "
              "bit-identity is always gated)"),
    Gate("zero-rate-identical", "reliability", None,
         lambda row, t: not row["zero_rate_identical"],
         "{row[system]} zero-fault-rate run diverged from the "
         "no-reliability baseline (bit-identity violated)"),
    Gate("fault-campaign-identical", "reliability", None,
         lambda row, t: not row["campaign_identical"],
         "{row[system]} seeded fault campaign was not deterministic or did "
         "not exercise the RAS ladder (corrected={row[corrected]}, "
         "due={row[due]}, retries={row[retries]}, "
         "scrubs={row[scrub_passes]})"),
    Gate("fleet-zero-fault-identical", "fleet",
         ("scenario", "fleet-zero-fault"),
         lambda row, t: not row["zero_fault_identical"],
         "zero-fault single-replica fleet diverged from the plain "
         "closed-loop run (bit-identity violated)"),
    Gate("fleet-campaign-identical", "fleet", ("scenario", "fleet-failover"),
         lambda row, t: not row["campaign_identical"],
         "seeded failover campaign was not deterministic across worker "
         "counts or did not exercise failover (rerouted={row[rerouted]}, "
         "hedged={row[hedged]}, availability={row[availability]:.3f})"),
    Gate("obs-off-identical", "observability", None,
         lambda row, t: not row["obs_off_identical"],
         "{row[target]} run with observability disabled diverged from the "
         "no-obs baseline (bit-identity violated)"),
    Gate("obs-on-deterministic", "observability", None,
         lambda row, t: not row["obs_on_deterministic"],
         "{row[target]} obs-enabled run was not byte-deterministic (trace "
         "or metrics differed between identical runs)"),
    Gate("max-obs-overhead", "observability", None,
         lambda row, t: row["overhead_x"] > t,
         "{row[target]} obs-enabled run took {row[overhead_x]:.2f}x the "
         "obs-off wall time, above the {flag} gate of {threshold:g}x",
         1.5, "exit non-zero when an obs-enabled run takes more than this "
              "multiple of the obs-off wall time (0 disables; obs-off "
              "bit-identity and obs-on byte-determinism are always gated)"),
]


def default_thresholds() -> Dict[str, float]:
    """Each tunable gate's flag mapped to its default threshold."""
    return {gate.flag: gate.default for gate in GATES
            if gate.default is not None}


def _selects(gate: Gate, row: Dict[str, Any]) -> bool:
    return gate.select is None or row[gate.select[0]] == gate.select[1]


def evaluate_gates(report: Dict[str, Any],
                   thresholds: Dict[str, float]) -> List[str]:
    """The failure messages of ``report`` against :data:`GATES` (empty
    when every gate passes).

    ``thresholds`` maps every tunable gate's flag to its threshold; a
    threshold of ``0`` (or below) disables that gate.  Failures are
    listed section by section, then row by row, then in table order.  A
    gate that selects no row, or a row missing a field a gate reads,
    raises instead of passing.
    """
    failures: List[str] = []
    for section in dict.fromkeys(gate.section for gate in GATES):
        gates = [gate for gate in GATES if gate.section == section]
        rows = report[section]
        if not isinstance(rows, list):
            rows = [rows]
        for gate in gates:
            if not any(_selects(gate, row) for row in rows):
                raise ValueError(f"bench report has no {section} row for "
                                 f"the {gate.name} gate")
        for row in rows:
            for gate in gates:
                threshold = (None if gate.default is None
                             else thresholds[gate.flag])
                if threshold is not None and not threshold > 0:
                    continue
                if _selects(gate, row) and gate.fails(row, threshold):
                    failures.append(gate.message.format(
                        row=row, threshold=threshold, flag=gate.flag))
    return failures
