"""The observability determinism contract, end to end.

Two halves, mirroring the ``bench-smoke`` gates:

* **off** -- a run carrying a present-but-disabled :class:`ObsConfig`
  is bit-identical to the no-obs run of the same spec (the hooks
  short-circuit to the exact pre-obs code paths);
* **on** -- the recorded trace and metrics, and their exported bytes,
  are identical across repeated runs, worker counts, start methods,
  and a mid-run checkpoint cut.
"""

from dataclasses import replace

from repro.fleet import (
    FleetSpec,
    ReplicaFaultConfig,
    RouterPolicy,
    run_fleet,
)
from repro.obs import ObsConfig, to_chrome_trace, to_jsonl
from repro.reliability import ReliabilityConfig
from repro.workloads import (
    SLOSpec,
    ScenarioSpec,
    checkpoint_workload,
    resume_workload,
    run_workload,
    workload_sweep,
)

ON = ObsConfig(trace=True, metrics=True)


def _open_spec(**overrides):
    spec = dict(scenario="decode-serving", system="rome",
                rate_per_s=1_000_000.0, num_requests=4, seed=0)
    spec.update(overrides)
    return ScenarioSpec(**spec)


def _closed_spec(**overrides):
    spec = dict(scenario="decode-serving", system="rome",
                rate_per_s=400_000.0, num_requests=8, seed=3,
                closed_loop=True, slo=SLOSpec())
    spec.update(overrides)
    return ScenarioSpec(**spec)


def _campaign(base):
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


class TestObsOffIdentity:
    def test_open_loop_disabled_config_is_bit_identical(self):
        baseline = run_workload(_open_spec())
        disabled = run_workload(_open_spec(obs=ObsConfig()))
        assert disabled == baseline
        assert disabled.trace is None and disabled.metrics is None

    def test_closed_loop_disabled_config_is_bit_identical(self):
        baseline = run_workload(_closed_spec())
        disabled = run_workload(_closed_spec(obs=ObsConfig()))
        assert disabled == baseline
        assert disabled.trace is None and disabled.metrics is None

    def test_fleet_disabled_config_is_bit_identical(self):
        baseline = run_fleet(_campaign(_closed_spec()))
        disabled = run_fleet(_campaign(_closed_spec(obs=ObsConfig())))
        assert disabled == baseline
        assert disabled.trace is None and disabled.metrics is None

    def test_enabled_run_simulates_the_same_outcome(self):
        # Recording must observe, never perturb: every compared field
        # except the recordings themselves matches the baseline.
        baseline = run_workload(_closed_spec())
        recorded = run_workload(_closed_spec(obs=ON))
        assert replace(recorded, trace=None, metrics=None) == baseline


class TestObsOnDeterminism:
    def test_repeated_runs_export_identical_bytes(self):
        first = run_workload(_closed_spec(obs=ON))
        second = run_workload(_closed_spec(obs=ON))
        assert first == second
        assert len(first.trace.events) > 0
        assert to_chrome_trace(first.trace) == to_chrome_trace(second.trace)
        assert to_jsonl(first.trace) == to_jsonl(second.trace)
        assert first.metrics.as_dict() == second.metrics.as_dict()

    def test_sweep_workers_and_start_methods_agree(self):
        from repro.sim.sweep import run_sweep
        from repro.workloads import run_workload_point

        specs = [_open_spec(obs=ON, seed=seed) for seed in (0, 1, 2)]
        serial = workload_sweep(specs, workers=1)
        forked = run_sweep(run_workload_point, specs, workers=2,
                           start_method="fork")
        spawned = run_sweep(run_workload_point, specs, workers=2,
                            start_method="spawn")
        assert serial.values == forked.values == spawned.values
        for result in serial.values:
            assert len(result.trace.events) > 0

    def test_checkpoint_cut_resume_is_byte_identical(self):
        spec = _open_spec(obs=ON)
        full = run_workload(spec)
        cut = checkpoint_workload(spec, at_ns=full.end_ns // 2)
        resumed = resume_workload(cut)
        assert resumed == full
        assert to_chrome_trace(resumed.trace) == to_chrome_trace(full.trace)
        assert to_jsonl(resumed.trace) == to_jsonl(full.trace)
        assert resumed.metrics.as_dict() == full.metrics.as_dict()

    def test_fleet_worker_counts_agree_including_bytes(self):
        spec = _campaign(_closed_spec(obs=ON))
        serial = run_fleet(spec, workers=1)
        sharded = run_fleet(spec, workers=2)
        assert serial == sharded
        assert to_chrome_trace(serial.trace) == to_chrome_trace(sharded.trace)
        # The merged trace carries the router's plan-phase decisions and
        # each replica's own recording under its prefix.
        tracks = {event.track for event in serial.trace.events}
        assert "router" in tracks
        assert any(track.startswith("replica0/") for track in tracks)


class TestEventTaxonomy:
    def test_controller_and_serving_events_recorded(self):
        result = run_workload(_closed_spec(obs=ON))
        names = {event.name for event in result.trace.events}
        assert "scheduler.eval" in names
        assert "serving.admit" in names
        assert "serving.prefill_chunk" in names
        assert "serving.decode_iter" in names
        series = set(result.metrics.names())
        assert "controller.bandwidth_bytes" in series
        assert "controller.queue_depth" in series
        assert "serving.running_batch" in series

    def test_saturated_hbm4_recording_is_identical_on_both_cores(self):
        # The event core's decision loop records exactly what ``_step``
        # records at each instant that issues a command, so a saturated
        # hbm4 run, refresh on, writes the same bytes on the tick core.
        spec = _open_spec(system="hbm4", obs=ON, enable_refresh=True)
        event = run_workload(spec)
        tick = run_workload(spec, event_driven=False)
        assert to_chrome_trace(event.trace) == to_chrome_trace(tick.trace)
        assert to_jsonl(event.trace) == to_jsonl(tick.trace)
        assert event.metrics.as_dict() == tick.metrics.as_dict()
        names = {event.name for event in event.trace.events}
        assert {"scheduler.eval", "refresh.issue"} <= names
        assert not any(name.startswith("train.") for name in names)

    def test_hbm4_recording_under_live_faults_is_identical_on_both_cores(self):
        # Under live faults the event core runs the RAS layer inside its
        # decision loop: the RAS records (DUE replays, spared rows,
        # offlined banks) land at the same instants as on the tick core,
        # and the whole recording is the same bytes.
        faults = ReliabilityConfig(seed=9, hard_row_rate=0.1,
                                   transient_ber=1e-3, scrub_interval_ns=333,
                                   spare_rows_per_bank=1,
                                   offline_after_row_failures=2)
        spec = _open_spec(system="hbm4", obs=ON, enable_refresh=True,
                          reliability=faults)
        event = run_workload(spec)
        tick = run_workload(spec, event_driven=False)
        assert event == tick
        assert event.reliability == tick.reliability
        assert to_chrome_trace(event.trace) == to_chrome_trace(tick.trace)
        assert to_jsonl(event.trace) == to_jsonl(tick.trace)
        assert event.metrics.as_dict() == tick.metrics.as_dict()
        for name in ("ras.retry", "ras.spare", "ras.offline"):
            instants = [e.ts_ns for e in event.trace.events if e.name == name]
            assert instants, name
            assert instants == [e.ts_ns for e in tick.trace.events
                                if e.name == name]

    def test_rome_trace_has_scheduler_evals_and_no_trains(self):
        # The RoMe controller plans no trains: every decision it makes is
        # one traced scheduler evaluation of its event core.
        result = run_workload(_open_spec(obs=ON))
        names = {event.name for event in result.trace.events}
        assert "scheduler.eval" in names
        assert not any(name.startswith("train.") for name in names)

    def test_refresh_events_recorded_when_refresh_enabled(self):
        result = run_workload(_open_spec(obs=ON, enable_refresh=True))
        names = {event.name for event in result.trace.events}
        assert "refresh.issue" in names
        assert "refresh.debt" in set(result.metrics.names())

    def test_fleet_routing_events_recorded(self):
        # 12 requests matches the bench failover campaign -- enough load
        # that the router provably reroutes *and* hedges at least once.
        fleet = run_fleet(_campaign(_closed_spec(obs=ON, num_requests=12)))
        names = {event.name for event in fleet.trace.events}
        assert "fleet.route" in names
        assert "fleet.reroute" in names
        assert "fleet.hedge" in names
        assert {"health.degraded", "health.down",
                "health.recovered"} <= names
        series = set(fleet.metrics.names())
        assert "fleet.routed" in series
        assert "fleet.replica0.health" in series
        # Replica recordings ride along under their prefixes.
        assert any(name.startswith("replica0/") for name in series)
