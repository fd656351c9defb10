"""Closed-loop serving: SLO accounting, admission control, goodput, and
the max-sustainable-rate search (:mod:`repro.workloads.serving` /
:mod:`repro.workloads.driver`).

The property blitz:

* goodput never exceeds the offered rate (shared denominator);
* aggregate goodput is non-increasing along a rising rate ladder past
  saturation;
* admission never exceeds the batch capacity or the KV budget, and the
  queue-depth bound is the only source of rejections;
* closed-loop == open-loop bit-for-bit when the loop never gates (the
  memory system always completes inside the accelerator cadence).

Plus the determinism contracts (worker counts, fork/spawn, lockstep) and
the resumable bisection journal.
"""

import json
import multiprocessing
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.latency import LatencyAccumulator
from repro.obs import ObsConfig
from repro.reliability import ReliabilityConfig
from repro.sim.checkpoint import CheckpointError
from repro.sim.stats import LatencyResult
from repro.workloads import driver
from repro.workloads.driver import (
    checkpoint_workload,
    find_max_sustainable_rate,
    run_workload,
    run_workload_point,
    workload_sweep,
)
from repro.workloads.scenarios import ScenarioSpec
from repro.workloads.serving import (
    ClosedLoopServer,
    RequestRecord,
    SLOSpec,
    ServingConfig,
)

#: Same tiny shape as test_driver's, so closed-loop runs stay a few ms.
TINY_SERVING = ServingConfig(
    model_name="grok-1",
    batch_capacity=2,
    prompt_tokens=128,
    output_tokens=2,
    iteration_interval_ns=512,
    traffic_scale=2.0 ** -26,
)

#: An SLO tight enough that the tiny shape saturates inside the test
#: rate ladder (the same shape the bench-smoke gate searches).
TIGHT_SLO = SLOSpec(ttft_ms=0.002, tpot_ms=0.001)

#: A cadence so slow relative to the scaled traffic that the memory
#: system always completes an iteration before the next open-loop slot:
#: the closed loop never gates, so both modes must agree bit-for-bit.
UNBLOCKED_SERVING = ServingConfig(
    model_name="grok-1",
    batch_capacity=4,
    prompt_tokens=64,
    output_tokens=3,
    iteration_interval_ns=50_000,
    traffic_scale=2.0 ** -26,
)


def _spec(**overrides):
    defaults = dict(scenario="decode-serving", system="rome",
                    rate_per_s=2_000_000.0, num_requests=8, seed=0,
                    serving=TINY_SERVING, closed_loop=True, slo=TIGHT_SLO)
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


# ------------------------------------------------------------------ SLOSpec


class TestSLOSpec:
    def test_targets_convert_to_nanoseconds(self):
        slo = SLOSpec(ttft_ms=2.0, tpot_ms=0.5)
        assert slo.ttft_ns == 2_000_000
        assert slo.tpot_ns == 500_000

    @pytest.mark.parametrize("kwargs", [
        dict(ttft_ms=0.0), dict(tpot_ms=0.0),
        dict(ttft_ms=-1.0), dict(tpot_ms=-0.5),
    ])
    def test_non_positive_targets_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SLOSpec(**kwargs)

    def test_picklable(self):
        slo = SLOSpec(ttft_ms=3.0, tpot_ms=0.25)
        assert pickle.loads(pickle.dumps(slo)) == slo


# ------------------------------------------------------------ RequestRecord


class TestRequestRecord:
    def test_single_output_token_has_zero_tpot(self):
        record = RequestRecord(index=0, arrival_ns=0, prompt_tokens=4,
                               output_tokens=1, first_token_ns=100,
                               finished_ns=100)
        assert record.tpot_ns == 0.0
        assert record.meets(SLOSpec())

    def test_unfinished_or_rejected_never_meets(self):
        unfinished = RequestRecord(index=0, arrival_ns=0, prompt_tokens=4,
                                   output_tokens=2, first_token_ns=100)
        rejected = RequestRecord(index=1, arrival_ns=0, prompt_tokens=4,
                                 output_tokens=2, first_token_ns=100,
                                 finished_ns=200, rejected=True)
        assert not unfinished.meets(SLOSpec())
        assert not rejected.meets(SLOSpec())

    def test_ttft_measured_from_arrival_not_admission(self):
        # batch_capacity=1: the second arrival waits a full episode in the
        # queue, so its TTFT must include that queueing delay.
        config = ServingConfig(model_name="grok-1", batch_capacity=1,
                               prompt_tokens=8, output_tokens=2,
                               iteration_interval_ns=100,
                               traffic_scale=2.0 ** -26)
        server = ClosedLoopServer(config, [0, 0])
        _drive(server)
        first, second = server.records
        assert second.admitted_ns > second.arrival_ns
        assert second.ttft_ns == second.first_token_ns - second.arrival_ns
        assert second.ttft_ns > first.ttft_ns


def _drive(server, completion_delay_ns=50):
    """Drive a server loop with a fixed synthetic memory latency."""
    for _ in range(10_000):
        launch = server.next_launch_ns()
        if launch is None:
            return
        fired = server.begin_iteration(launch)
        completion = launch + completion_delay_ns if fired else launch
        server.finish_iteration(launch, completion)
    raise AssertionError("server loop did not terminate")


# -------------------------------------------------------- admission control


class TestAdmissionControl:
    @given(
        batch_capacity=st.integers(min_value=1, max_value=3),
        max_queue_depth=st.none() | st.integers(min_value=0, max_value=4),
        budget_slots=st.none() | st.integers(min_value=1, max_value=4),
        arrivals=st.lists(st.integers(min_value=0, max_value=5_000),
                          min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_are_never_exceeded(self, batch_capacity, max_queue_depth,
                                       budget_slots, arrivals):
        config = ServingConfig(model_name="grok-1",
                               batch_capacity=batch_capacity,
                               prompt_tokens=8, output_tokens=2,
                               iteration_interval_ns=100,
                               traffic_scale=2.0 ** -26,
                               max_queue_depth=max_queue_depth)
        per_sequence = (ClosedLoopServer(config, [])
                        .model.model.kv_bytes_per_token()
                        * (config.prompt_tokens + config.output_tokens))
        if budget_slots is not None:
            config = ServingConfig(model_name="grok-1",
                                   batch_capacity=batch_capacity,
                                   prompt_tokens=8, output_tokens=2,
                                   iteration_interval_ns=100,
                                   traffic_scale=2.0 ** -26,
                                   max_queue_depth=max_queue_depth,
                                   kv_budget_bytes=budget_slots * per_sequence)
        server = ClosedLoopServer(config, arrivals)
        _drive(server)
        assert server.peak_batch <= batch_capacity
        if config.kv_budget_bytes is not None:
            assert server.peak_kv_bytes <= config.kv_budget_bytes
        if max_queue_depth is None:
            assert server.rejected == 0
        # Every request reaches a terminal state: served or rejected.
        for record in server.records:
            assert record.rejected or record.finished_ns is not None
        assert server.rejected == sum(1 for r in server.records if r.rejected)

    def test_admission_is_fifo_within_arrival_order(self):
        config = ServingConfig(model_name="grok-1", batch_capacity=1,
                               prompt_tokens=8, output_tokens=2,
                               iteration_interval_ns=100,
                               traffic_scale=2.0 ** -26)
        server = ClosedLoopServer(config, [0, 10, 20])
        _drive(server)
        admitted = [r.admitted_ns for r in server.records]
        assert admitted == sorted(admitted)

    def test_budget_too_small_for_one_sequence_raises(self):
        config = ServingConfig(model_name="grok-1", batch_capacity=2,
                               prompt_tokens=8, output_tokens=2,
                               iteration_interval_ns=100,
                               traffic_scale=2.0 ** -26,
                               kv_budget_bytes=1)
        server = ClosedLoopServer(config, [0])
        with pytest.raises(RuntimeError, match="kv_budget_bytes"):
            _drive(server)

    def test_arrival_at_horizon_end_is_served(self):
        # The last arrival *is* the horizon; it must still be admitted and
        # finish, not fall off the end of the episode.
        config = ServingConfig(model_name="grok-1", batch_capacity=2,
                               prompt_tokens=8, output_tokens=2,
                               iteration_interval_ns=100,
                               traffic_scale=2.0 ** -26)
        server = ClosedLoopServer(config, [0, 4_000])
        _drive(server)
        last = server.records[-1]
        assert last.arrival_ns == 4_000
        assert last.finished_ns is not None

    def test_zero_output_tokens_pins_value_error(self):
        with pytest.raises(ValueError):
            ServingConfig(model_name="grok-1", output_tokens=0)


class TestFinishingQuery:
    @given(
        batch_capacity=st.integers(min_value=1, max_value=3),
        output_tokens=st.integers(min_value=1, max_value=4),
        prefill_chunk_tokens=st.none() | st.integers(min_value=3,
                                                     max_value=8),
        max_queue_depth=st.none() | st.integers(min_value=0, max_value=3),
        arrivals=st.lists(st.integers(min_value=0, max_value=2_000),
                          min_size=1, max_size=10),
        completion_delay_ns=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_finishing_predicts_the_end_of_the_episode(
            self, batch_capacity, output_tokens, prefill_chunk_tokens,
            max_queue_depth, arrivals, completion_delay_ns):
        """Asked before ``finish_iteration``, ``finishing()`` equals
        ``next_launch_ns() is None`` after it -- the driver skips the
        cadence slice on exactly that iteration."""
        config = ServingConfig(model_name="grok-1",
                               batch_capacity=batch_capacity,
                               prompt_tokens=8, output_tokens=output_tokens,
                               prefill_chunk_tokens=prefill_chunk_tokens,
                               iteration_interval_ns=100,
                               traffic_scale=2.0 ** -26,
                               max_queue_depth=max_queue_depth)
        server = ClosedLoopServer(config, arrivals)
        launches = 0
        while (launch := server.next_launch_ns()) is not None:
            fired = server.begin_iteration(launch)
            finishing = server.finishing()
            server.finish_iteration(
                launch, launch + completion_delay_ns if fired else launch)
            assert finishing == (server.next_launch_ns() is None)
            launches += 1
            assert launches < 10_000
        assert server.done


# ------------------------------------------------------- goodput properties


class TestGoodputProperties:
    @given(seed=st.integers(min_value=0, max_value=40),
           rate=st.sampled_from([200_000.0, 1_000_000.0, 5_000_000.0]))
    @settings(max_examples=25, deadline=None)
    def test_goodput_never_exceeds_offered(self, seed, rate):
        result = run_workload(_spec(seed=seed, rate_per_s=rate))
        assert result.goodput_per_s <= result.offered_rate_per_s
        assert 0.0 <= result.goodput_fraction <= 1.0
        assert result.slo_met <= result.requests

    def test_aggregate_goodput_non_increasing_past_saturation(self):
        # Pointwise per-seed monotonicity does not hold (an 8-request
        # episode is noisy), but the seed-aggregated SLO-met count must
        # fall as the offered rate climbs past saturation.
        ladder = [2_000_000.0, 3_000_000.0, 4_500_000.0, 7_000_000.0]
        totals = []
        for rate in ladder:
            totals.append(sum(
                run_workload(_spec(seed=seed, rate_per_s=rate)).slo_met
                for seed in range(5)))
        assert totals == sorted(totals, reverse=True)
        assert totals[0] > totals[-1]  # the ladder actually saturates

    def test_result_carries_the_slo_block(self):
        result = run_workload(_spec())
        assert result.slo == TIGHT_SLO
        assert result.requests == 8
        assert result.ttft is not None and result.ttft.count > 0
        assert result.tpot is not None and result.tpot.count > 0
        assert result.peak_batch <= TINY_SERVING.batch_capacity
        assert result.offered_rate_per_s > 0
        assert result.summary().count("goodput") == 1

    def test_single_request_at_time_zero(self):
        # Degenerate horizon (one arrival at t=0): the denominator clamps
        # to 1 ns and the fraction stays in range.
        result = run_workload(_spec(num_requests=1, rate_per_s=1e9, seed=0))
        assert result.requests == 1
        assert result.goodput_fraction in (0.0, 1.0)

    def test_closed_loop_result_is_picklable(self):
        result = run_workload(_spec())
        assert pickle.loads(pickle.dumps(result)) == result

    def test_open_loop_result_keeps_empty_slo_block(self):
        result = run_workload(_spec(closed_loop=False, slo=None))
        assert result.slo is None
        assert result.requests == 0 and result.ttft is None


# ----------------------------------------------------- open/closed identity


class TestClosedEqualsOpenWhenNeverBlocked:
    @pytest.mark.parametrize("system", ["rome", "hbm4"])
    def test_shared_observables_are_bit_identical(self, system):
        spec = _spec(system=system, serving=UNBLOCKED_SERVING,
                     rate_per_s=20_000.0, num_requests=6,
                     closed_loop=False, slo=None)
        open_result = run_workload(spec)
        closed_result = run_workload(_spec(
            system=system, serving=UNBLOCKED_SERVING, rate_per_s=20_000.0,
            num_requests=6))
        assert closed_result.latency == open_result.latency
        assert closed_result.latency_by_tag == open_result.latency_by_tag
        assert closed_result.bandwidth == open_result.bandwidth
        assert closed_result.end_ns == open_result.end_ns
        assert closed_result.transfers == open_result.transfers

    @given(seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=8, deadline=None)
    def test_identity_holds_across_seeds(self, seed):
        spec = _spec(serving=UNBLOCKED_SERVING, rate_per_s=20_000.0,
                     num_requests=5, seed=seed, closed_loop=False, slo=None)
        open_result = run_workload(spec)
        closed_result = run_workload(_spec(
            serving=UNBLOCKED_SERVING, rate_per_s=20_000.0, num_requests=5,
            seed=seed))
        assert closed_result.latency == open_result.latency
        assert closed_result.end_ns == open_result.end_ns


# ------------------------------------------------------------- determinism


class TestClosedLoopDeterminism:
    def test_event_and_lockstep_agree(self):
        event = run_workload(_spec(), event_driven=True)
        lockstep = run_workload(_spec(), event_driven=False)
        assert event == lockstep

    def test_identical_across_worker_counts(self):
        specs = [_spec(seed=3), _spec(seed=3, system="hbm4")]
        serial = workload_sweep(specs, workers=1)
        parallel = workload_sweep(specs, workers=2)
        assert list(serial.values) == list(parallel.values)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_identical_across_start_methods(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        spec = _spec(seed=3)
        context = multiprocessing.get_context(method)
        with context.Pool(processes=1) as pool:
            child = pool.apply(run_workload_point, (spec,))
        assert child == run_workload(spec)

    def test_checkpoint_cut_is_rejected(self):
        with pytest.raises(CheckpointError, match="closed-loop"):
            checkpoint_workload(_spec(), at_ns=1_000)

    def test_schedule_override_is_rejected(self):
        from repro.workloads.arrivals import Transfer, compile_schedule
        schedule = compile_schedule([0], [Transfer(read_bytes=1024)])
        with pytest.raises(ValueError, match="closed-loop"):
            run_workload(_spec(), schedule=schedule)

    def test_scenario_without_serving_plan_is_rejected(self):
        with pytest.raises(KeyError, match="serving plan"):
            run_workload(_spec(scenario="streaming-drain"))


# ------------------------------------------------- the last iteration


class TestLastIterationDrain:
    """The server's last iteration is drained by one
    ``controller.run_until`` call, which stops right after the instant
    that completes it; earlier iterations wait the same way after their
    cadence advance."""

    def test_a_rate_probe_advances_the_engine_23_times(self, monkeypatch):
        """One ``sustainable_rate_spec("hbm4")`` probe: one ``run_for``
        per launch and cadence instant, none of them a 1 ns step (the
        last iteration used to take 142 advances, 141 of them shorter
        than 8 ns, one per instant that issued a command)."""
        from repro.sim.bench import sustainable_rate_spec
        from repro.sim.engine import Simulation

        advances = []
        run_for = Simulation.run_for

        def record(simulation, duration_ns):
            advances.append(duration_ns)
            return run_for(simulation, duration_ns)

        monkeypatch.setattr(Simulation, "run_for", record)
        result = run_workload(sustainable_rate_spec("hbm4"))
        assert len(advances) == 23
        assert min(advances) >= 8
        assert result.end_ns == 36_940

    @pytest.mark.parametrize("system", ["hbm4", "rome"])
    def test_event_and_lockstep_agree_with_live_faults_and_obs(self,
                                                               system):
        """With live faults and obs on, the event core's drain of the
        last iteration ends where the lockstep core's ticks end: the same
        ``end_ns``, server records and result (trace, metrics and RAS
        counters included)."""
        spec = _spec(system=system,
                     obs=ObsConfig(trace=True, metrics=True),
                     reliability=ReliabilityConfig(
                         seed=11, transient_ber=2e-4, retention_ber=4e-5,
                         hard_row_rate=0.5, scrub_interval_ns=1_000,
                         retry_backoff_ns=7))
        runs = [driver._run_closed_loop(spec, event_driven=event_driven)
                for event_driven in (True, False)]
        (event, event_server), (lockstep, lockstep_server) = runs
        assert event.end_ns == lockstep.end_ns
        assert event_server.records == lockstep_server.records
        assert event == lockstep
        assert event.reliability.retries_scheduled > 0
        assert event.trace.events and event.metrics.names()


def test_an_overrunning_iteration_waits_in_one_call(monkeypatch):
    """On a 64 ns cadence every hbm4 iteration overruns, and each waits
    for its requests in one ``controller.run_until`` call: at most three
    decision-loop evaluations per iteration (stepping to
    ``next_event_ns`` one instant at a time took 2,559 for the run's 10
    iterations), with the lockstep run's result."""
    iterations = []
    begin = ClosedLoopServer.begin_iteration

    def record(server, now):
        iterations.append(now)
        return begin(server, now)

    spec = _spec(system="hbm4",
                 serving=replace(TINY_SERVING, iteration_interval_ns=64))
    monkeypatch.setattr(ClosedLoopServer, "begin_iteration", record)
    event = run_workload(spec)
    assert len(iterations) == 10
    assert event.evaluations <= 3 * len(iterations)
    assert event.end_ns == 4_625
    assert event == run_workload(spec, event_driven=False)


# --------------------------------------------------------------- bisection


class TestFindMaxSustainableRate:
    BRACKET = (50_000.0, 5_000_000.0)

    def _search(self, journal=None, probes=8, system="rome"):
        return find_max_sustainable_rate(
            _spec(system=system), *self.BRACKET, probes=probes,
            journal=journal)

    def test_search_is_deterministic(self):
        first = self._search()
        second = self._search()
        assert first == second
        assert first.probes[0].rate_per_s == self.BRACKET[0]
        assert first.probes[1].rate_per_s == self.BRACKET[1]
        assert len(first.probes) == 8  # the bracket brackets: full budget
        assert self.BRACKET[0] < first.max_rate_per_s < self.BRACKET[1]

    def test_found_rate_was_probed_sustainable(self):
        search = self._search()
        sustainable = [p.rate_per_s for p in search.probes if p.sustainable]
        assert search.max_rate_per_s == max(sustainable)
        for probe in search.probes:
            assert probe.sustainable \
                == (probe.goodput_fraction >= search.threshold)

    def test_unsustainable_floor_short_circuits(self):
        impossible = _spec(slo=SLOSpec(ttft_ms=1e-6, tpot_ms=1e-6))
        search = find_max_sustainable_rate(impossible, *self.BRACKET)
        assert search.max_rate_per_s == 0.0
        assert len(search.probes) == 1

    def test_journal_resumes_mid_search(self, tmp_path):
        journal = tmp_path / "probes.jsonl"
        full = self._search(journal=str(journal))
        assert full.executed_probes == len(full.probes)
        lines = journal.read_text().splitlines()
        assert len(lines) == len(full.probes)
        # Kill mid-search: keep the first three probes, rerun.
        journal.write_text("\n".join(lines[:3]) + "\n")
        resumed = self._search(journal=str(journal))
        assert resumed == full
        assert resumed.executed_probes == len(full.probes) - 3
        # A complete journal replays without simulating at all.
        replayed = self._search(journal=str(journal))
        assert replayed == full
        assert replayed.executed_probes == 0

    def test_journal_with_torn_tail_is_tolerated(self, tmp_path):
        journal = tmp_path / "probes.jsonl"
        full = self._search(journal=str(journal))
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:2]) + "\n" + lines[2][:7])
        resumed = self._search(journal=str(journal))
        assert resumed == full
        assert resumed.executed_probes == len(full.probes) - 2

    def test_journal_replays_probe_evaluations(self, tmp_path):
        journal = tmp_path / "probes.jsonl"
        full = self._search(journal=str(journal))
        assert all(probe.evaluations > 0 for probe in full.probes)
        replayed = self._search(journal=str(journal))
        assert [p.evaluations for p in replayed.probes] \
            == [p.evaluations for p in full.probes]
        # A journal written before the field existed replays it as 0.
        entries = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        journal.write_text("".join(
            json.dumps({k: v for k, v in entry.items()
                        if k != "evaluations"}) + "\n"
            for entry in entries))
        old = self._search(journal=str(journal))
        assert old == full
        assert all(probe.evaluations == 0 for probe in old.probes)

    def test_journal_from_different_search_is_rejected(self, tmp_path):
        journal = tmp_path / "probes.jsonl"
        self._search(journal=str(journal))
        with pytest.raises(CheckpointError, match="diverges"):
            find_max_sustainable_rate(_spec(), 60_000.0, 5_000_000.0,
                                      journal=str(journal))

    @pytest.mark.parametrize("kwargs", [
        dict(low_per_s=0.0, high_per_s=1.0),
        dict(low_per_s=2.0, high_per_s=1.0),
        dict(low_per_s=1.0, high_per_s=2.0, threshold=0.0),
        dict(low_per_s=1.0, high_per_s=2.0, threshold=1.5),
        dict(low_per_s=1.0, high_per_s=2.0, probes=1),
    ])
    def test_invalid_arguments_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            find_max_sustainable_rate(_spec(), **kwargs)

    @pytest.mark.parametrize("system, probes, extra", [
        ("rome", 8, {}),
        ("hbm4", 3, {}),
        ("rome", 4, dict(obs=ObsConfig(trace=True, metrics=True))),
        ("rome", 4, dict(reliability=ReliabilityConfig(
            seed=11, transient_ber=2e-5, hard_row_rate=0.05,
            scrub_interval_ns=1_000))),
    ], ids=["rome", "hbm4", "rome-obs", "rome-faults"])
    def test_each_probe_is_the_cold_run_of_its_rate(self, monkeypatch,
                                                    system, probes, extra):
        """Each probe -- and the whole result behind it, trace, metrics
        and RAS counters included -- is ``run_workload`` at its rate."""
        captured = []
        original = driver.rate_sweep

        def capture(*args, **kwargs):
            results = original(*args, **kwargs)
            captured.append(results[0])
            return results

        monkeypatch.setattr(driver, "rate_sweep", capture)
        spec = _spec(system=system, **extra)
        search = find_max_sustainable_rate(spec, *self.BRACKET,
                                           probes=probes)
        assert len(search.probes) == len(captured) == probes
        for probe, result in zip(search.probes, captured):
            cold = run_workload(spec.with_rate(probe.rate_per_s))
            assert probe.goodput_per_s == cold.goodput_per_s
            assert probe.goodput_fraction == cold.goodput_fraction
            assert probe.evaluations == cold.evaluations
            assert result == cold
        if "obs" in extra:
            assert all(result.trace.events and result.metrics.names()
                       for result in captured)
        if "reliability" in extra:
            assert all(result.reliability.reads_checked > 0
                       for result in captured)

    @pytest.mark.slow
    def test_hbm4_search_is_deterministic(self):
        assert self._search(system="hbm4") == self._search(system="hbm4")


class TestPlannedScenariosJoinTheSearch:
    """Every scenario with a registered serving plan runs closed-loop
    and is searchable -- the PR 9 satellite widening the plan registry
    beyond decode-serving and prefill-interleaved."""

    @pytest.mark.parametrize("name", ["bursty-serving", "mixed-tenant"])
    def test_closed_loop_run_is_deterministic(self, name):
        spec = _spec(scenario=name)
        first = run_workload(spec)
        assert first == run_workload(spec)
        assert first.requests == spec.num_requests
        assert first.slo is not None

    @pytest.mark.parametrize("name", ["bursty-serving", "mixed-tenant"])
    def test_joins_find_max_sustainable_rate(self, name):
        search = find_max_sustainable_rate(
            _spec(scenario=name), 50_000.0, 5_000_000.0, probes=4)
        assert search == find_max_sustainable_rate(
            _spec(scenario=name), 50_000.0, 5_000_000.0, probes=4)
        assert search.probes
        assert search.max_rate_per_s >= 0.0


# ------------------------------------------------------- latency quantiles


class TestLatencyQuantileBounds:
    def test_percentiles_are_bounded_by_min_and_max(self):
        acc = LatencyAccumulator()
        for value in (5, 1, 9, 3, 7):
            acc.record(value)
        result = LatencyResult.from_accumulators([acc])
        assert result.percentile(0.0) == result.min == 1.0
        assert result.percentile(100.0) == result.max == 9.0
        assert result.min <= result.p50 <= result.p99 <= result.max

    def test_empty_and_single_sample_edges(self):
        empty = LatencyResult.from_accumulators([LatencyAccumulator()])
        assert empty.count == 0
        assert empty.percentile(50.0) == 0.0 and empty.average == 0.0
        single = LatencyAccumulator()
        single.record(42)
        result = LatencyResult.from_accumulators([single])
        for pct in (0.0, 50.0, 99.0, 100.0):
            assert result.percentile(pct) == 42.0

    def test_reservoir_keeps_exact_moments_past_its_bound(self):
        acc = LatencyAccumulator(reservoir_size=8)
        for value in range(1, 21):
            acc.record(value)
        result = LatencyResult.from_accumulators([acc])
        assert len(result.samples) == 8
        assert result.count == 20
        assert result.min == 1.0 and result.max == 20.0
        assert result.average == sum(range(1, 21)) / 20
        for pct in (0.0, 50.0, 100.0):
            assert result.min <= result.percentile(pct) <= result.max

    def test_reservoir_is_deterministic(self):
        first, second = LatencyAccumulator(reservoir_size=4), \
            LatencyAccumulator(reservoir_size=4)
        for value in range(100):
            first.record(value)
            second.record(value)
        assert first == second

    def test_accepts_float_samples(self):
        # TPOT is a float (inter-token average); the accumulator must not
        # truncate it.
        acc = LatencyAccumulator()
        acc.record(1.5)
        acc.record(2.5)
        assert acc.average == 2.0
        assert LatencyResult.from_accumulators([acc]).percentile(100.0) == 2.5
