"""Tests for the workload driver (:mod:`repro.workloads.driver`).

Covers the WorkloadResult contract (latency percentiles, bandwidth,
saturation flag), the sweep integration (arrival-driven points shard like
drain points, serial-identical at any worker count), and the
seed-reproducibility satellite: the same ``ScenarioSpec`` + seed compiles
a bit-identical ``ArrivalSchedule`` and simulates a bit-identical
``WorkloadResult`` in any process -- pool workers included, under fork
*and* spawn start methods.
"""

import multiprocessing
import pickle

import pytest

from repro.core.interface import DEFAULT_ROWS_PER_VBA
from repro.workloads.arrivals import ArrivalSchedule, Transfer, compile_schedule
from repro.workloads.driver import (
    WorkloadResult,
    _RomeMaterializer,
    rate_sweep,
    run_workload,
    run_workload_point,
    workload_sweep,
)
from repro.workloads.scenarios import ScenarioSpec, build_schedule
from repro.workloads.serving import ServingConfig

#: A deliberately tiny serving shape so lockstep comparisons and spawn
#: round-trips stay fast on the 1-CPU CI container.
TINY_SERVING = ServingConfig(
    model_name="grok-1",
    batch_capacity=2,
    prompt_tokens=128,
    output_tokens=2,
    iteration_interval_ns=512,
    traffic_scale=2.0 ** -26,
)


def _spec(**overrides):
    defaults = dict(scenario="decode-serving", system="rome",
                    rate_per_s=200_000.0, num_requests=4, seed=0,
                    serving=TINY_SERVING)
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestRunWorkload:
    @pytest.mark.parametrize("system", ["rome", "hbm4"])
    def test_result_shape(self, system):
        result = run_workload(_spec(system=system))
        assert isinstance(result, WorkloadResult)
        assert result.system == system
        assert result.transfers == len(build_schedule(_spec(system=system)))
        assert result.latency.count == result.transfers
        assert result.latency.p50 <= result.latency.p99 <= result.latency.max
        assert result.bandwidth.bytes_transferred > 0
        assert result.end_ns >= result.horizon_ns
        assert result.evaluations > 0

    def test_per_tag_latency_partitions_the_samples(self):
        result = run_workload(_spec())
        assert set(result.latency_by_tag) == {"prefill", "decode"}
        assert sum(r.count for r in result.latency_by_tag.values()) \
            == result.latency.count

    def test_all_bytes_arrive_at_the_controller(self):
        spec = _spec()
        schedule = build_schedule(spec)
        result = run_workload(spec)
        assert result.bandwidth.bytes_transferred >= schedule.total_bytes

    def test_drain_point_is_flagged_saturated(self):
        result = run_workload(_spec(scenario="streaming-drain"))
        assert result.overloaded  # everything due at t=0: pure drain

    def test_light_open_loop_load_is_not_saturated(self):
        result = run_workload(_spec(rate_per_s=200.0, num_requests=3))
        assert not result.overloaded
        assert result.utilization < 0.1

    def test_explicit_schedule_bypasses_the_registry(self):
        schedule = compile_schedule(
            [0, 1000], [Transfer(read_bytes=8 * 1024, tag="raw")] * 2)
        result = run_workload(_spec(), schedule=schedule)
        assert result.transfers == 2
        assert set(result.latency_by_tag) == {"raw"}

    def test_result_is_picklable(self):
        result = run_workload(_spec())
        assert pickle.loads(pickle.dumps(result)) == result

    def test_refresh_enabled_run_completes(self):
        result = run_workload(_spec(enable_refresh=True))
        assert result.latency.count > 0


class TestWorkloadSweep:
    def test_points_shard_like_drain_points(self):
        specs = [_spec(seed=seed) for seed in (0, 1, 2, 3)]
        serial = workload_sweep(specs, workers=1)
        parallel = workload_sweep(specs, workers=2)
        assert list(serial.values) == list(parallel.values)
        assert serial.stats.parallel is False
        assert serial.stats.evaluations > 0

    def test_rate_sweep_orders_rate_major_system_minor(self):
        results = rate_sweep(_spec(), [100_000.0, 400_000.0],
                             systems=("rome", "hbm4"), workers=1)
        assert [(r.system) for r in results] == ["rome", "hbm4"] * 2
        assert all(r.scenario == "decode-serving" for r in results)

    def test_rate_sweep_parallel_matches_serial(self):
        serial = rate_sweep(_spec(), [100_000.0, 400_000.0],
                            systems=("rome",), workers=1)
        parallel = rate_sweep(_spec(), [100_000.0, 400_000.0],
                              systems=("rome",), workers=2)
        assert serial == parallel


class TestRomeRowCursor:
    def test_transfer_past_the_last_row_wraps_to_row_zero(self):
        materializer = _RomeMaterializer(_spec())
        row_bytes = (materializer.vba.effective_row_bytes
                     * materializer.vba.vbas_per_channel_per_sid)
        materializer._row_cursor = DEFAULT_ROWS_PER_VBA - 2
        fits = materializer.enqueue(Transfer(read_bytes=2 * row_bytes), 0)
        assert {r.row for r in fits} == {DEFAULT_ROWS_PER_VBA - 2,
                                         DEFAULT_ROWS_PER_VBA - 1}
        # No row is left: the reads start over at row 0, the writes follow.
        wrapped = materializer.enqueue(
            Transfer(read_bytes=2 * row_bytes, write_bytes=row_bytes + 1), 0)
        assert sorted({r.row for r in wrapped}) == [0, 1, 2, 3]
        assert materializer._row_cursor == 4


def _compile_in_child(spec: ScenarioSpec) -> ArrivalSchedule:
    return build_schedule(spec)


class TestSeedReproducibility:
    """Same spec + seed => bit-identical schedule and result, anywhere."""

    def test_schedule_and_result_repeat_in_process(self):
        spec = _spec(seed=11)
        assert build_schedule(spec) == build_schedule(spec)
        assert run_workload(spec) == run_workload(spec)

    def test_result_identical_across_worker_counts(self):
        specs = [_spec(seed=11), _spec(seed=11, system="hbm4")]
        serial = workload_sweep(specs, workers=1)
        parallel = workload_sweep(specs, workers=2)
        assert list(serial.values) == list(parallel.values)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_schedule_identical_across_start_methods(self, method):
        # Spawn guard, like the trace cache's: a start method the platform
        # does not offer skips rather than fails.
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        spec = _spec(seed=11)
        context = multiprocessing.get_context(method)
        with context.Pool(processes=1) as pool:
            child = pool.apply(_compile_in_child, (spec,))
        assert child == build_schedule(spec)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_result_identical_across_start_methods(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        spec = _spec(seed=11)
        context = multiprocessing.get_context(method)
        with context.Pool(processes=1) as pool:
            child = pool.apply(run_workload_point, (spec,))
        assert child == run_workload(spec)
