"""Tests for the process-parallel sweep runner (:mod:`repro.sim.sweep`)."""

import pytest

from repro.sim.runner import (
    measure_rome_streaming,
    queue_depth_sweep,
    queue_depth_sweep_result,
    vba_design_space_sweep,
)
from repro.sim.sweep import (
    SweepResult,
    SweepStats,
    resolve_workers,
    run_sweep,
    run_system_until_idle_result,
)


def _square(x):
    return x * x


def _add(a, b):
    return a + b


def _kw_point(base=0, offset=0):
    return base - offset


class TestRunSweep:
    def test_scalar_tuple_and_mapping_points(self):
        assert list(run_sweep(_square, [1, 2, 3]).values) == [1, 4, 9]
        assert list(run_sweep(_add, [(1, 2), (3, 4)]).values) == [3, 7]
        assert list(run_sweep(_kw_point, [{"base": 5, "offset": 2}]).values) == [3]

    def test_results_in_input_order_parallel(self):
        points = list(range(8))
        sweep = run_sweep(_square, points, workers=4)
        assert list(sweep.values) == [p * p for p in points]

    def test_serial_never_reports_parallel(self):
        sweep = run_sweep(_square, [1, 2], workers=1)
        assert sweep.stats.parallel is False
        assert sweep.stats.workers == 1

    def test_workers_clamped_to_point_count(self):
        sweep = run_sweep(_square, [7], workers=16)
        assert sweep.stats.workers == 1
        assert sweep.stats.points == 1

    def test_unpicklable_fn_falls_back_to_serial(self):
        sweep = run_sweep(lambda x: x + 1, [1, 2, 3], workers=2)
        assert list(sweep.values) == [2, 3, 4]
        assert sweep.stats.parallel is False
        assert sweep.stats.workers == 1

    def test_swept_function_errors_propagate(self):
        with pytest.raises(ZeroDivisionError):
            run_sweep(lambda x: 1 // x, [1, 0], workers=1)

    def test_swept_function_typeerror_propagates_from_workers(self):
        # TypeError from the swept function is a real bug, not a pool
        # failure: it must not trigger the serial fallback.  Two points so
        # the worker clamp cannot collapse this into the serial path.
        with pytest.raises(TypeError):
            run_sweep(_square, [(1, 2), (3, 4)], workers=2)

    def test_swept_function_oserror_propagates_from_workers(self):
        with pytest.raises(FileNotFoundError):
            run_sweep(open, ["/nonexistent/a", "/nonexistent/b"], workers=2)

    def test_empty_sweep(self):
        sweep = run_sweep(_square, [])
        assert sweep.values == ()
        assert sweep.stats.points == 0

    def test_result_container_protocols(self):
        sweep = run_sweep(_square, [2, 3])
        assert len(sweep) == 2
        assert sweep[1] == 9
        assert list(iter(sweep)) == [4, 9]

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) >= 1


class TestParallelSerialEquivalence:
    def test_queue_depth_sweep_identical_across_worker_counts(self):
        depths = [1, 2, 4, 8]
        serial = queue_depth_sweep(depths, system="rome",
                                   total_bytes=64 * 1024, workers=1)
        parallel = queue_depth_sweep(depths, system="rome",
                                     total_bytes=64 * 1024, workers=4)
        assert serial == parallel
        assert list(serial) == depths  # input-order keys

    def test_hbm4_sweep_identical_across_worker_counts(self):
        depths = [8, 16]
        serial = queue_depth_sweep(depths, system="hbm4",
                                   total_bytes=32 * 1024, workers=1)
        parallel = queue_depth_sweep(depths, system="hbm4",
                                     total_bytes=32 * 1024, workers=2)
        assert serial == parallel

    def test_vba_design_space_sweep_identical_across_worker_counts(self):
        serial = vba_design_space_sweep(total_bytes=16 * 4096, workers=1)
        parallel = vba_design_space_sweep(total_bytes=16 * 4096, workers=2)
        assert serial == parallel
        assert len(serial) == 6

    def test_sweep_stats_reflect_parallel_run(self):
        sweep = queue_depth_sweep_result([1, 2, 4, 8], system="rome",
                                         total_bytes=64 * 1024, workers=4)
        assert sweep.stats.points == 4
        assert sweep.stats.workers == 4
        assert sweep.stats.parallel is True
        assert sweep.stats.wall_s > 0
        assert sweep.stats.points_per_s > 0
        assert sweep.stats.points_per_s_per_worker == pytest.approx(
            sweep.stats.points_per_s / 4
        )


class TestChannelSharding:
    def test_sharded_drain_matches_serial(self):
        serial = measure_rome_streaming(total_bytes=64 * 1024,
                                        num_channels=2, workers=1)
        sharded = measure_rome_streaming(total_bytes=64 * 1024,
                                         num_channels=2, workers=2)
        assert sharded.bandwidth.elapsed_ns == serial.bandwidth.elapsed_ns
        assert (sharded.bandwidth.bytes_transferred
                == serial.bandwidth.bytes_transferred)
        assert sharded.utilization == serial.utilization
        assert sharded.latency.average == serial.latency.average
        assert sharded.command_counts == serial.command_counts

    def test_single_channel_ignores_workers(self):
        serial = measure_rome_streaming(total_bytes=32 * 1024, workers=1)
        also_serial = measure_rome_streaming(total_bytes=32 * 1024, workers=4)
        assert serial.bandwidth.elapsed_ns == also_serial.bandwidth.elapsed_ns

    def test_run_system_until_idle_returns_end_time(self):
        from repro.controller.mc import ControllerConfig
        from repro.controller.request import RequestKind
        from repro.sim.memory_system import (
            ConventionalMemorySystem,
            MemorySystemConfig,
        )
        from repro.sim.traces import streaming_trace

        def build():
            system = ConventionalMemorySystem(MemorySystemConfig(
                num_channels=2,
                controller=ControllerConfig(enable_refresh=False),
            ))
            system.enqueue_many(streaming_trace(32 * 1024, request_bytes=4096,
                                                kind=RequestKind.READ))
            return system

        serial_system = build()
        serial_end = run_system_until_idle_result(serial_system,
                                                  workers=1).end_ns
        sharded_system = build()
        sharded_end = run_system_until_idle_result(sharded_system,
                                                   workers=2).end_ns
        assert sharded_end == serial_end
        assert (sharded_system.result().command_counts
                == serial_system.result().command_counts)


def test_sweep_aggregates_evaluations_from_simulation_results():
    from repro.sim.runner import streaming_point

    sweep = run_sweep(streaming_point, [("rome", 16 * 4096)], workers=1)
    assert sweep.stats.evaluations == sweep.values[0].evaluations
    assert sweep.stats.evaluations > 0
    # Points that return bare numbers simply contribute nothing.
    plain = run_sweep(lambda x: x * 2, [1, 2], workers=1)
    assert plain.stats.evaluations == 0


def test_dataclasses_are_frozen():
    stats = SweepStats(points=1, workers=1, parallel=False, wall_s=1.0)
    with pytest.raises(AttributeError):
        stats.points = 2
    result = SweepResult(values=(1,), stats=stats)
    with pytest.raises(AttributeError):
        result.values = ()
