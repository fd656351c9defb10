"""Sweep-runner and trace-cache benchmarks.

Not a paper figure: these track the infrastructure that every sweep-style
experiment (Figures 12/13, Section V-A, Section IV-B) runs on -- the sweep
runner's single attempt loop in :mod:`repro.sim.sweep` (inline at one
worker, one child process per attempt above that) and the trace-setup
memoization in :mod:`repro.trace_cache`.  They assert the load-bearing
properties (parallel == serial, warm == cold results, an inline warm
sweep hits the cache, cached setup faster than cold) while
pytest-benchmark records the timings.
"""

from repro.sim.bench import sweep_throughput, trace_cache_comparison
from repro.sim.runner import queue_depth_sweep_result
from repro.trace_cache import reset_trace_cache

DEPTHS = [1, 2, 4, 8]
TOTAL_BYTES = 64 * 4096


def test_sweep_parallel_matches_serial(benchmark, table_printer):
    serial = queue_depth_sweep_result(DEPTHS, system="rome",
                                      total_bytes=TOTAL_BYTES, workers=1)

    def parallel_sweep():
        return queue_depth_sweep_result(DEPTHS, system="rome",
                                        total_bytes=TOTAL_BYTES, workers=4)

    parallel = benchmark(parallel_sweep)
    table_printer(
        "Sweep runner: parallel vs serial (RoMe queue-depth sweep)",
        [
            {"mode": "serial", "workers": serial.stats.workers,
             "wall_ms": serial.stats.wall_s * 1e3,
             "points_per_s": serial.stats.points_per_s},
            {"mode": "parallel", "workers": parallel.stats.workers,
             "wall_ms": parallel.stats.wall_s * 1e3,
             "points_per_s": parallel.stats.points_per_s},
        ],
    )
    assert list(serial.values) == list(parallel.values)


def test_sweep_cold_vs_warm_cache(benchmark, table_printer):
    reset_trace_cache()

    def cold_and_warm():
        reset_trace_cache()
        return sweep_throughput(workers=1, depths=DEPTHS,
                                total_bytes=TOTAL_BYTES)

    rows = benchmark(cold_and_warm)
    table_printer("Sweep runner: cold vs warm trace cache", rows)
    warm = next(row for row in rows if row["phase"] == "warm")
    assert warm["cache_hits"] > 0
    assert warm["cache_misses"] == 0


def test_trace_cache_speedup(benchmark, table_printer):
    row = benchmark(trace_cache_comparison, 512 * 1024)
    table_printer("Trace cache: cold vs cached setup of one sweep point",
                  [row])
    assert row["warm_hits"] > 0
    assert row["warm_misses"] == 0
    assert row["warm_ms"] < row["cold_ms"]
