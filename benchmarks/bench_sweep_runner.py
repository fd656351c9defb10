"""Sweep-runner benchmark.

Not a paper figure: this tracks the infrastructure that every sweep-style
experiment (Figures 12/13, Section V-A, Section IV-B) runs on -- the sweep
runner's single attempt loop in :mod:`repro.sim.sweep` (inline at one
worker, one child process per attempt above that).  It asserts the
load-bearing property (parallel == serial) while pytest-benchmark records
the timings.
"""

from repro.sim.runner import queue_depth_sweep_result

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
