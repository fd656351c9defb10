"""Serving-workload benchmark: arrival-driven scenarios on both controllers.

Not a paper figure -- the perf/behavior trajectory of the workload
subsystem.  Two things are gated:

* the saturating open-loop decode-serving scenario must deliver at least
  half of peak bandwidth on both controllers (the default of the
  ``min-workload-bandwidth-fraction`` gate in
  :data:`repro.sim.bench.GATES`, which
  ``rome-repro bench-smoke --min-workload-bandwidth-fraction`` enforces
  in CI), with the event core bit-identical to forced lockstep
  (asserted inside the comparison helper);
* a light open-loop load must *not* be flagged saturated, and its
  foreground latency must stay far below the saturated tail -- the
  qualitative serving behavior the paper's latency arguments rest on.
"""

from repro.sim.bench import (
    default_thresholds,
    workload_decode_serving_comparison,
)
from repro.workloads import ScenarioSpec, rate_sweep


def test_saturating_decode_serving_delivers_half_of_peak(table_printer):
    floor = default_thresholds()["--min-workload-bandwidth-fraction"]
    rows = workload_decode_serving_comparison(repeats=1)
    table_printer("Saturating decode-serving workload (event vs lockstep)",
                  rows)
    for row in rows:
        assert row["saturated"] is True
        assert row["bandwidth_fraction"] >= floor, (
            f"{row['system']} delivered only "
            f"{row['bandwidth_fraction']:.2f} of peak under saturation"
        )
        assert row["event_evaluations"] < row["tick_evaluations"]


def test_open_loop_rate_shapes_latency(table_printer, sweep_workers):
    spec = ScenarioSpec(scenario="decode-serving", num_requests=8, seed=0,
                        model_name="grok-1")
    results = rate_sweep(spec, [200.0, 2000.0], systems=("rome",),
                         workers=sweep_workers)
    rows = [
        {
            "rate_per_s": rate,
            "p50_ns": result.latency.p50,
            "p99_ns": result.latency.p99,
            "utilization": result.utilization,
            "saturated": result.overloaded,
        }
        for rate, result in zip([200.0, 2000.0], results)
    ]
    table_printer("Open-loop decode serving, RoMe channel", rows)
    assert not rows[0]["saturated"]
    # Latency percentiles are well-formed and non-degenerate.
    for row in rows:
        assert 0 < row["p50_ns"] <= row["p99_ns"]
