"""Simulation-core throughput: seed 1-ns ticking vs the event-driven core.

Not a paper figure -- a perf-trajectory benchmark.  Every experiment in the
evaluation drains requests through the cycle-level controllers, so
simulated-ns per wall-second is the number that bounds how large a study
this reproduction can run.  The event-driven core must be cycle-exact
(asserted inside the comparison helpers) and at least 20x faster than the
seed's per-nanosecond core on the 512 KiB streaming drain.

The burst-train fast path is gated here too: on the conventional
controller's 512 KiB saturated streaming drain (the paper's headline
scenario) the event core must perform at least 10x fewer scheduler
evaluations than one-per-nanosecond ticking, and be faster in wall-clock.
"""

from repro.sim.bench import (
    rome_refresh_comparison,
    streaming_conventional_comparison,
    streaming_conventional_refresh_comparison,
    throughput_comparison,
)


def test_event_core_speedup_over_seed(table_printer):
    rows = throughput_comparison(rome_bytes=512 * 1024, hbm4_bytes=96 * 1024)
    table_printer("Simulated-ns per wall-second by simulation core", rows)
    rome = next(row for row in rows if row["system"] == "rome")
    assert rome["speedup"] >= 20.0, (
        f"event core only {rome['speedup']:.1f}x over the seed tick core"
    )
    # The RoMe event core evaluates about once per issued command and the
    # hbm4 burst trains collapse whole command runs into one evaluation;
    # either way both stay below one evaluation per tick.
    assert rome["event_evaluations"] < rome["tick_evaluations"]
    hbm4 = next(row for row in rows if row["system"] == "hbm4")
    assert hbm4["speedup"] >= 0.5
    assert hbm4["event_evaluations"] < hbm4["tick_evaluations"]


def test_conventional_burst_trains_cut_evaluations_10x(table_printer):
    row = streaming_conventional_comparison(total_bytes=512 * 1024)
    table_printer("Conventional burst-train gate (512 KiB streaming)", [row])
    assert row["evaluation_reduction"] >= 10.0, (
        f"burst trains only cut scheduler evaluations by "
        f"{row['evaluation_reduction']:.1f}x"
    )
    # Wall-clock must improve too (kept permissive for shared CI boxes;
    # typical is ~2x).
    assert row["speedup"] >= 1.0


def test_refresh_enabled_burst_trains_stay_engaged(table_printer):
    """The tentpole acceptance scenario: per-bank refresh *on* (the paper's
    steady state) must no longer disengage the fast path -- >= 5x fewer
    scheduler evaluations than 1-ns ticking on the saturated conventional
    drain (typical ~8-9x), with the RoMe event core far above that."""
    conventional = streaming_conventional_refresh_comparison(
        total_bytes=512 * 1024)
    rome = rome_refresh_comparison(total_bytes=512 * 1024)
    table_printer("Refresh-enabled burst-train gates (512 KiB streaming)",
                  [conventional, rome])
    assert conventional["refreshes"] > 0
    assert conventional["evaluation_reduction"] >= 5.0, (
        f"refresh-enabled trains only cut scheduler evaluations by "
        f"{conventional['evaluation_reduction']:.1f}x"
    )
    assert conventional["speedup"] >= 1.0
    assert rome["evaluation_reduction"] >= 10.0
