#!/usr/bin/env python
"""Record a closed-loop decode-serving episode as a loadable trace.

Runs one seeded closed-loop serving episode with observability enabled
and writes the recording out: a Chrome trace-event JSON file (drop it
onto https://ui.perfetto.dev to scrub through scheduler evaluations,
refreshes, and serving iterations -- plus burst trains on the hbm4
controller -- on the simulated-time axis), plus a span self-time
profile and the windowed metric series on stdout.  The recording is
deterministic -- re-running with the same arguments reproduces the
output file byte for byte.

Usage::

    python examples/trace_decode_serving.py [--out serving_trace.json]

Pass an ``--out`` path ending in ``.jsonl`` for the line-oriented JSONL
form instead (one event per line, easy to grep).
"""

import argparse

from repro.obs import ObsConfig, span_self_times, write_trace
from repro.workloads import SLOSpec, ScenarioSpec, run_workload

#: Trace *and* metrics on; a short metric window so the tiny episode
#: still spreads across several windows.
OBS = ObsConfig(trace=True, metrics=True, metrics_interval_ns=512)


def record(system: str = "rome", requests: int = 8, seed: int = 3):
    """One observed closed-loop episode; returns its ``WorkloadResult``.

    The returned result carries ``.trace`` (a ``TraceRecorder``) and
    ``.metrics`` (a ``MetricRegistry``) alongside the ordinary serving
    outputs, which recording never perturbs.
    """
    spec = ScenarioSpec(scenario="decode-serving", system=system,
                        rate_per_s=400_000.0, num_requests=requests,
                        seed=seed, closed_loop=True, slo=SLOSpec(),
                        obs=OBS)
    return run_workload(spec)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--system", default="rome",
                        choices=("rome", "hbm4"))
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", default="serving_trace.json",
                        help="trace path (a .jsonl suffix writes JSONL "
                             "instead of Chrome trace-event JSON)")
    args = parser.parse_args()

    result = record(args.system, args.requests, args.seed)
    write_trace(args.out, result.trace)
    print(f"{len(result.trace.events)} events -> {args.out} "
          f"(Perfetto-loadable)")

    print("\n-- span self-time profile --")
    for row in span_self_times(result.trace.events, top=5):
        print(f"  {row['name']:<24} count={row['count']:<4d} "
              f"self={row['self_ns']:>9.0f} ns "
              f"({row['self_share']:.0%} of span time)")

    print("\n-- windowed metric series --")
    for name in result.metrics.names():
        series = result.metrics.get(name)
        print(f"  {name:<28} {series.kind:<7} {len(series)} windows")


if __name__ == "__main__":
    main()
