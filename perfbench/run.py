#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-hbm4 --seed 1 \
        --seconds 25 --trace 0

Each invocation is one fresh process running one workload
(``perfbench/cases.py``) with ``workers=1``:

* ``--trace 0`` measures the end-to-end metrics of BENCHMARK.json.  It
  times set-up in separate child processes (interpreter start, imports,
  spec building; median of several), then repeats the timed public call
  for about ``--seconds`` seconds, with a cold trace cache each time,
  cycling through the workload's ``seeds_per_run`` seeds (the first one
  at least twice).  Host time is calibrated against a reference loop
  sampled throughout the call (``perfbench/speed.py``) and reported per
  simulated MiB moved: the units of every part of a call (a rate-search
  probe, or the whole call), each the median over its seed's repeats,
  summed over parts and seeds, over the MiB those seeds moved.  The
  work a seed generates varies, the cost per unit of work varies less.
* ``--trace 1`` measures the per-layer metrics: one untraced run, then
  traced runs with ``ObsConfig(trace=True)`` on the spec and host-time
  probes on every layer boundary (``perfbench/perlayer.py``).  The host
  spans are written as Chrome trace-event JSON to
  ``.bench_out/<workload>-seed<seed>.trace.json`` and read back through
  ``repro.obs.report`` (the ``rome-repro trace-report`` code).

Every run checks the simulated outputs (see ``cases.py``); they must be
identical across the repeats of a run, and a traced run must reproduce
the untraced one.  Human-readable lines come first; the last line of
standard output is the JSON result.  The exit code is 0 only when every
check passed, and 2 when the simulator cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: Traced calls per run, at least: the determinism check needs two.
MIN_REPEATS = 2
#: Distance between the seeds one timed run covers (``seeds_per_run``
#: of a workload): the first is ``--seed`` itself.
SEED_STRIDE = 1_000_003
#: Child processes whose set-up time is measured (after one warm-up that
#: fills the bytecode and file caches).
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120


def measure_setup(workload: str, seed: int) -> List[float]:
    """Set-up seconds, one sample per child process: interpreter start
    to ``main`` as measured, plus imports and spec building as
    calibrated reference loops (see ``speed.py``) at REFERENCE_LOOP_S
    each, so the host's speed phases do not move the figure."""
    from speed import REFERENCE_LOOP_S

    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    samples = []
    for attempt in range(SETUP_REPEATS + 1):
        started = time.perf_counter()
        child = subprocess.run(command, check=True, cwd=ROOT,
                               timeout=SETUP_TIMEOUT_S, capture_output=True,
                               text=True)
        entered, units = map(float, child.stdout.split()[-2:])
        if attempt:
            samples.append(entered - started + units * REFERENCE_LOOP_S)
    return samples


def report_setup(workload: str, seed: int) -> int:
    """The ``--setup-only`` child: import, build, print the stamps."""
    from speed import SpeedSampler

    with SpeedSampler() as sampler:
        entered = time.perf_counter()
        import cases

        cases.WORKLOADS[workload].build(seed)
        ready = time.perf_counter()
    print(repr(entered), repr(sampler.units(entered, ready)))
    return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _keep_going(calls: int, minimum: int, last_wall_s: float,
                deadline: float) -> bool:
    """Start another timed call unless it would end past the deadline."""
    return calls < minimum or time.perf_counter() + last_wall_s <= deadline


class Tally:
    """Episodes attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: List[str] = []

    def add(self, outcome: Any) -> None:
        self.attempted += outcome.episodes
        self.reasons.extend(outcome.failed)

    def crash(self) -> None:
        traceback.print_exc()
        self.attempted += 1
        self.reasons.append("raised (traceback on stderr)")

    def fail_all(self, outcome: Any, reason: str) -> None:
        self.reasons.extend([reason] * outcome.episodes)

    @property
    def failed(self) -> int:
        return min(len(self.reasons), self.attempted)


def timed_run(workload: Any, seed: int, seconds: int, tally: Tally,
              lines: List[str]) -> Dict[str, float]:
    from repro.trace_cache import reset_trace_cache

    from speed import SpeedSampler

    setups = measure_setup(workload.name, seed)
    specs = [workload.build(seed + index * SEED_STRIDE)
             for index in range(workload.seeds_per_run)]
    # Calls cycle through the seeds until the deadline; the first seed is
    # called twice at least, so its outputs are checked for determinism.
    repeats: List[List[Any]] = [[] for _ in specs]
    calls = 0
    deadline = time.perf_counter() + seconds
    with SpeedSampler() as sampler:
        while True:
            index = calls % len(specs)
            outcomes = repeats[index]
            reset_trace_cache()
            try:
                outcome = workload.run(specs[index])
            except Exception:  # reported as a failed episode, not a crash
                tally.crash()
                break
            calls += 1
            tally.add(outcome)
            if outcomes and outcome.sim != outcomes[0].sim:
                tally.fail_all(outcome, "simulated outputs differ between "
                                        "repeats of one seed")
            outcomes.append(outcome)
            if not _keep_going(calls, len(specs) + 1, outcome.wall_s,
                               deadline):
                break
    if not all(repeats):
        return {}
    # The cost of every call: each part (a rate-search probe, or the whole
    # call) repeats exactly for its seed, so its median over the repeats
    # drops the host's noise, and the sum keeps every part's share.
    units = mib = 0.0
    for outcomes in repeats:
        parts = zip(*([sampler.units(*part) for part in outcome.parts]
                      for outcome in outcomes))
        units += sum(map(statistics.median, parts))
        mib += outcomes[0].sim["sim_mib_moved"]
    walls = [outcome.wall_s - sampler.sampled_s(*outcome.span)
             for outcome in repeats[0]]
    lines.append(f"  wall_s             {statistics.median(walls):.4f} s "
                 f"(median of {len(walls)} timed calls on seed {seed}, "
                 f"uncalibrated)")
    lines.append(f"  seeds timed        {len(specs)}, {calls} calls")
    lines.append(f"  speed samples      {len(sampler.samples)}")
    for name, value in repeats[0][0].sim.items():
        if name.startswith("sim_"):
            lines.append(f"  {name:<18} {value:.6g}")
    return {
        "wall_cal_per_mib": units / mib,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_run(workload: Any, seed: int, seconds: int, tally: Tally,
               lines: List[str]) -> Dict[str, float]:
    from repro.obs.report import load_events, span_self_times
    from repro.trace_cache import reset_trace_cache, trace_cache_stats

    from hostspans import HostTracer
    from perlayer import install_probes, layer_metrics, work_counts

    spec = workload.build(seed)
    reset_trace_cache()
    try:
        untraced = workload.run(spec)
    except Exception:  # reported as a failed episode, not a crash
        tally.crash()
        return {}
    tally.add(untraced)
    traced_spec = workload.traced(spec)
    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        with HostTracer() as tracer:
            install_probes(tracer)
            reset_trace_cache()
            try:
                with tracer.region(f"bench.{workload.name}"):
                    outcome = workload.run(traced_spec)
            except Exception:  # reported as a failed episode, not a crash
                tally.crash()
                return {}
            cache = trace_cache_stats()
        tally.add(outcome)
        if outcome.sim != untraced.sim:
            tally.fail_all(outcome, "traced run changed simulated outputs")
        counts = work_counts(tracer, outcome, cache)
        if runs and counts != runs[0][3]:
            tally.fail_all(outcome, "work counts differ between traced runs")
        runs.append((tracer, outcome, cache, counts))
        if not _keep_going(len(runs), MIN_REPEATS, outcome.wall_s, deadline):
            break

    tracer, outcome, cache, _ = runs[-1]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{seed}.trace.json"
    written = tracer.write(str(path))
    events = load_events(str(path))
    if len(events) != written:
        tally.fail_all(outcome, f"trace-report loaded {len(events)} of "
                                f"{written} spans")
    rows = span_self_times(events)
    lines.append(f"  host trace         {path.relative_to(ROOT)} "
                 f"({written} spans, {len(runs)} traced runs)")
    lines.append("  top self time (repro.obs.report.span_self_times):")
    for row in rows[:10]:
        lines.append(f"    {row['name']:<40} {row['count']:>8} calls "
                     f"{row['self_ns'] / 1e6:>10.2f} ms self")
    return layer_metrics(tracer, outcome, cache, rows, untraced.wall_s)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        return report_setup(args.workload, args.seed)
    try:
        import cases
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workload = cases.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(cases.WORKLOADS)}", file=sys.stderr)
        return 2

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {entry["name"]: entry["why"] for entry in config["workloads"]}
    wanted = config["per_layer" if args.trace else "end_to_end"]
    tally = Tally()
    lines = [f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
             f"{why.get(workload.name, '')}"]
    run = traced_run if args.trace else timed_run
    values = run(workload, args.seed, args.seconds, tally, lines)

    metrics = {}
    for entry in wanted:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]],
                                      "unit": entry["unit"]}
            lines.append(f"  {entry['name']:<42} "
                         f"{values[entry['name']]:.6g} {entry['unit']}")
    lines.append(f"  error_rate         {tally.failed}/{tally.attempted} "
                 f"episodes")
    for reason in sorted(set(tally.reasons)):
        lines.append(f"  FAILED: {reason}")
    correct = (not tally.reasons and tally.attempted > 0
               and len(metrics) == len(wanted))
    print("\n".join(lines))
    print(json.dumps({"correct": correct,
                      "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
