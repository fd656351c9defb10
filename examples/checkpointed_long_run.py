#!/usr/bin/env python
"""Checkpoint a long serving run mid-flight, "kill" it, and resume.

Long-horizon sweeps die for boring reasons -- preemption, OOM killers,
wall-clock limits -- and a cycle-level simulator that cannot resume loses
hours of simulated time.  This example runs a bursty prefill-interleaved
serving episode, snapshots the *entire* simulation mid-flight (controller,
in-flight requests, pending arrivals) to a single checkpoint file, throws
every live object away as a process kill would, restores from the file,
and proves the resumed result is bit-identical to a run that was never
interrupted.

Usage::

    python examples/checkpointed_long_run.py [--system rome] [--seed 0]
"""

import argparse
import os
import tempfile

from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.workloads import (
    ScenarioSpec,
    ServingConfig,
    checkpoint_workload,
    resume_workload,
    run_workload,
)

#: A small decode model keeps the example interactive (~a second); the
#: bit-identity guarantee is independent of scale.
DEMO_SERVING = ServingConfig(
    model_name="grok-1",
    batch_capacity=2,
    prompt_tokens=128,
    output_tokens=2,
    iteration_interval_ns=512,
    traffic_scale=2.0 ** -26,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--system", default="rome", choices=["rome", "hbm4"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests", type=int, default=4)
    args = parser.parse_args()

    spec = ScenarioSpec(scenario="prefill-interleaved", system=args.system,
                        rate_per_s=200_000.0, num_requests=args.requests,
                        seed=args.seed, serving=DEMO_SERVING,
                        enable_refresh=True)

    # The reference: one uninterrupted run.
    uninterrupted = run_workload(spec)
    print(f"uninterrupted run: {uninterrupted.summary()}")

    # Run the same workload halfway, then snapshot everything to disk.
    cut_ns = uninterrupted.horizon_ns // 2
    checkpoint = checkpoint_workload(spec, at_ns=cut_ns)
    with tempfile.TemporaryDirectory(prefix="rome-ckpt-") as directory:
        path = os.path.join(directory, "demo.ckpt")
        save_checkpoint(checkpoint, path)
        print(f"checkpointed at {cut_ns} ns "
              f"({os.path.getsize(path)} bytes on disk): {path}")

        # Simulate the kill: drop every live object.  Only the file
        # survives.
        del checkpoint

        resumed = resume_workload(load_checkpoint(path))
    print(f"resumed run:       {resumed.summary()}")

    assert resumed == uninterrupted, "resume diverged from the uninterrupted run"
    print("resumed result is bit-identical to the uninterrupted run")


if __name__ == "__main__":
    main()
