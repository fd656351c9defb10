"""The benchmark workloads: inputs from a seed, one timed public call,
and the checks its outputs must pass.

Every workload runs in one process with ``workers=1``.  ``build`` is the
set-up a user pays before the first call (spec building; the public
calls build their serving plans or schedules themselves, so that work is
timed with them); ``run`` makes the timed call and returns an
:class:`Outcome` whose ``sim`` dict holds the simulated outputs --
values of the modelled design that must repeat exactly for a given
seed, whatever the simulator's speed.  A timed run covers
``seeds_per_run`` seeds, starting at the benchmark's seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.fleet import run_fleet
from repro.obs import ObsConfig
from repro.sim.bench import fleet_campaign_spec, sustainable_rate_spec
from repro.workloads import driver as workload_driver
from repro.workloads.scenarios import ScenarioSpec

MIB = float(1 << 20)

#: Sim-time recording for traced runs; large enough that nothing drops.
TRACED_OBS = ObsConfig(trace=True, max_events=2_000_000)


@dataclass
class Outcome:
    """What one timed call did.

    ``span`` is ``(perf_counter at start, at end)`` of the call and
    ``parts`` the same for each part of it that repeats exactly: every
    rate-search probe, or else the whole call.  ``episodes`` counts what
    ``error_rate`` is taken over (a probe, the drain, or a replica);
    ``failed`` lists a description per episode that raised or failed a
    check.
    """

    system: str
    span: Tuple[float, float]
    parts: List[Tuple[float, float]]
    episodes: int
    failed: List[str]
    sim: Dict[str, Any]
    evaluations: int
    traces: List[Any] = field(default_factory=list)
    router: Dict[str, int] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.span[1] - self.span[0]


def _closed_loop_problems(result: Any, label: str) -> List[str]:
    """Per-episode checks shared by rate-search probes and replicas."""
    problems = []
    if result.latency.count != result.transfers:
        problems.append(f"{label}: {result.transfers - result.latency.count}"
                        f" of {result.transfers} transfers never completed")
    if result.slo_met > result.requests:
        problems.append(f"{label}: slo_met {result.slo_met} > requests "
                        f"{result.requests}")
    if result.goodput_per_s > result.offered_rate_per_s:
        problems.append(f"{label}: goodput {result.goodput_per_s} > offered "
                        f"{result.offered_rate_per_s}")
    return problems


class _Patched:
    """Replace a module global for the duration of a ``with`` block."""

    def __init__(self, module: Any, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
        self.module, self.attr, self.make = module, attr, make

    def __enter__(self) -> None:
        self.original = getattr(self.module, self.attr)
        setattr(self.module, self.attr, self.make(self.original))

    def __exit__(self, *exc: object) -> None:
        setattr(self.module, self.attr, self.original)


class ServeHbm4:
    """Closed-loop max-sustainable-rate search on the conventional
    controller: bench-smoke's ``sustainable_rate_spec("hbm4")``, Poisson
    arrivals from the seed, bracket 50k-5M req/s, 8 probes of 8 requests."""

    name = "serve-hbm4"
    system = "hbm4"
    low_per_s = 50_000.0
    high_per_s = 5_000_000.0
    probes = 8
    #: Seeds one timed run covers: the probe mix, and with it the cost
    #: per MiB, differs by up to ~10 % from seed to seed.
    seeds_per_run = 3

    def build(self, seed: int) -> ScenarioSpec:
        return replace(sustainable_rate_spec("hbm4"), seed=seed)

    def traced(self, spec: ScenarioSpec) -> ScenarioSpec:
        return replace(spec, obs=TRACED_OBS)

    def run(self, spec: ScenarioSpec) -> Outcome:
        # ``find_max_sustainable_rate`` resolves ``rate_sweep`` through its
        # module global; capturing there yields every probe's
        # WorkloadResult and host time.
        steps: List[Any] = []
        parts: List[Tuple[float, float]] = []

        def capture(original: Callable) -> Callable:
            def probe(*args: Any, **kwargs: Any) -> Any:
                started = time.perf_counter()
                results = original(*args, **kwargs)
                parts.append((started, time.perf_counter()))
                steps.append(results[0])
                return results
            return probe

        started = time.perf_counter()
        with _Patched(workload_driver, "rate_sweep", capture):
            search = workload_driver.find_max_sustainable_rate(
                spec, self.low_per_s, self.high_per_s, probes=self.probes)
        ended = time.perf_counter()

        failed: List[str] = []
        if len(steps) != len(search.probes):
            failed.append(f"captured {len(steps)} probes, search reports "
                          f"{len(search.probes)}")
        for index, (result, probe) in enumerate(zip(steps, search.probes)):
            problems = _closed_loop_problems(result, f"probe {index}")
            if probe.sustainable != (result.goodput_fraction
                                     >= search.threshold):
                problems.append(f"probe {index}: sustainable="
                                f"{probe.sustainable} at goodput fraction "
                                f"{result.goodput_fraction}, threshold "
                                f"{search.threshold}")
            failed.extend(problems[:1])
        sustainable = [probe.rate_per_s for probe in search.probes
                       if probe.sustainable]
        best = max(sustainable, default=0.0)
        if search.max_rate_per_s != best:
            # A wrong answer invalidates every probe of the search.
            failed = [f"max_rate_per_s {search.max_rate_per_s} is not the "
                      f"highest sustainable probe ({best})"] * len(steps)
        goodput = max((probe.goodput_per_s for probe in search.probes
                       if probe.rate_per_s == best), default=0.0)
        sim = {
            "sim_max_rate_per_s": search.max_rate_per_s,
            "sim_goodput_per_s": goodput,
            "sim_mib_moved": sum(result.bandwidth.bytes_transferred
                                 for result in steps) / MIB,
            "probes": tuple(
                (probe.rate_per_s, probe.goodput_per_s, probe.sustainable,
                 result.end_ns, result.bandwidth.bytes_transferred)
                for probe, result in zip(search.probes, steps)),
        }
        return Outcome(
            system=self.system, span=(started, ended), parts=parts,
            episodes=len(steps), failed=failed, sim=sim,
            evaluations=sum(result.evaluations for result in steps),
            traces=[result.trace for result in steps
                    if result.trace is not None],
        )


class DrainHbm4:
    """Open-loop streaming drain on the conventional controller with
    refresh on: 16 x 64 KiB reads, all due at t=0 (the seed is unused)."""

    name = "drain-hbm4"
    system = "hbm4"
    transfers = 16
    transfer_bytes = 64 * 1024
    seeds_per_run = 1

    def build(self, seed: int) -> ScenarioSpec:
        return ScenarioSpec(scenario="streaming-drain", system="hbm4",
                            num_requests=self.transfers, seed=seed,
                            enable_refresh=True)

    def traced(self, spec: ScenarioSpec) -> ScenarioSpec:
        return replace(spec, obs=TRACED_OBS)

    def run(self, spec: ScenarioSpec) -> Outcome:
        started = time.perf_counter()
        result = workload_driver.run_workload(spec)
        ended = time.perf_counter()
        moved = result.bandwidth.bytes_transferred
        failed = []
        expected = self.transfers * self.transfer_bytes
        if result.transfers != self.transfers \
                or result.latency.count != self.transfers:
            failed.append(f"{result.latency.count} of {self.transfers} "
                          f"transfers completed")
        elif moved != expected:
            failed.append(f"moved {moved} bytes, expected {expected}")
        sim = {
            "sim_bandwidth_fraction": result.bandwidth.utilization,
            "sim_mib_moved": moved / MIB,
            "end_ns": result.end_ns,
            "latency_p99_ns": result.latency.p99,
        }
        return Outcome(
            system=self.system, span=(started, ended),
            parts=[(started, ended)], episodes=1,
            failed=failed, sim=sim,
            evaluations=result.evaluations,
            traces=[result.trace] if result.trace is not None else [],
        )


class FleetRome:
    """Three RoMe replicas under a seeded fault process: bench-smoke's
    ``fleet_campaign_spec()`` with 1,500 requests; the seed feeds the
    Poisson arrivals and the replica-fault process."""

    name = "fleet-rome"
    system = "rome"
    requests = 1_500
    seeds_per_run = 1

    def build(self, seed: int) -> Any:
        spec = fleet_campaign_spec()
        return replace(
            spec,
            base=replace(spec.base, num_requests=self.requests, seed=seed),
            faults=replace(spec.faults, seed=seed),
        )

    def traced(self, spec: Any) -> Any:
        return replace(spec, base=replace(spec.base, obs=TRACED_OBS))

    def run(self, spec: Any) -> Outcome:
        started = time.perf_counter()
        fleet = run_fleet(spec, workers=1)
        ended = time.perf_counter()
        replicas = [result for result in fleet.replica_results
                    if result is not None]
        failed = []
        for index, result in enumerate(fleet.replica_results):
            if result is not None:
                failed.extend(
                    _closed_loop_problems(result, f"replica {index}")[:1])
        accounted = fleet.served + fleet.shed + fleet.failed
        fleet_problem: Optional[str] = None
        if accounted != fleet.requests or fleet.requests != self.requests:
            fleet_problem = (f"served+shed+failed = {accounted}, requests = "
                             f"{fleet.requests} (expected {self.requests})")
        elif fleet.slo_met > fleet.requests:
            fleet_problem = f"fleet slo_met {fleet.slo_met} > requests"
        elif fleet.goodput_per_s > fleet.offered_rate_per_s:
            fleet_problem = "fleet goodput exceeds offered rate"
        if fleet_problem is not None:
            failed = [fleet_problem] * len(replicas)
        moved = fleet.bandwidth.bytes_transferred
        sim = {
            "sim_goodput_per_s": fleet.goodput_per_s,
            "sim_ttft_p50_ns": fleet.ttft.p50,
            "sim_ttft_p99_ns": fleet.ttft.p99,
            "sim_bandwidth_fraction": fleet.bandwidth.utilization,
            "sim_mib_moved": moved / MIB,
            "accounting": (fleet.requests, fleet.served, fleet.shed,
                           fleet.failed, fleet.slo_met),
            "availability": fleet.availability,
        }
        return Outcome(
            system=self.system, span=(started, ended),
            parts=[(started, ended)], episodes=len(replicas), failed=failed, sim=sim,
            evaluations=fleet.evaluations,
            traces=[fleet.trace] if fleet.trace is not None else [],
            router=fleet.counters.as_dict(),
        )


WORKLOADS = {workload.name: workload
             for workload in (ServeHbm4(), DrainHbm4(), FleetRome())}
