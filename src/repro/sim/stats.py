"""Common result containers for simulations and analytic models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.latency import LatencyAccumulator

if TYPE_CHECKING:
    from repro.obs.metrics import MetricRegistry
    from repro.obs.trace import TraceRecorder
    from repro.reliability.ras import ReliabilityStats


@dataclass(frozen=True)
class BandwidthResult:
    """Bandwidth delivered by a simulation run."""

    bytes_transferred: int
    elapsed_ns: float
    peak_bytes_per_ns: float

    @property
    def achieved_bytes_per_ns(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.bytes_transferred / self.elapsed_ns

    @property
    def achieved_gbps(self) -> float:
        """Delivered bandwidth in GB/s (1 byte/ns == 1 GB/s)."""
        return self.achieved_bytes_per_ns

    @property
    def utilization(self) -> float:
        if self.peak_bytes_per_ns <= 0:
            return 0.0
        return min(1.0, self.achieved_bytes_per_ns / self.peak_bytes_per_ns)


@dataclass(frozen=True)
class LatencyResult:
    """Latency statistics of served read requests (nanoseconds).

    ``samples`` may be a bounded reservoir rather than the full population;
    when built from :class:`~repro.latency.LatencyAccumulator` objects the
    exact count/sum/max are carried alongside so ``count``/``average``/``max``
    stay exact while percentiles are estimated from the reservoir.
    """

    samples: tuple
    exact_count: Optional[int] = None
    exact_total: Optional[int] = None
    exact_max: Optional[int] = None
    exact_min: Optional[int] = None

    @classmethod
    def from_samples(cls, samples: List[int]) -> "LatencyResult":
        return cls(samples=tuple(samples))

    @classmethod
    def from_accumulators(
        cls, accumulators: Iterable[LatencyAccumulator]
    ) -> "LatencyResult":
        accumulators = list(accumulators)
        samples = tuple(s for acc in accumulators for s in acc.samples)
        minima = [acc.min_ns for acc in accumulators if acc.min_ns is not None]
        return cls(
            samples=samples,
            exact_count=sum(acc.count for acc in accumulators),
            exact_total=sum(acc.total_ns for acc in accumulators),
            exact_max=max((acc.max_ns for acc in accumulators), default=0),
            exact_min=min(minima) if minima else None,
        )

    @property
    def count(self) -> int:
        if self.exact_count is not None:
            return self.exact_count
        return len(self.samples)

    @property
    def average(self) -> float:
        if self.exact_count is not None:
            if not self.exact_count:
                return 0.0
            return (self.exact_total or 0) / self.exact_count
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    @property
    def max(self) -> float:
        if self.exact_max is not None:
            return float(self.exact_max)
        return float(max(self.samples)) if self.samples else 0.0

    @property
    def min(self) -> float:
        if self.exact_min is not None:
            return float(self.exact_min)
        return float(min(self.samples)) if self.samples else 0.0

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def percentile(self, pct: float) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(round((pct / 100.0) * (len(ordered) - 1))))
        return float(ordered[index])


@dataclass
class SimulationResult:
    """Full result bundle returned by the runner helpers.

    ``evaluations`` counts scheduler evaluations across the run's
    controllers (one per single-step evaluation, plus one per call of the
    conventional controller's event-core loop).  It is excluded from equality:
    different execution cores reach identical simulated results with
    different evaluation counts, and the counter exists to observe the
    event core's speedup mechanisms.
    """

    name: str
    bandwidth: BandwidthResult
    latency: LatencyResult
    command_counts: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    evaluations: int = field(default=0, compare=False)
    #: RAS outcome counters (corrected/DUE/SDC, retries, spares, ...)
    #: when the run's controller carried a reliability config; ``None``
    #: otherwise.  Participates in equality: fault campaigns must be
    #: bit-identical like every other simulated outcome.
    reliability: Optional["ReliabilityStats"] = None
    #: Structured trace events / windowed metric series recorded when the
    #: run carried an enabled :class:`~repro.obs.config.ObsConfig`;
    #: ``None`` otherwise.  Both participate in equality -- events and
    #: samples key on simulated time only, so recorded runs stay
    #: bit-identical across workers, start methods, and checkpoint cuts.
    trace: Optional["TraceRecorder"] = None
    metrics: Optional["MetricRegistry"] = None

    @property
    def utilization(self) -> float:
        return self.bandwidth.utilization

    def summary(self) -> str:
        return (
            f"{self.name}: {self.bandwidth.achieved_gbps:.1f} GB/s "
            f"({self.utilization:.1%} of peak), "
            f"avg read latency {self.latency.average:.1f} ns"
        )
