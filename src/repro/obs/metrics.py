"""Windowed sim-time metric series in bounded ring buffers.

A :class:`MetricSeries` accumulates updates into fixed windows of the
sampling grid (``window = ts_ns // interval_ns``): counters sum deltas
per window, gauges keep the last write per window.  Sampling happens
only at state-change instants (command issues, iteration boundaries,
routing decisions) -- which occur at identical simulated times in every
run of the same spec -- so there is no polling loop to perturb the
simulation and the recorded points are bit-identical across worker
counts, start methods, and checkpoint cuts.

Each series is a ring: when a new window would exceed ``capacity`` the
oldest window is evicted (counted in ``evicted``), so memory stays
bounded on arbitrarily long horizons.  :class:`MetricRegistry` names the
series, merges across ``run_sweep`` workers (fleet replicas merge under
name prefixes), and exports one ``as_dict()`` namespace.

:func:`counters_namespace` folds the tree's pre-existing ad-hoc
counters -- scheduler ``evaluations``, the
:class:`~repro.reliability.ras.ReliabilityStats` block, and the fleet
router's rerouted/hedged/shed totals -- into that same flat namespace,
so one dict covers every layer without changing any of the original
attributes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MetricRegistry",
    "MetricSeries",
    "counters_namespace",
    "merge_registries",
]


class MetricSeries:
    """One named, windowed, ring-buffered time series."""

    def __init__(self, name: str, kind: str, interval_ns: int,
                 capacity: int) -> None:
        if kind not in ("counter", "gauge"):
            raise ValueError(f"unknown series kind {kind!r}")
        if interval_ns < 1:
            raise ValueError("interval_ns must be at least 1")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.name = name
        self.kind = kind
        self.interval_ns = interval_ns
        self.capacity = capacity
        #: ``[window_index, value]`` pairs in ascending window order.
        self._windows: List[List[float]] = []
        self.evicted = 0

    # ------------------------------------------------------------ update
    def add(self, ts_ns: int, delta: float = 1.0) -> None:
        """Accumulate ``delta`` into the window containing ``ts_ns``."""
        if self.kind != "counter":
            raise TypeError(f"series {self.name!r} is a {self.kind}")
        self._update(ts_ns, delta, accumulate=True)

    def set(self, ts_ns: int, value: float) -> None:
        """Record ``value`` for the window containing ``ts_ns`` (last
        write wins within one window)."""
        if self.kind != "gauge":
            raise TypeError(f"series {self.name!r} is a {self.kind}")
        self._update(ts_ns, value, accumulate=False)

    def _update(self, ts_ns: int, value: float, accumulate: bool) -> None:
        window = ts_ns // self.interval_ns
        windows = self._windows
        if windows and windows[-1][0] == window:
            if accumulate:
                windows[-1][1] += value
            else:
                windows[-1][1] = value
            return
        if windows and window < windows[-1][0]:
            # Rare out-of-order update (hooks fire in sim-time order on
            # any single run, but merged sources may interleave): fold
            # into the owning window, or drop below the ring horizon.
            for entry in reversed(windows):
                if entry[0] == window:
                    if accumulate:
                        entry[1] += value
                    else:
                        entry[1] = value
                    return
                if entry[0] < window:
                    break
            index = 0
            while index < len(windows) and windows[index][0] < window:
                index += 1
            windows.insert(index, [window, value])
        else:
            windows.append([window, value])
        if len(windows) > self.capacity:
            del windows[0]
            self.evicted += 1

    # ------------------------------------------------------------- views
    def points(self) -> Tuple[Tuple[int, float], ...]:
        return tuple((int(window), value) for window, value in self._windows)

    @property
    def total(self) -> float:
        """Sum over the retained windows (counters only make sense)."""
        return sum(value for _, value in self._windows)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "interval_ns": self.interval_ns,
            "capacity": self.capacity,
            "evicted": self.evicted,
            "points": [[int(window), value]
                       for window, value in self._windows],
        }

    def __len__(self) -> int:
        return len(self._windows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricSeries):
            return NotImplemented
        return (self.name == other.name and self.kind == other.kind
                and self.interval_ns == other.interval_ns
                and self.capacity == other.capacity
                and self.evicted == other.evicted
                and self._windows == other._windows)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return (f"MetricSeries({self.name!r}, {self.kind!r}, "
                f"windows={len(self._windows)}, evicted={self.evicted})")


class MetricRegistry:
    """Named metric series sharing one sampling grid and ring bound."""

    def __init__(self, interval_ns: int = 1_000,
                 ring_capacity: int = 4_096) -> None:
        self.interval_ns = interval_ns
        self.ring_capacity = ring_capacity
        self._series: Dict[str, MetricSeries] = {}

    def counter(self, name: str) -> MetricSeries:
        return self._named(name, "counter")

    def gauge(self, name: str) -> MetricSeries:
        return self._named(name, "gauge")

    def _named(self, name: str, kind: str) -> MetricSeries:
        series = self._series.get(name)
        if series is None:
            series = MetricSeries(name, kind, self.interval_ns,
                                  self.ring_capacity)
            self._series[name] = series
        elif series.kind != kind:
            raise TypeError(
                f"series {name!r} already registered as {series.kind}")
        return series

    def get(self, name: str) -> Optional[MetricSeries]:
        return self._series.get(name)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._series))

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """One namespace over every series, in sorted name order."""
        return {name: self._series[name].as_dict()
                for name in sorted(self._series)}

    def __len__(self) -> int:
        return len(self._series)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricRegistry):
            return NotImplemented
        return (self.interval_ns == other.interval_ns
                and self.ring_capacity == other.ring_capacity
                and self._series == other._series)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return f"MetricRegistry(series={sorted(self._series)})"


def merge_registries(parts: Sequence[Tuple[str, MetricRegistry]]
                     ) -> MetricRegistry:
    """Join ``(prefix, registry)`` parts under prefixed series names.

    Fleet aggregation merges per-replica registries as
    ``replica<i>/<name>``; a name collision after prefixing is a caller
    bug and raises rather than silently summing unrelated series.
    """
    interval_ns = parts[0][1].interval_ns if parts else 1_000
    capacity = parts[0][1].ring_capacity if parts else 4_096
    merged = MetricRegistry(interval_ns, capacity)
    for prefix, registry in parts:
        for name in sorted(registry._series):
            series = registry._series[name]
            target_name = prefix + name
            if target_name in merged._series:
                raise ValueError(
                    f"metric series collision on {target_name!r}")
            clone = MetricSeries(target_name, series.kind,
                                 series.interval_ns, series.capacity)
            clone._windows = [list(entry) for entry in series._windows]
            clone.evicted = series.evicted
            merged._series[target_name] = clone
    return merged


def counters_namespace(result: Any) -> Dict[str, float]:
    """The unified counter namespace over a result object.

    Accepts a :class:`~repro.sim.stats.SimulationResult`,
    :class:`~repro.workloads.driver.WorkloadResult`, or
    :class:`~repro.fleet.driver.FleetResult` and flattens whichever
    ad-hoc counter blocks it carries into ``layer.name`` keys:
    ``controller.evaluations``, ``reliability.*`` (the
    ``ReliabilityStats`` fields), and ``fleet.router.*`` (the
    ``RouterCounters`` fields).  Purely a view -- no original attribute
    changes or moves.
    """
    namespace: Dict[str, float] = {}
    evaluations = getattr(result, "evaluations", None)
    if evaluations is not None:
        namespace["controller.evaluations"] = float(evaluations)
    reliability = getattr(result, "reliability", None)
    if reliability is not None:
        for key, value in reliability.as_dict().items():
            namespace[f"reliability.{key}"] = float(value)
    counters = getattr(result, "counters", None)
    if counters is not None and hasattr(counters, "as_dict"):
        for key, value in counters.as_dict().items():
            namespace[f"fleet.router.{key}"] = float(value)
    return namespace
