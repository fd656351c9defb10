"""The per-run recording bundle the hot paths hold.

An :class:`ObsSink` exists only when its :class:`~repro.obs.config.ObsConfig`
enables something -- :meth:`ObsSink.from_config` returns ``None``
otherwise, so every instrumented hot path gates on a single
``if self._obs is not None`` check (the same idiom as the RAS engine's
``_ras_active`` gate) and a disabled run takes bit-identical code paths
to a tree without the obs layer.

The sink is a plain picklable object graph: attached to a controller or
serving loop it rides whole-graph checkpoints and sweep-worker result
shipping for free, which is what makes traces survive checkpoint cuts
bit-identically.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs.config import ObsConfig
from repro.obs.metrics import MetricRegistry
from repro.obs.trace import TraceRecorder

__all__ = ["ObsSink"]


class ObsSink:
    """Bundles one run's :class:`TraceRecorder` + :class:`MetricRegistry`."""

    def __init__(self, config: ObsConfig, track: str = "chan0") -> None:
        self.config = config
        #: Default track for events emitted without an explicit track.
        self.track = track
        self.trace: Optional[TraceRecorder] = (
            TraceRecorder(config.max_events) if config.trace else None)
        self.metrics: Optional[MetricRegistry] = (
            MetricRegistry(config.metrics_interval_ns, config.ring_capacity)
            if config.metrics else None)

    @classmethod
    def from_config(cls, config: Optional[ObsConfig],
                    track: str = "chan0") -> Optional["ObsSink"]:
        """The sink for ``config``, or ``None`` when recording is off."""
        if config is None or not config.enabled:
            return None
        return cls(config, track=track)

    # ------------------------------------------------------------- trace
    def event(self, ts_ns: int, name: str, track: Optional[str] = None,
              **args: Any) -> None:
        trace = self.trace
        if trace is not None:
            trace.instant(ts_ns, track if track is not None else self.track,
                          name, **args)

    def span(self, ts_ns: int, dur_ns: int, name: str,
             track: Optional[str] = None, **args: Any) -> None:
        trace = self.trace
        if trace is not None:
            trace.span(ts_ns, dur_ns,
                       track if track is not None else self.track,
                       name, **args)

    # ----------------------------------------------------------- metrics
    def count(self, ts_ns: int, name: str, delta: float = 1.0) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(name).add(ts_ns, delta)

    def gauge(self, ts_ns: int, name: str, value: float) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.gauge(name).set(ts_ns, value)

    def recorder(self, name: str,
                 kind: str = "counter") -> Callable[[int, float], None]:
        """What :meth:`count` (``kind`` ``"counter"``) or :meth:`gauge`
        (``"gauge"``) does for ``name``, resolved once: the series' ``add``
        or ``set``, registered now as their first call would register it,
        or a no-op when metrics are off.

        For a hot path that records one series per command: it resolves
        the recorder on its first record, so the registry fills in the
        same order as through :meth:`count` and :meth:`gauge`.
        """
        metrics = self.metrics
        if metrics is None:
            return _discard
        if kind == "counter":
            return metrics.counter(name).add
        return metrics.gauge(name).set


def _discard(ts_ns: int, value: float) -> None:
    """The recorder of a sink without metrics."""
