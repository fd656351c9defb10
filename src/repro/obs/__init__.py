"""Deterministic observability: tracing + sim-time metrics.

Every subsystem in this tree reports end-of-run aggregates; this package
adds the *during*-the-run view -- structured trace events/spans on the
simulated-time axis and windowed metric series -- without perturbing a
single simulated outcome:

* :class:`ObsConfig` (:mod:`repro.obs.config`) -- the single frozen gate
  threaded through ``ScenarioSpec``/``FleetSpec.base``; disabled means
  no sink exists and every hook short-circuits on one ``is not None``;
* :class:`TraceRecorder` (:mod:`repro.obs.trace`) -- bounded structured
  events (scheduler evaluations, the conventional controller's train
  plan/apply spans, refresh issues and critical-PRE escalations, RAS
  ladder steps, serving admission / rejection / prefill-chunk /
  decode-iteration events, fleet routing decisions) with
  byte-deterministic Chrome trace-event JSON (Perfetto-loadable) and
  JSONL exporters;
* :class:`MetricRegistry` + :class:`MetricSeries`
  (:mod:`repro.obs.metrics`) -- windowed time series (bandwidth, queue
  depth, running batch, KV reservation, refresh debt, DUE/SDC, replica
  health) in bounded ring buffers, mergeable across sweep workers;
* :func:`trace_report` (:mod:`repro.obs.report`) -- the span self-time
  profile behind ``rome-repro trace-report``.

Determinism rules: events and samples key on simulated time only (no
wall clock anywhere in exported bytes), sampling happens at state-change
instants rather than a polling loop, and the sink pickles inside the
controller object graph -- so traces are byte-identical across worker
counts, start methods, and checkpoint cuts.
"""

from repro.obs.config import ObsConfig
from repro.obs.metrics import (
    MetricRegistry,
    MetricSeries,
    counters_namespace,
    merge_registries,
)
from repro.obs.report import load_events, span_self_times, trace_report
from repro.obs.sink import ObsSink
from repro.obs.trace import (
    TraceEvent,
    TraceRecorder,
    merge_traces,
    to_chrome_trace,
    to_jsonl,
    write_trace,
)

__all__ = [
    "MetricRegistry",
    "MetricSeries",
    "ObsConfig",
    "ObsSink",
    "TraceEvent",
    "TraceRecorder",
    "counters_namespace",
    "load_events",
    "merge_registries",
    "merge_traces",
    "span_self_times",
    "to_chrome_trace",
    "to_jsonl",
    "trace_report",
    "write_trace",
]
