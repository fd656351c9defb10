"""Deterministic structured tracing on the simulated-time axis.

:class:`TraceRecorder` is an append-only, bounded list of
:class:`TraceEvent` records -- instants (``dur_ns == 0``) and complete
spans -- each stamped with a *simulated* timestamp and a track name
(one track per channel, bank group, serving loop, or fleet replica).
No wall-clock value ever enters an event, so the recorder contents are
a pure function of the simulation and survive pickling (checkpoint
cuts, sweep-worker result shipping) bit-identically.

Two exporters share the recorder:

* :func:`to_chrome_trace` -- Chrome trace-event JSON (``traceEvents``
  with ``ph: "X"``/``"i"`` records plus ``thread_name`` metadata), which
  Perfetto and ``chrome://tracing`` load directly.  Events are sorted on
  ``(ts, track, name, dur)`` and serialized with sorted keys and fixed
  separators, so equal recorders export byte-equal documents.
* :func:`to_jsonl` -- one sorted-keys JSON object per line, in recording
  order (the append-only view).

:func:`merge_traces` joins per-replica recorders under track prefixes
(stable-sorted on timestamp only, so each part's internal order is
preserved) -- the fleet aggregation path.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "merge_traces",
    "to_chrome_trace",
    "to_jsonl",
    "write_trace",
]


class TraceEvent(NamedTuple):
    """One structured event: an instant (``dur_ns == 0``) or a span.

    ``args`` is a tuple of sorted ``(key, value)`` pairs so events hash,
    compare, and pickle deterministically.
    """

    ts_ns: int
    dur_ns: int
    track: str
    name: str
    args: Tuple[Tuple[str, Any], ...] = ()


class TraceRecorder:
    """Bounded append-only event store keyed on simulated time."""

    def __init__(self, max_events: int = 100_000) -> None:
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        #: Events refused because ``max_events`` was reached; bounded
        #: recording drops loudly instead of growing without bound.
        self.dropped = 0

    def instant(self, ts_ns: int, track: str, name: str, **args: Any) -> None:
        self._append(TraceEvent(
            ts_ns, 0, track, name,
            tuple(sorted(args.items())) if args else ()))

    def span(self, ts_ns: int, dur_ns: int, track: str, name: str,
             **args: Any) -> None:
        self._append(TraceEvent(
            ts_ns, dur_ns, track, name,
            tuple(sorted(args.items())) if args else ()))

    def _append(self, event: TraceEvent) -> None:
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecorder):
            return NotImplemented
        return (self.max_events == other.max_events
                and self.dropped == other.dropped
                and self.events == other.events)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return (f"TraceRecorder(events={len(self.events)}, "
                f"dropped={self.dropped})")


def merge_traces(parts: Sequence[Tuple[str, TraceRecorder]],
                 max_events: Optional[int] = None) -> TraceRecorder:
    """Join ``(prefix, recorder)`` parts into one recorder.

    Each part's tracks gain its prefix (e.g. ``"replica0/"``), then the
    union is stable-sorted on timestamp only, so same-instant events keep
    their per-part recording order.  The result is a pure function of
    the parts -- worker count and start method cannot reorder it.
    """
    if max_events is None:
        max_events = max(
            sum(recorder.max_events for _, recorder in parts), 1)
    merged = TraceRecorder(max_events)
    events: List[TraceEvent] = []
    for prefix, recorder in parts:
        merged.dropped += recorder.dropped
        if prefix:
            events.extend(event._replace(track=prefix + event.track)
                          for event in recorder.events)
        else:
            events.extend(recorder.events)
    events.sort(key=lambda event: event.ts_ns)
    if len(events) > max_events:
        merged.dropped += len(events) - max_events
        events = events[:max_events]
    merged.events = events
    return merged


def _sorted_events(events: Iterable[TraceEvent]) -> List[TraceEvent]:
    return sorted(events,
                  key=lambda e: (e.ts_ns, e.track, e.name, e.dur_ns))


def to_chrome_trace(recorder: TraceRecorder) -> str:
    """Chrome trace-event JSON (Perfetto-loadable), byte-deterministic.

    One ``tid`` per track (in sorted track order) under a single
    ``pid``, named via ``thread_name`` metadata; timestamps are
    microseconds (``ts_ns / 1000``) per the trace-event format.
    """
    tracks = sorted({event.track for event in recorder.events})
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    records: List[Dict[str, Any]] = [
        {"ph": "M", "pid": 1, "tid": tids[track], "name": "thread_name",
         "args": {"name": track}}
        for track in tracks
    ]
    for event in _sorted_events(recorder.events):
        record: Dict[str, Any] = {
            "pid": 1,
            "tid": tids[event.track],
            "ts": event.ts_ns / 1000.0,
            "name": event.name,
            "cat": event.track,
        }
        if event.dur_ns:
            record["ph"] = "X"
            record["dur"] = event.dur_ns / 1000.0
        else:
            record["ph"] = "i"
            record["s"] = "t"
        if event.args:
            record["args"] = dict(event.args)
        records.append(record)
    document = {
        "displayTimeUnit": "ns",
        "traceEvents": records,
        "otherData": {"dropped_events": recorder.dropped},
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def to_jsonl(recorder: TraceRecorder) -> str:
    """Append-only JSONL export: one event per line, recording order."""
    lines = [
        json.dumps(
            {"ts_ns": event.ts_ns, "dur_ns": event.dur_ns,
             "track": event.track, "name": event.name,
             "args": dict(event.args)},
            sort_keys=True, separators=(",", ":"))
        for event in recorder.events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace(path: str, recorder: TraceRecorder) -> None:
    """Write ``recorder`` to ``path``: JSONL for ``*.jsonl``, otherwise
    Chrome trace-event JSON."""
    if str(path).endswith(".jsonl"):
        payload = to_jsonl(recorder)
    else:
        payload = to_chrome_trace(recorder)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
