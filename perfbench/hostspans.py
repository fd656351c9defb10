"""Host-time spans and per-layer counters, measured from outside the tree.

:class:`HostTracer` wraps public functions and methods of ``repro`` at the
attribute each caller resolves -- a class attribute for methods, the
importing module's global for functions -- and restores every one on
exit.  The source tree is never edited.

Two kinds of probe:

* a *span* records name, start, end, parent span and episode id for
  every call, kept in memory and written once at the end through the
  tree's own Chrome trace-event exporter (:meth:`HostTracer.write`), so
  ``rome-repro trace-report`` loads it;
* a *leaf* is a query too frequent for one span per call
  (``Channel.can_issue``, ``AddressMapping.decode``, ``health_at``): it
  adds its call count and total time to process-wide totals and to the
  enclosing span's ``args`` instead.

Wall-clock data lives only here, in a recorder of its own, outside the
simulated-time recording that ``ObsConfig(trace=True)`` produces inside
the tree.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.trace import TraceRecorder, write_trace

#: Span record fields (a list per span keeps the hot wrapper cheap).
_NAME, _START, _END, _ID, _PARENT, _EPISODE, _LEAVES = range(7)


class HostTracer:
    """In-memory host-time spans plus per-name call counts and totals.

    Use as a context manager: probes are installed by :meth:`span` /
    :meth:`leaf` and removed on exit, so an untraced run after (or
    before) a traced one executes the unmodified tree.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        #: Arguments or results a probe's ``observe`` hook chose to keep.
        self.observed: Dict[str, List[Any]] = defaultdict(list)
        self.episode = 0
        self._stack: List[list] = []
        self._next_id = 1
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ probes

    def __enter__(self) -> "HostTracer":
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install(self, owner: Any, attr: str, wrapper: Callable) -> None:
        # Methods must be defined on the patched class itself, so that
        # restoring the attribute restores exactly what callers resolved.
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner: Any, attr: str, name: str, *,
             new_episode: bool = False,
             observe: Optional[Callable[[tuple, Any], Any]] = None) -> None:
        """Record one span per call of ``owner.attr``.

        ``new_episode`` starts a fresh episode id for the call and every
        span nested in it; ``observe(args, result)``, when given, returns
        a value appended to ``self.observed[name]``.
        """
        original = getattr(owner, attr)
        kept = self.observed[name]
        open_span, close_span = self._open, self._close

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = open_span(name, new_episode)
            try:
                result = original(*args, **kwargs)
            finally:
                close_span(record)
            if observe is not None:
                kept.append(observe(args, result))
            return result

        self._install(owner, attr, wrapper)

    def _open(self, name: str, new_episode: bool) -> list:
        if new_episode:
            self.episode += 1
        stack = self._stack
        record = [name, time.perf_counter_ns(), 0, self._next_id,
                  stack[-1][_ID] if stack else 0, self.episode, None]
        self._next_id += 1
        stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[_END] = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(record)
        self.calls[record[_NAME]] += 1
        self.total_ns[record[_NAME]] += record[_END] - record[_START]

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A span around a block of benchmark code (one new episode)."""
        record = self._open(name, True)
        try:
            yield
        finally:
            self._close(record)

    def leaf(self, owner: Any, attr: str, name: str) -> None:
        """Count and time ``owner.attr`` without a span per call."""
        original = getattr(owner, attr)
        stack = self._stack
        calls = self.calls
        total_ns = self.total_ns
        clock = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                calls[name] += 1
                total_ns[name] += elapsed
                if stack:
                    top = stack[-1]
                    if top[_LEAVES] is None:
                        top[_LEAVES] = defaultdict(lambda: [0, 0])
                    tally = top[_LEAVES][name]
                    tally[0] += 1
                    tally[1] += elapsed

        self._install(owner, attr, wrapper)

    # ------------------------------------------------------------ output

    def seconds(self, *names: str) -> float:
        return sum(self.total_ns.get(name, 0) for name in names) / 1e9

    def count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def write(self, path: str) -> int:
        """Write every span to ``path`` on track ``host``, in nanoseconds
        from the first span; returns the number written.  Leaf tallies
        ride on each span's args as ``<leaf>.calls`` / ``<leaf>.ns``."""
        origin = min((span[_START] for span in self.spans), default=0)
        recorder = TraceRecorder(max_events=max(len(self.spans), 1))
        for span in self.spans:
            args: Dict[str, Any] = {}
            for leaf, (count, ns) in (span[_LEAVES] or {}).items():
                args[f"{leaf}.calls"] = count
                args[f"{leaf}.ns"] = ns
            recorder.span(span[_START] - origin, span[_END] - span[_START],
                          "host", span[_NAME], id=span[_ID],
                          parent=span[_PARENT], episode=span[_EPISODE],
                          **args)
        write_trace(path, recorder)
        return len(recorder)
