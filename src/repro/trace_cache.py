"""Memoization cache for trace setup (ROADMAP: "trace caching").

Sweeps re-run many simulation points over the same traces, and the two
expensive pieces of trace setup are pure functions of their inputs:

* :func:`repro.controller.request.decompose` -- the address-mapping
  decode of a host request into per-block DRAM coordinates, keyed by
  ``(mapping, address, size_bytes)``;
* :func:`repro.core.interface.requests_for_transfer` -- the striping of a
  bulk transfer into row-request specs, keyed by the full argument tuple.

Both producers cache only the *derivable, immutable* part of their output
(coordinate tuples / request spec tuples) and rebuild the mutable queue
objects (:class:`~repro.controller.request.Transaction`,
:class:`~repro.core.interface.RowRequest`) on every call, so cached and
uncached calls are observably identical apart from wall-clock time.

A process-global :class:`TraceCache` instance serves both call sites; the
sweep runner (:mod:`repro.sim.sweep`) snapshots its hit/miss counters
around each sweep point and sums them -- including the deltas child
processes report back -- into :class:`~repro.sim.sweep.SweepStats`.
Entries derived in a child process die with it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of a cache's hit/miss counters."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated after the ``since`` snapshot was taken."""
        return CacheStats(hits=self.hits - since.hits,
                          misses=self.misses - since.misses)

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(hits=self.hits + other.hits,
                          misses=self.misses + other.misses)


class TraceCache:
    """A bounded LRU memoization cache with hit/miss accounting.

    Values must be treated as immutable by callers: the cache hands the
    same object back on every hit.  Producers that need mutable results
    cache an immutable *spec* and rebuild fresh objects from it per call.

    ``max_entries`` bounds memory; the least recently used entry is
    evicted first.  Exceptions raised by ``compute`` propagate and leave
    the cache unchanged (failures are never cached).
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self._misses += 1
            value = compute()
            self._entries[key] = value
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return value
        self._hits += 1
        self._entries.move_to_end(key)
        return value

    def stats(self) -> CacheStats:
        return CacheStats(hits=self._hits, misses=self._misses)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0


#: Process-global cache shared by the trace-setup call sites.  Child
#: processes forked by the sweep runner inherit the parent's warm entries
#: and report their own counter deltas back to the parent.
_GLOBAL_CACHE = TraceCache()


def global_trace_cache() -> TraceCache:
    """The process-global trace-setup cache."""
    return _GLOBAL_CACHE


def trace_cache_stats() -> CacheStats:
    """Snapshot of the global cache's hit/miss counters."""
    return _GLOBAL_CACHE.stats()


def reset_trace_cache() -> None:
    """Clear the global cache (used by tests and cold-run benchmarks)."""
    _GLOBAL_CACHE.clear()
