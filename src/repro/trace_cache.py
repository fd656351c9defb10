"""Compatibility stub for the ``perfbench/`` harness; there is no cache.

Trace setup is cheap enough to derive on every call (see
:meth:`repro.dram.address.AddressMapping.decode_range`), so nothing is
memoized.  ``perfbench/run.py`` and ``perfbench/perlayer.py`` still
import these three names; the stub is deleted at the next change to the
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a cache that never looks anything up."""

    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        return 0.0


def trace_cache_stats() -> CacheStats:
    return CacheStats()


def reset_trace_cache() -> None:
    """Nothing to reset."""
