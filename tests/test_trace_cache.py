"""Tests for trace-setup memoization (:mod:`repro.trace_cache`)."""

import pytest

from repro.controller.mc import ControllerConfig
from repro.controller.request import MemoryRequest, RequestKind, decompose
from repro.core.interface import RowRequestKind, requests_for_transfer
from repro.trace_cache import (
    CacheStats,
    TraceCache,
    global_trace_cache,
    reset_trace_cache,
    trace_cache_stats,
)


@pytest.fixture(autouse=True)
def _clean_cache():
    reset_trace_cache()
    yield
    reset_trace_cache()


class TestTraceCache:
    def test_miss_then_hit(self):
        cache = TraceCache()
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1
        assert cache.stats() == CacheStats(hits=2, misses=1)

    def test_lru_eviction(self):
        cache = TraceCache(max_entries=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh "a"
        cache.get_or_compute("c", lambda: 3)  # evicts "b"
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert len(cache) == 2

    def test_exceptions_are_not_cached(self):
        cache = TraceCache()

        def boom():
            raise ValueError("no")

        with pytest.raises(ValueError):
            cache.get_or_compute("k", boom)
        assert "k" not in cache
        assert cache.get_or_compute("k", lambda: 7) == 7

    def test_clear_resets_counters(self):
        cache = TraceCache()
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == CacheStats()

    def test_stats_delta_and_merge(self):
        a = CacheStats(hits=5, misses=3)
        b = CacheStats(hits=2, misses=1)
        assert a.delta(b) == CacheStats(hits=3, misses=2)
        assert a.merge(b) == CacheStats(hits=7, misses=4)
        assert a.hit_rate == pytest.approx(5 / 8)
        assert CacheStats().hit_rate == 0.0

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            TraceCache(max_entries=0)


class TestDecomposeCaching:
    def _mapping(self):
        return ControllerConfig().local_mapping(num_channels=1)

    def test_repeat_decompose_hits_cache(self):
        mapping = self._mapping()
        request = MemoryRequest(kind=RequestKind.READ, address=0,
                                size_bytes=4096)
        first = decompose(request, mapping)
        before = trace_cache_stats()
        second = decompose(request, mapping)
        delta = trace_cache_stats().delta(before)
        assert delta == CacheStats(hits=1, misses=0)
        # Fresh Transaction objects each call, same coordinates.
        assert [t.coordinate for t in first] == [t.coordinate for t in second]
        assert all(a is not b for a, b in zip(first, second))

    def test_different_mapping_is_a_different_entry(self):
        request = MemoryRequest(kind=RequestKind.READ, address=0,
                                size_bytes=4096)
        decompose(request, self._mapping())
        before = trace_cache_stats()
        other = ControllerConfig().local_mapping(num_channels=2)
        decompose(MemoryRequest(kind=RequestKind.READ, address=0,
                                size_bytes=4096), other)
        delta = trace_cache_stats().delta(before)
        assert delta.misses == 1 and delta.hits == 0

    def test_different_range_is_a_different_entry(self):
        mapping = self._mapping()
        decompose(MemoryRequest(kind=RequestKind.READ, address=0,
                                size_bytes=4096), mapping)
        before = trace_cache_stats()
        decompose(MemoryRequest(kind=RequestKind.READ, address=8192,
                                size_bytes=4096), mapping)
        delta = trace_cache_stats().delta(before)
        assert delta.misses == 1 and delta.hits == 0

    def test_kind_does_not_split_entries(self):
        # READ and WRITE of the same range share the pure address decode.
        mapping = self._mapping()
        decompose(MemoryRequest(kind=RequestKind.READ, address=0,
                                size_bytes=4096), mapping)
        before = trace_cache_stats()
        write = decompose(MemoryRequest(kind=RequestKind.WRITE, address=0,
                                        size_bytes=4096), mapping)
        assert trace_cache_stats().delta(before) == CacheStats(hits=1)
        assert all(t.is_write for t in write)


class TestRequestsForTransferCaching:
    KWARGS = dict(effective_row_bytes=4096, num_channels=2,
                  vbas_per_channel=4)

    def test_repeat_transfer_hits_cache(self):
        first = requests_for_transfer(64 * 1024, kind=RowRequestKind.RD_ROW,
                                      **self.KWARGS)
        before = trace_cache_stats()
        second = requests_for_transfer(64 * 1024, kind=RowRequestKind.RD_ROW,
                                       **self.KWARGS)
        assert trace_cache_stats().delta(before) == CacheStats(hits=1)
        # Fresh RowRequest objects with fresh identities, same layout.
        assert [(r.channel, r.vba, r.row, r.valid_bytes) for r in first] == \
               [(r.channel, r.vba, r.row, r.valid_bytes) for r in second]
        assert all(a is not b for a, b in zip(first, second))
        assert all(a.request_id != b.request_id
                   for a, b in zip(first, second))
        assert all(r.completion_ns is None for r in second)

    def test_layout_args_key_the_cache(self):
        requests_for_transfer(64 * 1024, kind=RowRequestKind.RD_ROW,
                              **self.KWARGS)
        before = trace_cache_stats()
        requests_for_transfer(64 * 1024, kind=RowRequestKind.RD_ROW,
                              effective_row_bytes=4096, num_channels=4,
                              vbas_per_channel=4)
        delta = trace_cache_stats().delta(before)
        assert delta.misses == 1 and delta.hits == 0

    def test_kind_and_arrival_share_the_layout_entry(self):
        requests_for_transfer(64 * 1024, kind=RowRequestKind.RD_ROW,
                              **self.KWARGS)
        before = trace_cache_stats()
        writes = requests_for_transfer(64 * 1024, kind=RowRequestKind.WR_ROW,
                                       arrival_ns=17, **self.KWARGS)
        assert trace_cache_stats().delta(before) == CacheStats(hits=1)
        assert all(r.is_write and r.arrival_ns == 17 for r in writes)

    def test_zero_bytes_bypasses_the_cache(self):
        before = trace_cache_stats()
        assert requests_for_transfer(0, kind=RowRequestKind.RD_ROW,
                                     **self.KWARGS) == []
        assert trace_cache_stats().delta(before) == CacheStats()

    def test_capacity_error_is_not_cached(self):
        with pytest.raises(ValueError):
            requests_for_transfer(64 * 1024, kind=RowRequestKind.RD_ROW,
                                  effective_row_bytes=4096, num_channels=1,
                                  vbas_per_channel=1, rows_per_vba=2)
        assert len(global_trace_cache()) == 0
