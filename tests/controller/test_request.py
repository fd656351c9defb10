"""Tests for host requests and their decomposition into transactions."""

import pytest

from repro.controller.request import MemoryRequest, RequestKind, decompose
from repro.dram.address import baseline_hbm4_mapping


def test_request_ids_are_unique():
    a = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32)
    b = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32)
    assert a.request_id != b.request_id


def test_latency_none_until_completed():
    request = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=32,
                            arrival_ns=10)
    assert request.latency() is None
    request.completion_ns = 110
    assert request.latency() == 100


def test_decompose_splits_at_access_granularity():
    mapping = baseline_hbm4_mapping(num_channels=2)
    request = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=4096)
    transactions = decompose(request, mapping)
    assert len(transactions) == 128
    assert all(t.size_bytes == 32 for t in transactions)
    assert all(t.request is request for t in transactions)


def test_decompose_unaligned_request_covers_all_touched_blocks():
    mapping = baseline_hbm4_mapping(num_channels=2)
    request = MemoryRequest(kind=RequestKind.READ, address=48, size_bytes=32)
    transactions = decompose(request, mapping)
    assert len(transactions) == 2  # spans blocks [32, 64) and [64, 96)


def test_decompose_marks_write_transactions():
    mapping = baseline_hbm4_mapping(num_channels=2)
    request = MemoryRequest(kind=RequestKind.WRITE, address=0, size_bytes=64)
    transactions = decompose(request, mapping)
    assert all(t.is_write for t in transactions)
    assert not any(t.is_read for t in transactions)


def test_decompose_builds_fresh_transactions_on_every_call():
    mapping = baseline_hbm4_mapping(num_channels=2)
    request = MemoryRequest(kind=RequestKind.READ, address=4096,
                            size_bytes=4096)
    first = decompose(request, mapping)
    first[0].served = True
    second = decompose(request, mapping)
    assert [t.coordinate for t in first] == [t.coordinate for t in second]
    assert all(a is not b for a, b in zip(first, second))
    assert not any(t.served for t in second)


@pytest.mark.parametrize("kind", list(RequestKind))
def test_decompose_carries_the_request_kind_and_arrival(kind):
    mapping = baseline_hbm4_mapping(num_channels=2)
    request = MemoryRequest(kind=kind, address=100, size_bytes=200,
                            arrival_ns=17)
    transactions = decompose(request, mapping)
    assert [t.coordinate for t in transactions] \
        == mapping.decode_range(100, 200)
    assert all(t.arrival_ns == 17 for t in transactions)
    assert all(t.is_write == (kind is RequestKind.WRITE)
               for t in transactions)
