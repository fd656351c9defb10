"""Tests for host requests and their decomposition into transactions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.request import MemoryRequest, RequestKind, decompose
from repro.dram.address import DramCoordinate, baseline_hbm4_mapping
from tests.dram.test_address import chunked_mappings, ranges_near_the_wrap


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
    first[0].bank_index = -1
    second = decompose(request, mapping)
    assert [t.coordinate for t in first] == [t.coordinate for t in second]
    assert all(a is not b for a, b in zip(first, second))
    assert second[0].bank_index == mapping.bank_index(second[0].coordinate)


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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decompose_matches_the_per_block_reference(data):
    """``decompose`` builds, per touched block, the transaction the
    per-block path builds: ``decode`` of the block's address, that
    coordinate's ``bank_index``, and the request's size, arrival and
    direction -- fresh objects on every call."""
    mapping = data.draw(chunked_mappings())
    address, size_bytes = data.draw(ranges_near_the_wrap(mapping))
    request = MemoryRequest(
        kind=data.draw(st.sampled_from(list(RequestKind))), address=address,
        size_bytes=size_bytes,
        arrival_ns=data.draw(st.integers(min_value=0, max_value=10**9)))
    transactions = decompose(request, mapping)
    granularity = mapping.granularity_bytes
    blocks = range(address // granularity,
                   (address + size_bytes - 1) // granularity + 1)
    assert len(transactions) == len(blocks)
    for transaction, block in zip(transactions, blocks):
        coordinate = transaction.coordinate
        assert type(coordinate) is DramCoordinate
        assert coordinate == mapping.decode(block * granularity)
        assert transaction.bank_index == mapping.bank_index(coordinate)
        assert transaction.request is request
        assert transaction.size_bytes == granularity
        assert transaction.arrival_ns == request.arrival_ns
        assert transaction.is_read == request.is_read
    again = decompose(request, mapping)
    assert len({id(t) for t in transactions + again}) == 2 * len(blocks)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_windows_build_the_whole_decomposition_in_order(data):
    """Windows of consecutive blocks, as the controller builds them from a
    request cursor, build the transactions of the whole request, block for
    block; ``block_span`` gives its first block and block count."""
    mapping = data.draw(chunked_mappings())
    address, size_bytes = data.draw(ranges_near_the_wrap(mapping))
    request = MemoryRequest(kind=data.draw(st.sampled_from(list(RequestKind))),
                            address=address, size_bytes=size_bytes)
    first, count = mapping.block_span(address, size_bytes)
    granularity = mapping.granularity_bytes
    assert first == address // granularity
    assert count == (address + size_bytes - 1) // granularity - first + 1
    cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=4)))
    bounds = [0] + cuts + [count]
    windows = [transaction for start, end in zip(bounds, bounds[1:])
               for transaction in decompose(request, mapping, first + start,
                                            end - start)]
    whole = decompose(request, mapping)

    def fields(transaction):
        return (transaction.request, transaction.coordinate,
                transaction.size_bytes, transaction.arrival_ns,
                transaction.is_read, transaction.bank_index)

    assert list(map(fields, windows)) == list(map(fields, whole))


def test_a_request_of_no_bytes_spans_no_blocks():
    mapping = baseline_hbm4_mapping(num_channels=2)
    assert mapping.block_span(64, 0) == (0, 0)
    request = MemoryRequest(kind=RequestKind.READ, address=64, size_bytes=0)
    assert decompose(request, mapping) == []
