"""Tests for the CAM-style request queue."""

import pytest

from repro.controller.queues import RequestQueue
from repro.controller.request import MemoryRequest, RequestKind, decompose
from repro.dram.address import baseline_hbm4_mapping


@pytest.fixture
def transactions():
    mapping = baseline_hbm4_mapping(num_channels=1)
    request = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=1024)
    return decompose(request, mapping)


def test_push_respects_capacity(transactions):
    queue = RequestQueue(capacity=4)
    accepted = [queue.push(t) for t in transactions[:6]]
    assert accepted == [True, True, True, True, False, False]
    assert queue.occupancy == 4
    assert queue.rejected == 2
    assert queue.is_full


def test_peak_occupancy_tracked(transactions):
    queue = RequestQueue(capacity=8)
    for t in transactions[:5]:
        queue.push(t)
    queue.remove(transactions[0])
    assert queue.peak_occupancy == 5
    assert queue.occupancy == 4


def test_oldest_returns_first_pushed(transactions):
    queue = RequestQueue(capacity=8)
    for t in transactions[:3]:
        queue.push(t)
    assert queue.oldest() is transactions[0]


def test_oldest_per_bank_returns_one_entry_per_bank(transactions):
    queue = RequestQueue(capacity=64)
    for t in transactions:
        queue.push(t)
    per_bank = queue.oldest_per_bank()
    assert set(per_bank) == {t.bank_index for t in transactions}
    for index, oldest in per_bank.items():
        assert oldest is next(t for t in transactions
                              if t.bank_index == index)
    assert list(per_bank.values()) == sorted(
        per_bank.values(), key=transactions.index)


def test_row_hit_counts_counts_hits_to_each_given_row(transactions):
    queue = RequestQueue(capacity=64)
    for t in transactions:
        queue.push(t)
    first, other = transactions[0], transactions[1]
    assert first.bank_index != other.bank_index
    row = first.coordinate.row
    same_bank = [t for t in transactions if t.bank_index == first.bank_index]
    counts = queue.row_hit_counts({first.bank_index: row,
                                   other.bank_index: row + 1})
    assert counts == {first.bank_index: len(same_bank), other.bank_index: 0}
    assert queue.row_hit_counts({}) == {}


def test_empty_queue_helpers():
    queue = RequestQueue(capacity=2)
    assert queue.is_empty
    assert queue.oldest() is None
    assert queue.oldest_per_bank() == {}


def test_remove_served_sweeps_in_one_pass(transactions):
    queue = RequestQueue(capacity=8)
    for t in transactions[:6]:
        queue.push(t)
    for index in (0, 2, 5):
        transactions[index].served = True
    assert queue.remove_served() == 3
    assert list(queue) == [transactions[1], transactions[3], transactions[4]]
    # No served entries left: the sweep is a cheap no-op.
    assert queue.remove_served() == 0
    assert queue.occupancy == 3
