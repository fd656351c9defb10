"""Tests for the CAM-style request queue and its bank machines."""

import pytest

from repro.controller.queues import RequestQueue
from repro.controller.request import MemoryRequest, RequestKind, decompose
from repro.dram.address import baseline_hbm4_mapping

MAPPING = baseline_hbm4_mapping(num_channels=1)
NUM_BANKS = (MAPPING.num_pseudo_channels * MAPPING.num_stack_ids
             * MAPPING.num_bank_groups * MAPPING.banks_per_group)


def _queue(capacity):
    return RequestQueue(capacity=capacity, num_banks=NUM_BANKS)


def _heads(queue, seqs):
    return [queue.entries[seq] for seq in seqs]


@pytest.fixture
def transactions():
    request = MemoryRequest(kind=RequestKind.READ, address=0, size_bytes=1024)
    return decompose(request, MAPPING)


def test_push_respects_capacity(transactions):
    queue = _queue(4)
    accepted = [queue.push(t) for t in transactions[:6]]
    assert accepted == [True, True, True, True, False, False]
    assert queue.occupancy == 4
    assert queue.is_full


def test_peak_occupancy_tracked(transactions):
    queue = _queue(8)
    for t in transactions[:5]:
        queue.push(t)
    queue.remove(transactions[0])
    assert queue.peak_occupancy == 5
    assert queue.occupancy == 4


def test_oldest_returns_first_pushed(transactions):
    queue = _queue(8)
    for t in transactions[:3]:
        queue.push(t)
    assert queue.oldest() is transactions[0]


def test_miss_heads_are_the_oldest_entry_of_each_bank(transactions):
    """With every bank closed, each bank's oldest entry is a miss head, one
    per bank with pending work, in admission order."""
    queue = _queue(64)
    for t in transactions:
        queue.push(t)
    heads = _heads(queue, queue.miss_heads)
    assert {t.bank_index for t in heads} == {t.bank_index
                                              for t in transactions}
    for head in heads:
        assert head is next(t for t in transactions
                            if t.bank_index == head.bank_index)
    assert heads == sorted(heads, key=transactions.index)
    assert queue.hit_heads == []


def test_hit_counts_follow_the_noted_open_rows(transactions):
    queue = _queue(64)
    for t in transactions:
        queue.push(t)
    first, other = transactions[0], transactions[1]
    assert first.bank_index != other.bank_index
    row = first.coordinate.row
    same_bank = [t for t in transactions if t.bank_index == first.bank_index]
    queue.note_row(first.bank_index, row)
    queue.note_row(other.bank_index, row + 1)
    assert queue.hit_count(first.bank_index) == len(same_bank)
    assert queue.hit_count(other.bank_index) == 0
    assert queue.open_row(first.bank_index) == row
    # The hit bank left the miss heads for the hit heads; the conflict
    # bank's oldest entry is still a miss head.
    assert _heads(queue, queue.hit_heads) == [first]
    assert first not in _heads(queue, queue.miss_heads)
    assert other in _heads(queue, queue.miss_heads)
    queue.note_row(first.bank_index, None)
    assert queue.hit_count(first.bank_index) == 0
    assert queue.hit_heads == []


def test_a_hit_behind_a_miss_is_a_hit_head_but_not_its_bank_head(
        transactions):
    queue = _queue(64)
    near = transactions[0]
    far = MemoryRequest(kind=RequestKind.READ,
                        address=MAPPING.bytes_per_row_system, size_bytes=32)
    (conflict,) = decompose(far, MAPPING)
    assert conflict.bank_index == near.bank_index
    queue.note_row(near.bank_index, near.coordinate.row)
    queue.push(conflict)
    queue.push(near)
    # The bank's oldest entry is the miss, its oldest hit the younger one.
    assert queue.machines()[4][near.bank_index] is conflict
    assert queue.machines()[3][near.bank_index] is near
    assert _heads(queue, queue.hit_heads) == [near]
    assert _heads(queue, queue.miss_heads) == [conflict]
    queue.remove(conflict)
    assert queue.machines()[4][near.bank_index] is None
    assert queue.miss_heads == []


def test_empty_queue_helpers():
    queue = _queue(2)
    assert queue.is_empty
    assert queue.oldest() is None
    assert queue.hit_heads == [] and queue.miss_heads == []


def test_remove_keeps_admission_order(transactions):
    queue = _queue(8)
    for t in transactions[:6]:
        queue.push(t)
    for index in (0, 2, 5):
        queue.remove(transactions[index])
    assert list(queue) == [transactions[1], transactions[3], transactions[4]]
    assert queue.occupancy == 3
    with pytest.raises(ValueError):
        queue.remove(transactions[0])


def test_fork_is_independent(transactions):
    queue = _queue(8)
    for t in transactions[:4]:
        queue.push(t)
    queue.note_row(transactions[0].bank_index, transactions[0].coordinate.row)
    before = queue.machines()
    fork = queue.fork()
    assert fork.machines() == before
    fork.remove(transactions[0])
    fork.push(transactions[4])
    fork.note_row(transactions[1].bank_index, 7)
    assert queue.machines() == before
    assert list(queue) == transactions[:4]
