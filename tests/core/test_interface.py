"""Tests for the row-granularity request interface."""

import pytest

from repro.core.interface import (
    RowRequest,
    RowRequestKind,
    requests_for_transfer,
    round_robin_by_channel,
)


def test_request_kind_predicates():
    read = RowRequest(kind=RowRequestKind.RD_ROW)
    write = RowRequest(kind=RowRequestKind.WR_ROW)
    assert read.is_read and not read.is_write
    assert write.is_write and not write.is_read


def test_latency_and_overfetch():
    request = RowRequest(kind=RowRequestKind.RD_ROW, valid_bytes=1024, arrival_ns=5)
    assert request.latency() is None
    request.completion_ns = 105
    assert request.latency() == 100
    assert request.overfetch_bytes(4096) == 3072
    assert request.overfetch_bytes(1024) == 0


def test_requests_for_transfer_covers_all_bytes():
    requests = requests_for_transfer(
        10 * 4096 + 100,
        kind=RowRequestKind.RD_ROW,
        effective_row_bytes=4096,
        num_channels=4,
        vbas_per_channel=8,
    )
    assert len(requests) == 11
    assert sum(r.valid_bytes for r in requests) == 10 * 4096 + 100
    assert requests[-1].valid_bytes == 100


def test_requests_for_transfer_stripes_channels_first():
    requests = requests_for_transfer(
        8 * 4096,
        kind=RowRequestKind.RD_ROW,
        effective_row_bytes=4096,
        num_channels=4,
        vbas_per_channel=8,
    )
    assert [r.channel for r in requests[:4]] == [0, 1, 2, 3]
    assert [r.vba for r in requests[:4]] == [0, 0, 0, 0]
    assert [r.vba for r in requests[4:8]] == [1, 1, 1, 1]


def test_requests_for_transfer_increments_rows_after_vbas():
    requests = requests_for_transfer(
        (2 * 8 + 1) * 4096,
        kind=RowRequestKind.WR_ROW,
        effective_row_bytes=4096,
        num_channels=2,
        vbas_per_channel=8,
    )
    assert requests[-1].row == 1


def test_requests_for_transfer_rejects_capacity_overflow():
    with pytest.raises(ValueError, match="capacity"):
        requests_for_transfer(
            8 * 4096,
            kind=RowRequestKind.RD_ROW,
            effective_row_bytes=4096,
            num_channels=1,
            vbas_per_channel=1,
            rows_per_vba=2,
        )


@pytest.mark.parametrize("total_bytes", [0, -4096])
def test_requests_for_transfer_empty_for_zero_bytes(total_bytes):
    assert requests_for_transfer(
        total_bytes, RowRequestKind.RD_ROW, 4096, num_channels=1,
        vbas_per_channel=1
    ) == []


def test_round_robin_by_channel_buckets_requests():
    requests = requests_for_transfer(
        6 * 4096,
        kind=RowRequestKind.RD_ROW,
        effective_row_bytes=4096,
        num_channels=3,
        vbas_per_channel=4,
    )
    buckets = list(round_robin_by_channel(requests, 3))
    assert len(buckets) == 3
    assert all(len(bucket) == 2 for bucket in buckets)


LAYOUT = dict(effective_row_bytes=4096, num_channels=2, vbas_per_channel=4)


def test_requests_for_transfer_builds_fresh_requests_on_every_call():
    first = requests_for_transfer(64 * 1024, kind=RowRequestKind.RD_ROW,
                                  **LAYOUT)
    first[0].completion_ns = 99
    second = requests_for_transfer(64 * 1024, kind=RowRequestKind.RD_ROW,
                                   **LAYOUT)
    assert [(r.channel, r.vba, r.row, r.valid_bytes) for r in first] \
        == [(r.channel, r.vba, r.row, r.valid_bytes) for r in second]
    assert len({r.request_id for r in first + second}) == 2 * len(first)
    assert all(r.completion_ns is None and r.issue_ns is None
               for r in second)


@pytest.mark.parametrize("kind", list(RowRequestKind))
def test_requests_for_transfer_applies_kind_and_arrival(kind):
    requests = requests_for_transfer(5 * 4096, kind=kind, arrival_ns=17,
                                     **LAYOUT)
    assert len(requests) == 5
    assert all(r.kind is kind and r.arrival_ns == 17 for r in requests)


def test_capacity_overflow_builds_no_request():
    before = RowRequest(kind=RowRequestKind.RD_ROW).request_id
    with pytest.raises(ValueError, match="capacity"):
        requests_for_transfer(64 * 1024, kind=RowRequestKind.RD_ROW,
                              effective_row_bytes=4096, num_channels=1,
                              vbas_per_channel=1, rows_per_vba=2)
    assert RowRequest(kind=RowRequestKind.RD_ROW).request_id == before + 1
