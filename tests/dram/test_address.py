"""Tests for the address-mapping unit."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.address import (
    FIELDS,
    AddressMapping,
    DramCoordinate,
    baseline_hbm4_mapping,
    rome_mapping,
)


def test_decode_encode_round_trip_small_addresses():
    mapping = baseline_hbm4_mapping(num_channels=4)
    for block in range(0, 4096, 7):
        address = block * mapping.granularity_bytes
        coord = mapping.decode(address)
        assert mapping.encode(coord) == address


def test_decode_rejects_negative_address():
    mapping = baseline_hbm4_mapping()
    with pytest.raises(ValueError):
        mapping.decode(-32)


def test_encode_rejects_out_of_range_fields():
    mapping = baseline_hbm4_mapping(num_channels=2)
    bad = DramCoordinate(channel=5, pseudo_channel=0, stack_id=0,
                         bank_group=0, bank=0, row=0, column=0)
    with pytest.raises(ValueError, match="channel"):
        mapping.encode(bad)


def test_field_order_must_be_permutation():
    with pytest.raises(ValueError, match="permutation"):
        AddressMapping(
            granularity_bytes=32,
            num_channels=2,
            field_order=("column", "row", "bank", "bank", "bank_group",
                         "stack_id", "pseudo_channel"),
        )


def test_sequential_blocks_interleave_bank_groups_first():
    mapping = baseline_hbm4_mapping(num_channels=1)
    coords = [mapping.decode(i * 32) for i in range(8)]
    assert [c.bank_group for c in coords[:4]] == [0, 1, 2, 3]
    assert coords[4].pseudo_channel == 1


def test_decode_range_covers_every_block():
    mapping = baseline_hbm4_mapping(num_channels=2)
    coords = mapping.decode_range(address=100, size_bytes=200)
    # 100..300 spans blocks starting at 96, 128, ..., 288 -> 7 blocks.
    assert len(coords) == 7


@pytest.mark.parametrize("address, size_bytes", [(0, 0), (0, -1),
                                                 (100, -4096), (-32, 0)])
def test_decode_range_empty_for_non_positive_size(address, size_bytes):
    # A non-positive size wins over the negative-address check.
    mapping = baseline_hbm4_mapping()
    assert mapping.decode_range(address, size_bytes) == []


def test_rome_mapping_uses_4kb_granularity_and_no_pc():
    mapping = rome_mapping(num_channels=36)
    assert mapping.granularity_bytes == 4096
    coord = mapping.decode(4096 * 5)
    assert coord.pseudo_channel == 0
    assert coord.channel == 5


def test_channel_of_matches_decode():
    mapping = baseline_hbm4_mapping(num_channels=8)
    for address in (0, 32, 64, 4096, 123456 * 32):
        assert mapping.channel_of(address) == mapping.decode(address).channel


def test_capacity_accounts_all_fields():
    mapping = AddressMapping(granularity_bytes=32, num_channels=2,
                             num_stack_ids=1, rows_per_bank=4)
    expected = 32 * 32 * 2 * 2 * 4 * 4 * 1 * 4
    assert mapping.capacity_bytes == expected


# ------------------------------------------------------------- range decode


@st.composite
def _small_mappings(draw):
    """Small geometries (so ranges wrap) with any field order."""
    size = st.integers(min_value=1, max_value=3)
    return AddressMapping(
        granularity_bytes=draw(st.sampled_from([1, 32, 4096])),
        num_channels=draw(size),
        num_pseudo_channels=draw(size),
        num_stack_ids=draw(size),
        num_bank_groups=draw(size),
        banks_per_group=draw(size),
        rows_per_bank=draw(size),
        columns_per_row=draw(size),
        field_order=tuple(draw(st.permutations(FIELDS))),
    )


def _per_block_decode(mapping, address, size_bytes):
    granularity = mapping.granularity_bytes
    return [mapping.decode(block * granularity) for block in range(
        address // granularity, (address + size_bytes - 1) // granularity + 1)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decode_range_matches_per_block_decode(data):
    mapping = data.draw(_small_mappings())
    # Unaligned starts and sizes, up to three capacities past the origin.
    span = 3 * mapping.capacity_bytes
    address = data.draw(st.integers(min_value=0, max_value=span))
    size_bytes = data.draw(st.integers(min_value=1, max_value=span))
    assert mapping.decode_range(address, size_bytes) \
        == _per_block_decode(mapping, address, size_bytes)


@pytest.mark.parametrize("mapping", [baseline_hbm4_mapping(num_channels=2),
                                     rome_mapping(num_channels=36)],
                         ids=["baseline", "rome"])
@settings(max_examples=25, deadline=None)
@given(address=st.integers(min_value=0, max_value=1 << 40),
       size_bytes=st.integers(min_value=1, max_value=96 * 1024))
def test_decode_range_matches_decode_on_default_mappings(mapping, address,
                                                         size_bytes):
    assert mapping.decode_range(address, size_bytes) \
        == _per_block_decode(mapping, address, size_bytes)


def test_decode_range_wraps_past_capacity_like_decode():
    mapping = AddressMapping(granularity_bytes=32, num_channels=2,
                             num_stack_ids=1, rows_per_bank=2)
    last = mapping.capacity_bytes - 32
    assert mapping.decode_range(last, 64) == [mapping.decode(last),
                                              mapping.decode(0)]
    assert mapping.decode(mapping.capacity_bytes) == mapping.decode(0)


@st.composite
def chunked_mappings(draw):
    """Geometries whose fastest fields span more blocks than the range
    decoder tables (4,096), with any field order and granularity."""
    size = st.sampled_from([1, 2, 3, 4, 8, 16, 64])
    return AddressMapping(
        granularity_bytes=draw(st.sampled_from([1, 32, 96, 4096])),
        num_channels=draw(size),
        num_pseudo_channels=draw(size),
        num_stack_ids=draw(size),
        num_bank_groups=draw(size),
        banks_per_group=draw(size),
        rows_per_bank=draw(size),
        columns_per_row=draw(size),
        field_order=tuple(draw(st.permutations(FIELDS))),
    )


@st.composite
def ranges_near_the_wrap(draw, mapping):
    """An unaligned ``(address, size_bytes)`` that starts anywhere in the
    first two capacities or just below a capacity multiple, and spans up
    to a few thousand blocks."""
    granularity, capacity = mapping.granularity_bytes, mapping.capacity_bytes
    reach = 5000 * granularity
    address = draw(st.one_of(
        st.integers(min_value=0, max_value=2 * capacity),
        st.builds(lambda multiple, back: max(0, multiple * capacity - back),
                  st.integers(min_value=1, max_value=3),
                  st.integers(min_value=1, max_value=reach))))
    return address, draw(st.integers(min_value=1, max_value=reach))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_range_chunks_match_per_block_decode_and_bank_index(data):
    mapping = data.draw(chunked_mappings())
    address, size_bytes = data.draw(ranges_near_the_wrap(mapping))
    coordinates = []
    for chunk_coordinates, chunk_bank_indices in mapping.range_chunks(
            address, size_bytes):
        chunk_coordinates = list(chunk_coordinates)
        assert list(chunk_bank_indices) == [
            mapping.bank_index(coord) for coord in chunk_coordinates]
        coordinates.extend(chunk_coordinates)
    assert coordinates == _per_block_decode(mapping, address, size_bytes)
    assert all(type(coord) is DramCoordinate for coord in coordinates)


@pytest.mark.parametrize("address, size_bytes", [(-32, 32), (-1, 64)])
def test_negative_address_raises(address, size_bytes):
    mapping = baseline_hbm4_mapping()
    with pytest.raises(ValueError, match="non-negative"):
        mapping.decode_range(address, size_bytes)


def test_derived_geometry_stays_out_of_equality_and_survives_copies():
    mapping = baseline_hbm4_mapping(num_channels=4)
    twin = baseline_hbm4_mapping(num_channels=4)
    assert mapping == twin and hash(mapping) == hash(twin)
    assert "_sizes" not in repr(mapping)
    assert pickle.loads(pickle.dumps(mapping)).decode_range(4096, 256) \
        == mapping.decode_range(4096, 256)
    wider = dataclasses.replace(mapping, num_channels=8)
    assert wider.capacity_bytes == 2 * mapping.capacity_bytes
    assert {wider.decode(block * 32).channel for block in range(4096)} \
        == set(range(8))
