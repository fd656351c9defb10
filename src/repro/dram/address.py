"""Physical-address to DRAM-coordinate mapping.

The memory controller's address mapping unit translates a host physical
address into (channel, pseudo channel, stack ID, bank group, bank, row,
column).  The mapping order strongly affects channel/bank parallelism, so the
paper sweeps mappings for both the baseline and RoMe and picks the one that
maximizes bandwidth utilization (Section VI-A).  This module provides a
configurable field-order mapping plus the two defaults used in our
experiments.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import List, Tuple

#: Recognized address fields, from least to most significant by default.
FIELDS = ("column", "pseudo_channel", "channel", "bank_group", "bank",
          "stack_id", "row")


@dataclass(frozen=True)
class DramCoordinate:
    """A fully decoded DRAM location."""

    channel: int
    pseudo_channel: int
    stack_id: int
    bank_group: int
    bank: int
    row: int
    column: int

    def as_tuple(self) -> Tuple[int, int, int, int, int, int, int]:
        return (
            self.channel,
            self.pseudo_channel,
            self.stack_id,
            self.bank_group,
            self.bank,
            self.row,
            self.column,
        )


#: :class:`DramCoordinate` fields in constructor order.
_COORDINATE_FIELDS = tuple(field.name for field in fields(DramCoordinate))

#: The geometry attribute that sizes each address field.
_FIELD_SIZES = {
    "column": "columns_per_row",
    "pseudo_channel": "num_pseudo_channels",
    "channel": "num_channels",
    "bank_group": "num_bank_groups",
    "bank": "banks_per_group",
    "stack_id": "num_stack_ids",
    "row": "rows_per_bank",
}


@dataclass(frozen=True)
class AddressMapping:
    """Field-order address mapping at a fixed access granularity.

    ``field_order`` lists address fields from least significant to most
    significant.  The interleaving granularity is ``granularity_bytes``:
    consecutive ``granularity_bytes`` blocks walk through the first field,
    then the second, and so on.

    Example
    -------
    The default baseline mapping interleaves consecutive 32 B blocks across
    pseudo channels and channels first, which is what saturates bandwidth for
    streaming accesses.
    """

    granularity_bytes: int
    num_channels: int
    num_pseudo_channels: int = 2
    num_stack_ids: int = 4
    num_bank_groups: int = 4
    banks_per_group: int = 4
    rows_per_bank: int = 1 << 14
    columns_per_row: int = 32
    #: Default order interleaves bank groups and pseudo channels below the
    #: column bits, which is the bandwidth-maximizing mapping for streaming
    #: accesses (the paper sweeps mappings and picks the best; this is it).
    field_order: Tuple[str, ...] = (
        "bank_group", "pseudo_channel", "column", "channel", "bank",
        "stack_id", "row",
    )

    def __post_init__(self) -> None:
        if set(self.field_order) != set(FIELDS):
            missing = set(FIELDS) - set(self.field_order)
            extra = set(self.field_order) - set(FIELDS)
            raise ValueError(
                f"field_order must be a permutation of {FIELDS}; "
                f"missing={sorted(missing)} extra={sorted(extra)}"
            )
        if self.granularity_bytes <= 0:
            raise ValueError("granularity_bytes must be positive")
        # Derived once per mapping; plain attributes, so they take no part
        # in equality, hashing or the repr.
        object.__setattr__(self, "_sizes", tuple(
            self.field_size(field) for field in self.field_order))
        object.__setattr__(self, "_pick", operator.itemgetter(*(
            self.field_order.index(field) for field in _COORDINATE_FIELDS)))

    # ------------------------------------------------------------ geometry

    def field_size(self, field: str) -> int:
        return getattr(self, _FIELD_SIZES[field])

    @property
    def bytes_per_row_system(self) -> int:
        """Bytes covered before the row field increments."""
        below_row = self._sizes[:self.field_order.index("row")]
        return self.granularity_bytes * math.prod(below_row)

    @property
    def capacity_bytes(self) -> int:
        return self.granularity_bytes * math.prod(self._sizes)

    # ------------------------------------------------------------- mapping

    def _digits(self, address: int) -> List[int]:
        """Field values, in ``field_order``, of the block holding
        ``address``.  An address past :attr:`capacity_bytes` wraps: the
        most significant field keeps only its own digit."""
        if address < 0:
            raise ValueError("address must be non-negative")
        block = address // self.granularity_bytes
        digits = []
        for size in self._sizes:
            block, digit = divmod(block, size)
            digits.append(digit)
        return digits

    def decode(self, address: int) -> DramCoordinate:
        """Decode a byte address into a DRAM coordinate."""
        return DramCoordinate(*self._pick(self._digits(address)))

    def encode(self, coordinate: DramCoordinate) -> int:
        """Inverse of :meth:`decode` (returns the block-aligned byte address)."""
        block = 0
        multiplier = 1
        for field, size in zip(self.field_order, self._sizes):
            value = getattr(coordinate, field)
            if not 0 <= value < size:
                raise ValueError(f"{field}={value} out of range [0, {size})")
            block += value * multiplier
            multiplier *= size
        return block * self.granularity_bytes

    def decode_range(self, address: int, size_bytes: int) -> List[DramCoordinate]:
        """Decode every access-granularity block touched by ``[address, +size)``.

        The first block is decoded once; each following block steps the
        field digits like an odometer, fastest field first, carrying
        upward (and wrapping past the capacity exactly as :meth:`decode`
        does).
        """
        if size_bytes <= 0:
            return []
        digits = self._digits(address)
        granularity = self.granularity_bytes
        count = ((address + size_bytes - 1) // granularity
                 - address // granularity + 1)
        sizes = self._sizes
        pick = self._pick
        coordinates = []
        for _ in range(count):
            coordinates.append(DramCoordinate(*pick(digits)))
            for position, size in enumerate(sizes):
                digits[position] += 1
                if digits[position] < size:
                    break
                digits[position] = 0
        return coordinates

    def channel_of(self, address: int) -> int:
        return self.decode(address).channel


def baseline_hbm4_mapping(num_channels: int = 32) -> AddressMapping:
    """Default 32 B-granularity mapping for the HBM4 baseline.

    Bank groups and pseudo channels are interleaved below the column bits so
    streaming accesses exploit bank-group interleaving (Section II-B).
    """
    return AddressMapping(
        granularity_bytes=32,
        num_channels=num_channels,
        columns_per_row=32,
    )


def rome_mapping(num_channels: int = 36) -> AddressMapping:
    """Default 4 KB-granularity mapping for RoMe.

    RoMe has no pseudo channels, bank groups, or columns at the interface;
    the virtual-bank field plays the role of the bank, and each access covers
    one full 4 KB effective row.
    """
    return AddressMapping(
        granularity_bytes=4096,
        num_channels=num_channels,
        num_pseudo_channels=1,
        num_bank_groups=1,
        banks_per_group=16,     # 16 virtual banks per channel
        columns_per_row=1,
        field_order=(
            "column", "pseudo_channel", "channel", "bank", "bank_group",
            "stack_id", "row",
        ),
    )
