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

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Sequence, Tuple

#: Recognized address fields, from least to most significant by default.
FIELDS = ("column", "pseudo_channel", "channel", "bank_group", "bank",
          "stack_id", "row")


class DramCoordinate(NamedTuple):
    """A fully decoded DRAM location (immutable; ``_replace`` derives a
    changed copy)."""

    channel: int
    pseudo_channel: int
    stack_id: int
    bank_group: int
    bank: int
    row: int
    column: int

    def as_tuple(self) -> Tuple[int, int, int, int, int, int, int]:
        return tuple(self)


def flat_bank_index(pseudo_channel: int, stack_id: int, bank_group: int,
                    bank: int, num_stack_ids: int, num_bank_groups: int,
                    banks_per_group: int) -> int:
    """Flat index of a bank within its channel: pseudo channel, stack ID,
    bank group and bank, most significant first (the order of
    :attr:`repro.dram.channel.Channel.banks`)."""
    return ((pseudo_channel * num_stack_ids + stack_id) * num_bank_groups
            + bank_group) * banks_per_group + bank


#: :class:`DramCoordinate` fields in constructor order.
_COORDINATE_FIELDS = DramCoordinate._fields

#: Builds a :class:`DramCoordinate` from one tuple of its fields (what the
#: namedtuple's own ``__new__`` calls, without its Python frame).
_new_tuple = tuple.__new__

#: Most blocks one period of a mapping's fastest fields may span in the
#: range decoder's table (:func:`_low_period`).
_LOW_PERIOD_LIMIT = 4096

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
        # Each field's weight in the flat bank index, which is linear in
        # the bank fields (0 off them), in ``field_order``.
        units = {"pseudo_channel": (1, 0, 0, 0), "stack_id": (0, 1, 0, 0),
                 "bank_group": (0, 0, 1, 0), "bank": (0, 0, 0, 1)}
        geometry = (self.num_stack_ids, self.num_bank_groups,
                    self.banks_per_group)
        object.__setattr__(self, "_bank_weights", tuple(
            flat_bank_index(*units[field], *geometry) if field in units
            else 0 for field in self.field_order))

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

        Equal, block for block, to :meth:`decode` of each block's address
        (wrapping past the capacity exactly as it does), and built a chunk
        at a time (:meth:`range_chunks`).
        """
        return list(itertools.chain.from_iterable(
            coordinates for coordinates, _ in self.range_chunks(
                address, size_bytes)))

    def block_span(self, address: int, size_bytes: int) -> Tuple[int, int]:
        """The first block number (``address // granularity_bytes``) and
        the number of blocks ``[address, +size)`` touches; no blocks when
        ``size_bytes <= 0``."""
        if size_bytes <= 0:
            return 0, 0
        if address < 0:
            raise ValueError("address must be non-negative")
        granularity = self.granularity_bytes
        first = address // granularity
        return first, (address + size_bytes - 1) // granularity - first + 1

    def range_chunks(self, address: int, size_bytes: int
                     ) -> Iterator[Tuple[Iterator[DramCoordinate],
                                         Iterator[int]]]:
        """Decode ``[address, +size)`` a chunk of blocks at a time.

        Yields, per chunk in address order, an iterator over the chunk's
        coordinates (those of :meth:`decode_range`) and one over their flat
        bank indices (:meth:`bank_index`).  A chunk is the blocks that
        share the digits of the slow fields: a run of one period of the
        fastest fields, whose digit tuples and bank-index terms are tabled
        once per geometry (:func:`_low_period`).  Each coordinate is that
        table's tuple joined to the chunk's slow digits, each bank index
        the two terms' sum, both built by ``map`` chains without a Python
        call per block.  The slow digits wrap past the capacity as
        :meth:`decode` wraps.
        """
        first, count = self.block_span(address, size_bytes)
        sizes, weights = self._sizes, self._bank_weights
        low, digits, terms = _low_period(sizes, weights)
        high_sizes, high_weights = sizes[low:], weights[low:]
        period = len(digits)
        high, start = divmod(first, period)
        pick, add = self._pick, operator.add
        coordinate_type = itertools.repeat(DramCoordinate)
        while count:
            end = min(period, start + count)
            rest, high_digits = high, []
            for size in high_sizes:
                rest, digit = divmod(rest, size)
                high_digits.append(digit)
            high_digits = tuple(high_digits)
            high_term = sum(map(operator.mul, high_digits, high_weights))
            yield (map(_new_tuple, coordinate_type, map(pick, map(
                       add, digits[start:end],
                       itertools.repeat(high_digits)))),
                   map(add, terms[start:end], itertools.repeat(high_term)))
            count -= end - start
            start = 0
            high += 1

    def bank_index(self, coordinate: DramCoordinate) -> int:
        """Flat index of ``coordinate``'s bank within its channel (see
        :func:`flat_bank_index`)."""
        return flat_bank_index(
            coordinate.pseudo_channel, coordinate.stack_id,
            coordinate.bank_group, coordinate.bank, self.num_stack_ids,
            self.num_bank_groups, self.banks_per_group)

    def channel_of(self, address: int) -> int:
        return self.decode(address).channel


@functools.lru_cache(maxsize=64)
def _low_period(sizes: Sequence[int], weights: Sequence[int]
                ) -> Tuple[int, Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """The range decoder's table for fields of ``sizes`` and bank-index
    ``weights``, both in ``field_order``.

    Returns the number of fastest fields whose joint period spans at most
    ``_LOW_PERIOD_LIMIT`` blocks; their digit tuples over one period, in
    odometer order (the first field fastest); and each tuple's term of the
    flat bank index.  Mappings of one geometry share it.
    """
    low, period = 0, 1
    while low < len(sizes) and period * sizes[low] <= _LOW_PERIOD_LIMIT:
        period *= sizes[low]
        low += 1
    # ``product`` steps its last factor fastest, so the fields go in
    # reversed and each tuple comes out reversed back.
    digits = tuple(combination[::-1] for combination in itertools.product(
        *map(range, reversed(sizes[:low]))))
    terms = tuple(sum(map(operator.mul, combination, weights))
                  for combination in digits)
    return low, digits, terms


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
