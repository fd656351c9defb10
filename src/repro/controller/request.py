"""Host-side memory requests, request cursors and transactions.

A host request arrives at the memory controller as a read or write of
``size_bytes`` at a physical address.  The controller's address mapping unit
splits it into one DRAM transaction per access-granularity block (32 B for the
HBM4 baseline, 4 KB for RoMe).

The conventional controller does not split a request on arrival: it keeps a
:class:`RequestCursor` (the request, its direction, its next block and its
end block) and builds the transactions of the next window of blocks with
:func:`decompose` only as its queues are about to take them.  A multi-KB
transfer therefore holds Python objects for at most one window of blocks
beyond the queues, not for every 32 B block it still has to move.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.dram.address import AddressMapping, DramCoordinate

_request_ids = itertools.count()


class RequestKind(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass
class MemoryRequest:
    """A host-visible memory request (before address decomposition)."""

    kind: RequestKind
    address: int
    size_bytes: int
    arrival_ns: int = 0
    request_id: int = field(default_factory=lambda: next(_request_ids))
    #: Completion time filled in by the controller (None while in flight).
    completion_ns: Optional[int] = None
    #: RAS command-replay generation: 0 for demand requests, n for the
    #: n-th retry of a detected-uncorrectable read (repro.reliability.ras).
    retry_attempt: int = 0

    @property
    def is_write(self) -> bool:
        return self.kind is RequestKind.WRITE

    @property
    def is_read(self) -> bool:
        return self.kind is RequestKind.READ

    def latency(self) -> Optional[int]:
        if self.completion_ns is None:
            return None
        return self.completion_ns - self.arrival_ns


@dataclass(eq=False, slots=True)
class Transaction:
    """One DRAM-granularity piece of a host request.

    Identity semantics (``eq=False``) are intentional: two transactions with
    identical coordinates are still distinct queue entries.

    For the baseline controller a 4 KB host request decomposes into 128
    32-byte transactions, built a window at a time (:func:`decompose`).

    ``is_read`` and ``bank_index`` (the flat index of the target bank,
    :meth:`AddressMapping.bank_index`) are set at construction, so the
    scheduler reads plain slots on its hot path.  Code that changes
    ``coordinate`` recomputes ``bank_index`` with the same method.
    """

    request: MemoryRequest
    coordinate: DramCoordinate
    size_bytes: int
    arrival_ns: int
    is_read: bool
    bank_index: int

    @property
    def is_write(self) -> bool:
        return not self.is_read


@dataclass(eq=False, slots=True)
class RequestCursor:
    """The blocks of a request whose transactions are not built yet.

    Plain data, so a checkpoint pickles it as it is: the ``request``, its
    direction (``is_read``, read where a queue is chosen for the next
    admission), and the block numbers (``address // granularity_bytes``)
    of its next unbuilt block and of the block past its last one.
    """

    request: MemoryRequest
    is_read: bool
    next_block: int
    end_block: int


def decompose(request: MemoryRequest, mapping: AddressMapping,
              first: Optional[int] = None,
              count: Optional[int] = None) -> List[Transaction]:
    """Build the transactions of ``count`` blocks of ``request`` from
    block number ``first`` on; by default, of every block it touches
    (:meth:`AddressMapping.block_span`).

    Each call builds fresh :class:`Transaction` queue entries that carry
    the request's kind and arrival time, a chunk of blocks at a time
    (:meth:`AddressMapping.range_chunks`).
    """
    if first is None:
        first, count = mapping.block_span(request.address,
                                          request.size_bytes)
    granularity = mapping.granularity_bytes
    repeat = itertools.repeat
    owner, size_bytes = repeat(request), repeat(granularity)
    arrival_ns, is_read = repeat(request.arrival_ns), repeat(request.is_read)
    transactions: List[Transaction] = []
    for coordinates, bank_indices in mapping.range_chunks(
            first * granularity, count * granularity):
        transactions.extend(map(Transaction, owner, coordinates, size_bytes,
                                arrival_ns, is_read, bank_indices))
    return transactions
