"""Host-side memory requests and transactions.

A host request arrives at the memory controller as a read or write of
``size_bytes`` at a physical address.  The controller's address mapping unit
splits it into one DRAM transaction per access-granularity block (32 B for the
HBM4 baseline, 4 KB for RoMe).
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


@dataclass(eq=False)
class Transaction:
    """One DRAM-granularity piece of a host request.

    Identity semantics (``eq=False``) are intentional: two transactions with
    identical coordinates are still distinct queue entries.

    For the baseline controller a 4 KB host request decomposes into 128
    32-byte transactions; for RoMe it maps to a single row-granularity
    transaction.
    """

    request: MemoryRequest
    coordinate: DramCoordinate
    size_bytes: int
    arrival_ns: int
    served: bool = False
    issue_ns: Optional[int] = None
    data_ready_ns: Optional[int] = None

    @property
    def is_write(self) -> bool:
        return self.request.is_write

    @property
    def is_read(self) -> bool:
        return self.request.is_read


def decompose(request: MemoryRequest, mapping: AddressMapping) -> List[Transaction]:
    """Split ``request`` into per-block transactions using ``mapping``.

    Each call builds fresh :class:`Transaction` queue entries that carry
    the request's kind and arrival time.
    """
    return [
        Transaction(
            request=request,
            coordinate=coordinate,
            size_bytes=mapping.granularity_bytes,
            arrival_ns=request.arrival_ns,
        )
        for coordinate in mapping.decode_range(request.address,
                                               request.size_bytes)
    ]
