"""Request queues of the conventional memory controller.

The paper notes that both the request queue and the per-bank state logic are
commonly implemented with content-addressable memory (CAM) so ready requests
can be found in one cycle, and that high bandwidth utilization requires a
large queue (HBM4 needs a depth of at least ~45 entries to hide tRC;
Section V-A).  The queue below models that structure functionally: a bounded
buffer with associative lookups by bank and by open row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.controller.request import Transaction


@dataclass
class RequestQueue:
    """A bounded, associatively searchable transaction queue."""

    capacity: int
    _entries: List[Transaction] = field(default_factory=list)
    #: Peak occupancy observed, for area/scheduling-complexity reporting.
    peak_occupancy: int = 0
    total_enqueued: int = 0
    rejected: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def push(self, transaction: Transaction) -> bool:
        """Append ``transaction``; returns False (and counts it) when full."""
        if self.is_full:
            self.rejected += 1
            return False
        self._entries.append(transaction)
        self.total_enqueued += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        return True

    def remove(self, transaction: Transaction) -> None:
        self._entries.remove(transaction)

    def remove_served(self) -> int:
        """Drop every served transaction in one pass; returns the count.

        The controller retires all transactions completed in a cycle with a
        single sweep instead of one O(n) ``remove`` per transaction.
        """
        entries = self._entries
        if not any(t.served for t in entries):
            return 0
        kept = [t for t in entries if not t.served]
        removed = len(entries) - len(kept)
        self._entries = kept
        return removed

    def apply_train(self, survivors: List[Transaction], pushed: int,
                    peak: int, rejected: int = 0) -> None:
        """Bulk equivalent of the per-step ``push``/``remove_served`` churn
        a burst train would have performed.

        ``survivors`` is the post-train entry list in FIFO order (original
        unserved entries followed by unserved refills), ``pushed`` the
        number of refills admitted during the train, ``peak`` the highest
        occupancy the per-step replay would have observed, and ``rejected``
        the failed pushes its full-queue fill attempts would have counted.
        """
        self._entries = survivors
        self.total_enqueued += pushed
        self.peak_occupancy = max(self.peak_occupancy, peak)
        self.rejected += rejected

    # ----------------------------------------------------------- CAM lookups

    def oldest(self) -> Optional[Transaction]:
        return self._entries[0] if self._entries else None

    def oldest_per_bank(self) -> Dict[int, Transaction]:
        """The oldest pending transaction of every bank with pending work,
        keyed by bank index, oldest first."""
        result: Dict[int, Transaction] = {}
        for transaction in self._entries:
            index = transaction.bank_index
            if index not in result:
                result[index] = transaction
        return result

    def row_hit_counts(self, open_rows: Dict[int, int]) -> Dict[int, int]:
        """Per bank in ``open_rows`` (bank index to open row), the number of
        queued transactions that hit that row, in one pass."""
        counts = dict.fromkeys(open_rows, 0)
        for transaction in self._entries:
            index = transaction.bank_index
            if open_rows.get(index) == transaction.coordinate.row:
                counts[index] += 1
        return counts
