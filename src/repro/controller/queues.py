"""Request queues of the conventional memory controller.

The paper notes that both the request queue and the per-bank state logic are
commonly implemented with content-addressable memory (CAM) so ready requests
can be found in one cycle, and that high bandwidth utilization requires a
large queue (HBM4 needs a depth of at least ~45 entries to hide tRC;
Section V-A).  The queue below models that structure functionally: a bounded
buffer that keeps its entries sorted into live bank machines, as
gram/LiteDRAM does.

Bank machines
-------------
Every entry gets an admission sequence number when it is pushed.  Per flat
bank index (``Transaction.bank_index``) the queue keeps a FIFO of its pending
entries in admission order and the count of those that hit the bank's open
row.  Across banks it keeps, in admission order, the *hit heads* (each
bank's oldest pending hit) and the *miss heads* (each bank's oldest pending
entry, when that entry misses the open row).  These machines live across
scheduler evaluations: they change on :meth:`RequestQueue.push`, on
:meth:`RequestQueue.remove`, and on every ACT and PRE the controller issues
(:meth:`RequestQueue.note_row`).  FR-FCFS issues no auto-precharging CAS, so
a bank's open row changes only by command.  A column pick walks the hit
heads and a row pick walks the miss heads, both in the per-instant
scheduler (``FrFcfsScheduler.pick_column``/``pick_row``) and in the event
core's decision loop (``FrFcfsScheduler.plan_train``), which reads the
readiness of exactly these heads to find the next instant worth
evaluating.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.controller.request import Transaction


class RequestQueue:
    """A bounded transaction queue, indexed by bank.

    ``num_banks`` is the number of flat bank indices its transactions may
    carry (the length of ``Channel.banks``).  The controller keeps reads
    and writes in separate queues, and the schedulers rely on it: every
    entry of a queue has the same direction, so one head per bank stands
    for all of that bank's pending hits.

    ``entries`` maps admission numbers to pending transactions, oldest
    first; ``hit_heads`` and ``miss_heads`` hold admission numbers in
    ascending order.  All three are read-only outside this class.
    """

    __slots__ = ("capacity", "peak_occupancy", "entries",
                 "hit_heads", "miss_heads", "_next_seq", "_open_rows",
                 "_fifos", "_hit_counts", "_first_hits", "_first_misses")

    def __init__(self, capacity: int, num_banks: int) -> None:
        self.capacity = capacity
        #: Peak occupancy observed, for area/scheduling-complexity reporting.
        self.peak_occupancy = 0
        self.entries: Dict[int, Transaction] = {}
        self.hit_heads: List[int] = []
        self.miss_heads: List[int] = []
        self._next_seq = 0
        self._open_rows: List[Optional[int]] = [None] * num_banks
        self._fifos: List[Deque[int]] = [deque() for _ in range(num_banks)]
        self._hit_counts = [0] * num_banks
        # Per bank: its entry in hit_heads / miss_heads, if any.
        self._first_hits: List[Optional[int]] = [None] * num_banks
        self._first_misses: List[Optional[int]] = [None] * num_banks

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.entries.values())

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def occupancy(self) -> int:
        return len(self.entries)

    def oldest(self) -> Optional[Transaction]:
        return next(iter(self.entries.values()), None)

    # -------------------------------------------------------- bank machines

    def open_row(self, index: int) -> Optional[int]:
        """The row bank ``index`` holds open, as last noted."""
        return self._open_rows[index]

    def hit_count(self, index: int) -> int:
        """How many pending entries of bank ``index`` hit its open row."""
        return self._hit_counts[index]

    def machines(self) -> Tuple:
        """The bank machines as plain data, in transactions: per bank its
        open row, pending FIFO, hit count, oldest hit and oldest entry if
        a miss; then the hit heads and the miss heads.  Two queues holding
        the same entries in the same order, with the same open rows, have
        equal machines."""
        entries = self.entries

        def txn(seq: Optional[int]) -> Optional[Transaction]:
            return None if seq is None else entries[seq]

        return (
            tuple(self._open_rows),
            tuple(tuple(entries[seq] for seq in fifo) for fifo in self._fifos),
            tuple(self._hit_counts),
            tuple(txn(seq) for seq in self._first_hits),
            tuple(txn(seq) for seq in self._first_misses),
            tuple(entries[seq] for seq in self.hit_heads),
            tuple(entries[seq] for seq in self.miss_heads),
        )

    def _update_heads(self, index: int) -> None:
        """Re-place bank ``index``'s oldest hit and oldest-entry miss in the
        head lists after its FIFO or its open row changed."""
        fifo = self._fifos[index]
        first_hit = None
        if self._hit_counts[index]:
            entries, open_row = self.entries, self._open_rows[index]
            for seq in fifo:
                if entries[seq].coordinate.row == open_row:
                    first_hit = seq
                    break
        old = self._first_hits[index]
        if old != first_hit:
            heads = self.hit_heads
            if old is not None:
                del heads[bisect_left(heads, old)]
            if first_hit is not None:
                insort(heads, first_hit)
            self._first_hits[index] = first_hit
        # The oldest entry is a miss exactly when it is not the oldest hit.
        first_miss = fifo[0] if fifo and fifo[0] != first_hit else None
        old = self._first_misses[index]
        if old != first_miss:
            heads = self.miss_heads
            if old is not None:
                del heads[bisect_left(heads, old)]
            if first_miss is not None:
                insort(heads, first_miss)
            self._first_misses[index] = first_miss

    def push(self, transaction: Transaction) -> bool:
        """Admit ``transaction``; returns False when the queue is full."""
        entries = self.entries
        if len(entries) >= self.capacity:
            return False
        seq = self._next_seq
        self._next_seq = seq + 1
        entries[seq] = transaction
        if len(entries) > self.peak_occupancy:
            self.peak_occupancy = len(entries)
        index = transaction.bank_index
        fifo = self._fifos[index]
        fifo.append(seq)
        # The newest entry sorts last, so the head lists stay ascending.
        if transaction.coordinate.row == self._open_rows[index]:
            self._hit_counts[index] += 1
            if self._first_hits[index] is None:
                self._first_hits[index] = seq
                self.hit_heads.append(seq)
        elif len(fifo) == 1:
            self._first_misses[index] = seq
            self.miss_heads.append(seq)
        return True

    def remove(self, transaction: Transaction) -> None:
        """Drop a pending ``transaction`` (the controller removes each one
        as it issues its column command)."""
        index = transaction.bank_index
        fifo = self._fifos[index]
        entries = self.entries
        if fifo and entries[fifo[0]] is transaction:
            seq = fifo.popleft()
        else:
            for seq in fifo:
                if entries[seq] is transaction:
                    break
            else:
                raise ValueError("transaction is not pending in this queue")
            fifo.remove(seq)
        del entries[seq]
        if transaction.coordinate.row == self._open_rows[index]:
            self._hit_counts[index] -= 1
        self._update_heads(index)

    def note_row(self, index: int, row: Optional[int]) -> None:
        """Bank ``index`` now holds ``row`` open (``None``: closed)."""
        self._open_rows[index] = row
        count = 0
        if row is not None:
            entries = self.entries
            for seq in self._fifos[index]:
                if entries[seq].coordinate.row == row:
                    count += 1
        self._hit_counts[index] = count
        self._update_heads(index)
