"""Bank group: the intermediate hierarchy level introduced for bandwidth.

A bank group shares one I/O control buffer and the bank data bus (BK-BUS)
running at the DRAM core frequency (1 / tCCDL), so column accesses within the
same bank group must be spaced ``tCCDL`` apart while accesses to *different*
bank groups may be spaced ``tCCDS`` apart (bank-group interleaving,
Section II-B of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.dram.bank import Bank
from repro.dram.timing import TimingParameters


@dataclass
class BankGroup:
    """A group of banks sharing the BK-BUS and I/O control buffer."""

    timing: TimingParameters
    bank_group_id: int
    num_banks: int = 4
    banks: List[Bank] = field(default_factory=list)

    # Time until which the shared BK-BUS (and I/O ctrl buffer) is occupied.
    _bus_busy_until: int = 0

    def __post_init__(self) -> None:
        if not self.banks:
            self.banks = [
                Bank(timing=self.timing, bank_group=self.bank_group_id, bank_id=i)
                for i in range(self.num_banks)
            ]
        if len(self.banks) != self.num_banks:
            raise ValueError("banks list does not match num_banks")

    def bank(self, index: int) -> Bank:
        return self.banks[index]

    def bus_free_at(self, now: int) -> bool:
        """True if the BK-BUS can accept a new transfer at ``now``."""
        return now >= self._bus_busy_until

    @property
    def bus_busy_until(self) -> int:
        """Current BK-BUS occupancy horizon (read-only planner snapshot)."""
        return self._bus_busy_until

    def note_cas(self, now: int) -> None:
        """Record a column command at ``now``: it occupies the BK-BUS for
        one core-frequency beat (tCCDL)."""
        busy_until = now + self.timing.tCCDL
        if busy_until > self._bus_busy_until:
            self._bus_busy_until = busy_until

    def next_event_ns(self, now: int) -> "int | None":
        """Earliest future instant the group's issueability can change."""
        best = self._bus_busy_until if self._bus_busy_until > now else None
        for bank in self.banks:
            candidate = bank.next_event_ns(now)
            if candidate is not None and (best is None or candidate < best):
                best = candidate
        return best

    def total_counter(self, name: str) -> int:
        """Sum a named counter across all banks in the group."""
        return sum(getattr(bank.counters, name) for bank in self.banks)
