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

    #: Time until which the shared BK-BUS (and I/O ctrl buffer) is
    #: occupied: one core-frequency beat (tCCDL) past each column command
    #: (a term of the pseudo channel's column rule; its column issue sets
    #: it).
    bus_busy_until: int = 0

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

    def total_counter(self, name: str) -> int:
        """Sum a named counter across all banks in the group."""
        return sum(getattr(bank.counters, name) for bank in self.banks)
