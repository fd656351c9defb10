"""A single DRAM bank: its open row and per-bank timing windows.

Section II-D of the paper counts seven bank states a conventional memory
controller must track (Idle, Activating, Active, Precharging, Reading,
Writing, Refreshing).  That control cost is counted in
:mod:`repro.analysis.area` (``num_bank_states``); it is not simulated.  In
the device model every state decides nothing that the open row plus five
timing windows (earliest time each command class may next issue to the
bank) do not: a precharge or refresh raises ``next_act`` to at least the
instant its transient ends, and no controller issues an auto-precharging
CAS (FR-FCFS is open-page), so no row closes by time passing alone.

The windows are the bank's term of a command's ready instant, which
:class:`~repro.dram.pseudochannel.PseudoChannel` states.  The bank
applies the row commands that issue (:meth:`Bank.apply`); a RD or WR only
moves its precharge window and counters, which the pseudo channel's
column issue sets next to the column rule
(:meth:`~repro.dram.pseudochannel.PseudoChannel.issue_column`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.dram.commands import CommandKind
from repro.dram.timing import TimingParameters


@dataclass
class BankCounters:
    """Per-bank event counters used for statistics and energy accounting."""

    activates: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    refreshes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "activates": self.activates,
            "precharges": self.precharges,
            "reads": self.reads,
            "writes": self.writes,
            "refreshes": self.refreshes,
        }


@dataclass
class Bank:
    """One DRAM bank: the open row (``None`` when closed) and its timing
    windows."""

    timing: TimingParameters
    bank_group: int = 0
    bank_id: int = 0
    open_row: Optional[int] = None
    counters: BankCounters = field(default_factory=BankCounters)

    # Earliest times at which each command class may be issued to this bank.
    next_act: int = 0
    next_read: int = 0
    next_write: int = 0
    next_pre: int = 0
    next_refresh: int = 0

    # ------------------------------------------------------------------ apply

    def apply(self, kind: CommandKind, now: int, row: Optional[int] = None) -> None:
        """Apply the row/timing effects of an ACT, PRE or REFpb (``kind``)
        at ``now``.

        Does not validate: the pseudo channel checks each command against
        its ready instant first.  Any other kind raises ``ValueError``: no
        controller issues PREA, REFab or MRS, so the bank does not model
        them.
        """
        t = self.timing
        if kind is CommandKind.ACT:
            assert row is not None, "ACT requires a row"
            self.open_row = row
            self.next_read = max(self.next_read, now + t.tRCDRD)
            self.next_write = max(self.next_write, now + t.tRCDWR)
            self.next_pre = max(self.next_pre, now + t.tRAS)
            self.next_act = max(self.next_act, now + t.tRC)
            self.counters.activates += 1
        elif kind is CommandKind.PRE:
            self.open_row = None
            self.next_act = max(self.next_act, now + t.tRP)
            self.counters.precharges += 1
        elif kind is CommandKind.REFPB:
            self.next_act = max(self.next_act, now + t.tRFCpb)
            self.next_refresh = max(self.next_refresh, now + t.tREFIpb)
            self.counters.refreshes += 1
        else:
            raise ValueError(f"Bank cannot accept command kind {kind.value}")
