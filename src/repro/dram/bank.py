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

    # -------------------------------------------------------------- can_issue

    def can_issue_column(self, row: Optional[int], is_read: bool,
                         now: int) -> bool:
        """Check the open row and timing window for a RD (``is_read``) or
        WR to ``row`` at ``now``; ``row=None`` accepts whichever row is
        open.

        The single per-bank column rule: :meth:`can_issue` delegates RD and
        WR to it, and :meth:`issue_column` validates with it.
        """
        open_row = self.open_row
        if open_row is None or (row is not None and row != open_row):
            return False
        return now >= (self.next_read if is_read else self.next_write)

    def can_issue(self, kind: CommandKind, now: int, row: Optional[int] = None) -> bool:
        """Check the open row and timing windows for issuing ``kind`` at
        ``now``.

        ACT and REFpb need a closed bank, PRE an open one.  Cross-bank
        constraints (tRRD, tFAW, tCCD, bus turnaround) are checked by the
        pseudo channel, not here.  Any other kind raises ``ValueError``: no
        controller issues PREA, REFab, MRS or an auto-precharging CAS, so
        the bank does not model them.
        """
        if kind is CommandKind.RD or kind is CommandKind.WR:
            return self.can_issue_column(row, kind is CommandKind.RD, now)
        if kind is CommandKind.ACT:
            return self.open_row is None and now >= self.next_act
        if kind is CommandKind.PRE:
            return self.open_row is not None and now >= self.next_pre
        if kind is CommandKind.REFPB:
            return self.open_row is None and now >= self.next_act \
                and now >= self.next_refresh
        raise ValueError(f"Bank cannot accept command kind {kind}")

    # ------------------------------------------------------------------ issue

    def issue(self, kind: CommandKind, now: int, row: Optional[int] = None) -> None:
        """Validate ``kind`` at ``now`` with :meth:`can_issue`, then
        :meth:`apply` it (column kinds: :meth:`issue_column`).

        An illegal command raises ``RuntimeError`` so that scheduler bugs
        surface immediately.
        """
        if kind.is_column:
            self.issue_column(kind, row, now)
            return
        if not self.can_issue(kind, now, row):
            raise RuntimeError(
                f"illegal {kind.value} to bg{self.bank_group}.ba{self.bank_id} "
                f"at t={now} (open row {self.open_row})"
            )
        self.apply(kind, now, row)

    def apply(self, kind: CommandKind, now: int, row: Optional[int] = None) -> None:
        """Apply the row/timing effects of issuing ``kind`` at ``now``.

        Does not validate: for callers that have just checked the command
        with :meth:`can_issue` (the pseudo channel validates each row and
        refresh command once, its bank included).  Column commands are
        validated and applied in one call, :meth:`issue_column`.
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
            raise ValueError(f"Bank cannot accept command kind {kind}")

    def issue_column(self, kind: CommandKind, row: Optional[int],
                     now: int) -> None:
        """Issue a RD or WR (``kind``) to ``row`` at ``now``.

        The bank's one column path, validate-and-apply: the command is
        checked with :meth:`can_issue_column` and ``RuntimeError`` is
        raised before any state changes if it may not issue.  The pseudo
        channel delegates to it after its own cross-bank checks.  RDA and
        WRA raise ``ValueError``: no controller issues an auto-precharging
        CAS, so the bank does not model one.
        """
        if kind is CommandKind.RD:
            is_read = True
        elif kind is CommandKind.WR:
            is_read = False
        else:
            raise ValueError(
                f"Bank.issue_column takes RD or WR, not {kind.value}: "
                f"auto-precharging CAS is not modeled")
        if not self.can_issue_column(row, is_read, now):
            raise RuntimeError(
                f"illegal {kind.value} to bg{self.bank_group}.ba{self.bank_id}"
                f".r{row} at t={now}: the bank cannot issue it "
                f"(open row {self.open_row})"
            )
        timing = self.timing
        # Read-to-precharge, or write recovery after the write data.
        recovery = now + timing.tRTP if is_read \
            else now + timing.tCWL + timing.burst_ns + timing.tWR
        if recovery > self.next_pre:
            self.next_pre = recovery
        if is_read:
            self.counters.reads += 1
        else:
            self.counters.writes += 1
