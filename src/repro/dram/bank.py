"""A single DRAM bank and its finite-state machine.

The conventional memory controller must track seven bank states (Section II-D):
Idle, Activating, Active, Precharging, Reading, Writing, and Refreshing.  The
bank object below owns that state machine plus the per-bank timing windows
(earliest time each command kind may next be issued to this bank).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.dram.commands import CommandKind
from repro.dram.timing import TimingParameters


class BankState(enum.Enum):
    """The seven conventional bank states."""

    IDLE = "idle"
    ACTIVATING = "activating"
    ACTIVE = "active"
    READING = "reading"
    WRITING = "writing"
    PRECHARGING = "precharging"
    REFRESHING = "refreshing"


def column_precharge_ready(timing: TimingParameters, is_read: bool,
                           now: int) -> int:
    """Earliest precharge instant implied by a column command at ``now``
    (read-to-precharge vs write-recovery).

    Pure helper shared by :meth:`Bank.issue_column` and the burst-train
    planner so the recovery rule cannot drift between the live and modeled
    paths.
    """
    if is_read:
        return now + timing.tRTP
    return now + timing.tCWL + timing.burst_ns + timing.tWR


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
    """One DRAM bank with timing windows and the seven-state FSM."""

    timing: TimingParameters
    bank_group: int = 0
    bank_id: int = 0
    state: BankState = BankState.IDLE
    open_row: Optional[int] = None
    counters: BankCounters = field(default_factory=BankCounters)

    # Earliest times at which each command class may be issued to this bank.
    next_act: int = 0
    next_read: int = 0
    next_write: int = 0
    next_pre: int = 0
    next_refresh: int = 0

    # Time at which the current transient state (activating / reading /
    # writing / precharging / refreshing) resolves.
    _state_until: int = 0
    # Pending auto-precharge completion time (RDA/WRA), if any.
    _auto_precharge_at: Optional[int] = None

    # ------------------------------------------------------------------ state

    def tick(self, now: int) -> None:
        """Resolve transient states whose duration has elapsed at ``now``."""
        if self._auto_precharge_at is not None and now >= self._auto_precharge_at:
            # The in-flight auto-precharge has started; model it as an
            # explicit precharge that began at its scheduled time.
            start = self._auto_precharge_at
            self._auto_precharge_at = None
            self.open_row = None
            self.state = BankState.PRECHARGING
            self._state_until = start + self.timing.tRP
            self.next_act = max(self.next_act, start + self.timing.tRP)
        if now < self._state_until:
            return
        if self.state is BankState.ACTIVATING:
            self.state = BankState.ACTIVE
        elif self.state in (BankState.READING, BankState.WRITING):
            self.state = BankState.ACTIVE
        elif self.state is BankState.PRECHARGING:
            self.state = BankState.IDLE
        elif self.state is BankState.REFRESHING:
            self.state = BankState.IDLE

    def has_open_row(self, now: int) -> bool:
        """True when the row buffer holds a row (or is opening one) at
        ``now``.

        Resolves every transient that has ended by ``now`` first, a pending
        RDA/WRA auto-precharge included, so callers need no prior
        :meth:`tick`.  FR-FCFS treats the opening and open states alike; the
        per-command timing windows still gate when a column command may
        actually issue.
        """
        self.tick(now)
        return self.open_row is not None

    @property
    def transient_until(self) -> int:
        """When the current transient state resolves (planner snapshot).

        Only meaningful for deciding when a closed bank becomes IDLE
        (precharging/refreshing); open-row transients resolve to ACTIVE,
        which the schedulers treat identically to their transient states.
        """
        return self._state_until

    def is_row_hit(self, row: int, now: int) -> bool:
        """True when ``row`` is open in the row buffer at ``now``."""
        self.tick(now)
        return self.open_row == row

    # -------------------------------------------------------------- can_issue

    def can_issue_column(self, row: Optional[int], is_read: bool,
                         now: int) -> bool:
        """Check per-bank state and timing for a RD (``is_read``) or WR to
        ``row`` at ``now``; ``row=None`` accepts whichever row is open.

        The single per-bank column rule: :meth:`can_issue` delegates every
        RD/RDA/WR/WRA to it, and :meth:`issue_column` validates with it.
        """
        self.tick(now)
        open_row = self.open_row
        if open_row is None or (row is not None and row != open_row):
            return False
        return now >= (self.next_read if is_read else self.next_write)

    def can_issue(self, kind: CommandKind, now: int, row: Optional[int] = None) -> bool:
        """Check per-bank state and timing for issuing ``kind`` at ``now``.

        Cross-bank constraints (tRRD, tFAW, tCCD, bus turnaround) are checked
        by the pseudo channel, not here.
        """
        if kind.is_column:
            return self.can_issue_column(row, kind.is_read, now)
        self.tick(now)
        if kind is CommandKind.ACT:
            return self.state is BankState.IDLE and now >= self.next_act
        if kind in (CommandKind.PRE, CommandKind.PREA):
            if self.state is BankState.IDLE:
                return now >= self.next_act  # precharging an idle bank is a no-op
            return self.open_row is not None and now >= self.next_pre
        if kind is CommandKind.REFPB:
            return self.state is BankState.IDLE and now >= max(
                self.next_act, self.next_refresh
            )
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
                f"at t={now} (state={self.state.value})"
            )
        self.apply(kind, now, row)

    def apply(self, kind: CommandKind, now: int, row: Optional[int] = None) -> None:
        """Apply the state/timing effects of issuing ``kind`` at ``now``.

        Does not validate: for callers that have just checked the command
        with :meth:`can_issue` (the pseudo channel validates each row and
        refresh command once, its bank included).  Column commands are
        validated and applied in one call, :meth:`issue_column`.
        """
        t = self.timing
        if kind is CommandKind.ACT:
            assert row is not None, "ACT requires a row"
            self.open_row = row
            self.state = BankState.ACTIVATING
            self._state_until = now + t.tRCDRD
            self.next_read = max(self.next_read, now + t.tRCDRD)
            self.next_write = max(self.next_write, now + t.tRCDWR)
            self.next_pre = max(self.next_pre, now + t.tRAS)
            self.next_act = max(self.next_act, now + t.tRC)
            self.counters.activates += 1
        elif kind in (CommandKind.PRE, CommandKind.PREA):
            if self.state is BankState.IDLE:
                return  # no-op precharge
            self.open_row = None
            self.state = BankState.PRECHARGING
            self._state_until = now + t.tRP
            self.next_act = max(self.next_act, now + t.tRP)
            self.counters.precharges += 1
        elif kind is CommandKind.REFPB:
            self.state = BankState.REFRESHING
            self._state_until = now + t.tRFCpb
            self.next_act = max(self.next_act, now + t.tRFCpb)
            self.next_refresh = max(self.next_refresh, now + t.tREFIpb)
            self.counters.refreshes += 1
        else:
            raise ValueError(f"Bank cannot accept command kind {kind}")

    def issue_column(self, kind: CommandKind, row: Optional[int],
                     now: int) -> None:
        """Issue a RD/RDA/WR/WRA (``kind``) to ``row`` at ``now``.

        The bank's one column path, validate-and-apply: the command is
        checked with :meth:`can_issue_column` and ``RuntimeError`` is
        raised before any state changes if it may not issue.  The pseudo
        channel delegates to it after its own cross-bank checks.
        """
        is_read = kind.is_read
        if not self.can_issue_column(row, is_read, now):
            raise RuntimeError(
                f"illegal {kind.value} to bg{self.bank_group}.ba{self.bank_id}"
                f".r{row} at t={now}: the bank cannot issue it "
                f"(state={self.state.value})"
            )
        t = self.timing
        recovery = column_precharge_ready(t, is_read, now)
        if recovery > self.next_pre:
            self.next_pre = recovery
        if is_read:
            self.state = BankState.READING
            self._state_until = now + t.tCL + t.burst_ns
            self.counters.reads += 1
            if kind is CommandKind.RDA:
                self._auto_precharge_at = max(self.next_pre, now + t.tRTP)
        else:
            self.state = BankState.WRITING
            self._state_until = now + t.tCWL + t.burst_ns
            self.counters.writes += 1
            if kind is CommandKind.WRA:
                self._auto_precharge_at = now + t.tCWL + t.burst_ns + t.tWR

    def next_event_ns(self, now: int) -> Optional[int]:
        """Earliest stored timestamp after ``now`` at which this bank's
        issueability can change (timing-window expiry, transient-state
        resolution, or a pending auto-precharge and its completion).

        A superset of the truly relevant instants is fine -- callers treat the
        result as a conservative wake-up bound for event-driven scheduling.
        """
        candidates = [
            self.next_act, self.next_read, self.next_write, self.next_pre,
            self.next_refresh, self._state_until,
        ]
        if self._auto_precharge_at is not None:
            candidates.append(self._auto_precharge_at)
            candidates.append(self._auto_precharge_at + self.timing.tRP)
        best: Optional[int] = None
        for candidate in candidates:
            if candidate > now and (best is None or candidate < best):
                best = candidate
        return best

    def earliest_issue(self, kind: CommandKind) -> int:
        """Lower bound on when ``kind`` could be issued (ignoring state)."""
        if kind is CommandKind.ACT:
            return self.next_act
        if kind in (CommandKind.RD, CommandKind.RDA):
            return self.next_read
        if kind in (CommandKind.WR, CommandKind.WRA):
            return self.next_write
        if kind in (CommandKind.PRE, CommandKind.PREA):
            return self.next_pre
        if kind is CommandKind.REFPB:
            return max(self.next_act, self.next_refresh)
        raise ValueError(f"Bank cannot accept command kind {kind}")
