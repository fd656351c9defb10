"""Pseudo channel: the unit that owns a data bus in HBM.

Two pseudo channels (PCs) share one channel's C/A pins but split its data pins
evenly (Section II-C).  The pseudo channel enforces every cross-bank timing
constraint of the conventional interface: CAS-to-CAS spacing (tCCDS/tCCDL),
ACT-to-ACT spacing (tRRDS/tRRDL, tFAW), write-to-read and read-to-write bus
turnaround, and data-bus occupancy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.dram.bank import Bank
from repro.dram.bankgroup import BankGroup
from repro.dram.commands import Command, CommandKind
from repro.dram.timing import TimingParameters

_NEG_INF = -(10**9)


@dataclass
class PseudoChannelCounters:
    """Aggregate per-PC statistics."""

    commands: Dict[str, int] = field(default_factory=dict)
    data_bus_busy_ns: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def note_command(self, kind: CommandKind) -> None:
        label = kind.label
        self.commands[label] = self.commands.get(label, 0) + 1

    def count(self, kind: CommandKind) -> int:
        return self.commands.get(kind.value, 0)


class PseudoChannel:
    """One pseudo channel with its bank groups, banks, and data bus."""

    def __init__(
        self,
        timing: TimingParameters,
        pseudo_channel_id: int = 0,
        num_bank_groups: int = 4,
        banks_per_group: int = 4,
        num_stack_ids: int = 1,
    ) -> None:
        self.timing = timing
        self.pseudo_channel_id = pseudo_channel_id
        self.num_bank_groups = num_bank_groups
        self.banks_per_group = banks_per_group
        self.num_stack_ids = num_stack_ids
        # One independent set of bank groups per stack ID (rank).
        self.stacks: List[List[BankGroup]] = [
            [
                BankGroup(timing=timing, bank_group_id=bg, num_banks=banks_per_group)
                for bg in range(num_bank_groups)
            ]
            for _ in range(num_stack_ids)
        ]
        self.counters = PseudoChannelCounters()

        # Cross-bank timing state: read by the controller's scheduler,
        # changed only by the issue methods.
        self.last_act_time: int = _NEG_INF
        self.last_act_bank_group: Optional[int] = None
        self.act_window: Deque[int] = deque()  # for tFAW
        self.last_cas_time: int = _NEG_INF
        self.last_cas_bank_group: Optional[int] = None
        self.last_cas_stack: Optional[int] = None
        self.last_cas_was_read: Optional[bool] = None
        self.last_write_data_end: int = _NEG_INF
        self.data_bus_busy_until: int = 0

    # ------------------------------------------------------------- structure

    def bank(self, bank_group: int, bank: int, stack_id: int = 0) -> Bank:
        return self.stacks[stack_id][bank_group].bank(bank)

    def all_banks(self) -> List[Bank]:
        return [
            bank
            for stack in self.stacks
            for group in stack
            for bank in group.banks
        ]

    @property
    def num_banks(self) -> int:
        return self.num_bank_groups * self.banks_per_group * self.num_stack_ids

    # ------------------------------------------------------- ready instants

    def column_ready_time(self, stack_id: int, bank_group: int,
                          is_read: bool) -> int:
        """Earliest instant the cross-bank column rule admits a RD
        (``is_read``) or WR: the latest of the BK-BUS (``bank_group``'s)
        and data-bus occupancy, CAS-to-CAS spacing and the read/write
        turnarounds.  The one copy of the rule: validation asks
        ``now >= column_ready_time(...)``, and the scheduler's checks and
        wake-ups read the same instant."""
        timing = self.timing
        ready = self.stacks[stack_id][bank_group].bus_busy_until
        data_bus = self.data_bus_busy_until - (
            timing.tCL if is_read else timing.tCWL)
        if data_bus > ready:
            ready = data_bus
        last = self.last_cas_time
        if last == _NEG_INF:
            return ready
        if self.last_cas_stack is not None and stack_id != self.last_cas_stack:
            spacing = last + timing.tCCDR
        elif bank_group == self.last_cas_bank_group:
            spacing = last + timing.tCCDL
        else:
            spacing = last + timing.tCCDS
        if spacing > ready:
            ready = spacing
        was_read = self.last_cas_was_read
        if was_read is True and not is_read:
            turnaround = last + timing.tRTW
        elif was_read is False and is_read:
            turnaround = self.last_write_data_end + (
                timing.tWTRL if bank_group == self.last_cas_bank_group
                else timing.tWTRS)
        else:
            return ready
        return turnaround if turnaround > ready else ready

    def act_ready_time(self, bank_group: int) -> int:
        """Earliest instant the next ACT may issue under tRRD/tFAW."""
        ready = 0
        if self.last_act_time != _NEG_INF:
            gap = self.timing.tRRDL \
                if bank_group == self.last_act_bank_group \
                else self.timing.tRRDS
            ready = self.last_act_time + gap
        if len(self.act_window) >= 4:
            ready = max(ready, self.act_window[0] + self.timing.tFAW)
        return ready

    # ------------------------------------------------------------ can_issue

    def can_issue_column(self, stack_id: int, bank_group: int, bank: int,
                         row: int, is_read: bool, now: int) -> bool:
        """Check a RD (``is_read``) or WR to ``row`` at ``now`` against
        every PC- and bank-level constraint.

        The single column check: the cross-bank rule, then the bank's own
        (:meth:`Bank.can_issue_column`).  It takes plain ints so a
        scheduler can test a candidate without building a
        :class:`Command`; :meth:`can_issue` delegates every RD and WR to
        it.
        """
        return now >= self.column_ready_time(stack_id, bank_group, is_read) \
            and self.stacks[stack_id][bank_group].banks[bank] \
            .can_issue_column(row, is_read, now)

    def can_issue(self, command: Command, now: int) -> bool:
        """Check all PC- and bank-level constraints for ``command`` at ``now``.

        RD, WR, ACT, PRE and REFpb are the kinds a controller issues; any
        other raises ``ValueError`` (:meth:`Bank.can_issue`).
        """
        kind = command.kind
        if kind is CommandKind.RD or kind is CommandKind.WR:
            return self.can_issue_column(
                command.stack_id, command.bank_group, command.bank,
                command.row, kind is CommandKind.RD, now)
        if kind is CommandKind.ACT \
                and now < self.act_ready_time(command.bank_group):
            return False
        bank = self.bank(command.bank_group, command.bank, command.stack_id)
        return bank.can_issue(kind, now, command.row)

    # ---------------------------------------------------------------- issue

    def issue_column(self, kind: CommandKind, stack_id: int, bank_group: int,
                     bank: int, row: int, now: int) -> None:
        """Issue a RD or WR (``kind``) to ``row``, from plain ints.

        The column twin of :meth:`issue`, which delegates every column
        command to it.  The cross-bank rule is checked here and the bank's
        by :meth:`Bank.issue_column`, which validates and applies in one
        call; either raises ``RuntimeError`` before any state changes if
        the command may not issue.
        """
        is_read = kind.is_read
        group = self.stacks[stack_id][bank_group]
        if now < self.column_ready_time(stack_id, bank_group, is_read):
            raise RuntimeError(
                f"cannot issue {kind.label} to sid{stack_id}.bg{bank_group}"
                f".ba{bank}.r{row} at t={now}")
        group.banks[bank].issue_column(kind, row, now)
        group.note_cas(now)
        t = self.timing
        counters = self.counters
        commands = counters.commands
        commands[kind.label] = commands.get(kind.label, 0) + 1
        self.last_cas_time = now
        self.last_cas_bank_group = bank_group
        self.last_cas_stack = stack_id
        self.last_cas_was_read = is_read
        data_end = now + (t.tCL if is_read else t.tCWL) + t.burst_ns
        if data_end > self.data_bus_busy_until:
            self.data_bus_busy_until = data_end
        counters.data_bus_busy_ns += t.burst_ns
        if is_read:
            counters.bytes_read += t.access_granularity_bytes
        else:
            self.last_write_data_end = data_end
            counters.bytes_written += t.access_granularity_bytes

    def issue(self, command: Command, now: int) -> None:
        """Issue ``command`` and update all timing state.

        Raises ``RuntimeError`` when a constraint would be violated so that
        scheduler bugs are surfaced instead of silently producing wrong
        bandwidth numbers.  The command is validated once: :meth:`can_issue`
        checks its bank too, so the bank's effects are applied directly.
        Column commands go through :meth:`issue_column`.
        """
        kind = command.kind
        if kind.is_column:
            self.issue_column(kind, command.stack_id, command.bank_group,
                              command.bank, command.row, now)
            return
        if not self.can_issue(command, now):
            raise RuntimeError(f"cannot issue {command} at t={now}")
        self.counters.note_command(kind)
        self.bank(command.bank_group, command.bank, command.stack_id) \
            .apply(kind, now, command.row)
        if kind is CommandKind.ACT:
            self.last_act_time = now
            self.last_act_bank_group = command.bank_group
            self.act_window.append(now)
            while len(self.act_window) > 4:
                self.act_window.popleft()

    # ----------------------------------------------------------------- stats

    def data_bus_utilization(self, elapsed_ns: int) -> float:
        """Fraction of elapsed time the PC data bus transferred data."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.counters.data_bus_busy_ns / elapsed_ns)

    def command_counts(self) -> Dict[str, int]:
        return dict(self.counters.commands)

    def total_activates(self) -> int:
        return sum(
            group.total_counter("activates")
            for stack in self.stacks
            for group in stack
        )
