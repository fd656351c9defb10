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
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.dram.bank import Bank
from repro.dram.bankgroup import BankGroup
from repro.dram.commands import Command, CommandKind
from repro.dram.timing import TimingParameters

_NEG_INF = -(10**9)


@dataclass(frozen=True)
class CasStateSnapshot:
    """Read-only snapshot of a pseudo channel's command-timing state.

    Used by the burst-train planner (:mod:`repro.controller.scheduler`) to
    model column- and row-command readiness without mutating the live
    objects.  The fields mirror, one for one, the private state
    ``_column_slot_free`` (CAS spacing and the data-bus check) and the ACT
    check of ``can_issue`` read.
    """

    last_cas_time: int
    last_cas_bank_group: Optional[int]
    last_cas_stack: Optional[int]
    last_cas_was_read: Optional[bool]
    last_write_data_end: int
    data_bus_busy_until: int
    last_act_time: int
    last_act_bank_group: Optional[int]
    act_window: Tuple[int, ...]


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


def cas_ready_time(
    timing: TimingParameters,
    last_cas_time: int,
    last_cas_bank_group: Optional[int],
    last_cas_stack: Optional[int],
    last_cas_was_read: Optional[bool],
    last_write_data_end: int,
    bank_group: int,
    stack_id: int,
    is_read: bool,
) -> int:
    """Earliest instant the next CAS may issue given the previous CAS.

    Pure function over explicit state so :class:`PseudoChannel` (live
    state) and the burst-train planner (modeled state) share one copy of
    the CAS-spacing/turnaround rules and cannot drift.
    """
    if last_cas_time == _NEG_INF:
        return 0
    if last_cas_stack is not None and stack_id != last_cas_stack:
        gap = timing.tCCDR
    elif bank_group == last_cas_bank_group:
        gap = timing.tCCDL
    else:
        gap = timing.tCCDS
    ready = last_cas_time + gap
    if last_cas_was_read is True and not is_read:
        ready = max(ready, last_cas_time + timing.tRTW)
    if last_cas_was_read is False and is_read:
        wtr = timing.tWTRL if bank_group == last_cas_bank_group \
            else timing.tWTRS
        ready = max(ready, last_write_data_end + wtr)
    return ready


def act_ready_time(
    timing: TimingParameters,
    last_act_time: int,
    last_act_bank_group: Optional[int],
    act_window: Sequence[int],
    bank_group: int,
) -> int:
    """Earliest instant the next ACT may issue under tRRD/tFAW.

    Pure function shared by :class:`PseudoChannel` and the burst-train
    planner (see :func:`cas_ready_time`).
    """
    ready = 0
    if last_act_time != _NEG_INF:
        gap = timing.tRRDL if bank_group == last_act_bank_group \
            else timing.tRRDS
        ready = last_act_time + gap
    if len(act_window) >= 4:
        ready = max(ready, act_window[0] + timing.tFAW)
    return ready


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

        # Cross-bank timing state.
        self._last_act_time: int = _NEG_INF
        self._last_act_bank_group: Optional[int] = None
        self._act_window: Deque[int] = deque()  # for tFAW
        self._last_cas_time: int = _NEG_INF
        self._last_cas_bank_group: Optional[int] = None
        self._last_cas_stack: Optional[int] = None
        self._last_cas_was_read: Optional[bool] = None
        self._last_write_data_end: int = _NEG_INF
        self._data_bus_busy_until: int = 0

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

    # -------------------------------------------------------------- timing

    def cas_state_snapshot(self) -> CasStateSnapshot:
        """Snapshot the command-timing state for read-only planning."""
        return CasStateSnapshot(
            last_cas_time=self._last_cas_time,
            last_cas_bank_group=self._last_cas_bank_group,
            last_cas_stack=self._last_cas_stack,
            last_cas_was_read=self._last_cas_was_read,
            last_write_data_end=self._last_write_data_end,
            data_bus_busy_until=self._data_bus_busy_until,
            last_act_time=self._last_act_time,
            last_act_bank_group=self._last_act_bank_group,
            act_window=tuple(self._act_window),
        )

    # ------------------------------------------------------------ can_issue

    def _column_slot_free(self, group: BankGroup, stack_id: int,
                          bank_group: int, is_read: bool, now: int) -> bool:
        """The cross-bank column rule: CAS spacing and turnaround, then
        data-bus and BK-BUS (``group``'s) occupancy."""
        timing = self.timing
        if now < cas_ready_time(
                timing, self._last_cas_time, self._last_cas_bank_group,
                self._last_cas_stack, self._last_cas_was_read,
                self._last_write_data_end, bank_group, stack_id, is_read):
            return False
        if now + (timing.tCL if is_read else timing.tCWL) \
                < self._data_bus_busy_until:
            return False
        return group.bus_free_at(now)

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
        group = self.stacks[stack_id][bank_group]
        return self._column_slot_free(group, stack_id, bank_group, is_read,
                                      now) \
            and group.banks[bank].can_issue_column(row, is_read, now)

    def can_issue(self, command: Command, now: int) -> bool:
        """Check all PC- and bank-level constraints for ``command`` at ``now``."""
        kind = command.kind
        if kind is CommandKind.RD or kind is CommandKind.WR:
            return self.can_issue_column(
                command.stack_id, command.bank_group, command.bank,
                command.row, kind is CommandKind.RD, now)
        if kind is CommandKind.ACT and now < act_ready_time(
                self.timing, self._last_act_time, self._last_act_bank_group,
                self._act_window, command.bank_group):
            return False
        if kind is CommandKind.REFAB:
            return all(
                b.can_issue(CommandKind.REFPB, now)
                for b in self.all_banks()
            )
        if kind is CommandKind.PREA:
            return True
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
        if not self._column_slot_free(group, stack_id, bank_group, is_read,
                                      now):
            raise RuntimeError(
                f"cannot issue {kind.label} to sid{stack_id}.bg{bank_group}"
                f".ba{bank}.r{row} at t={now}")
        group.banks[bank].issue_column(kind, row, now)
        group.note_cas(now)
        t = self.timing
        counters = self.counters
        commands = counters.commands
        commands[kind.label] = commands.get(kind.label, 0) + 1
        self._last_cas_time = now
        self._last_cas_bank_group = bank_group
        self._last_cas_stack = stack_id
        self._last_cas_was_read = is_read
        data_end = now + (t.tCL if is_read else t.tCWL) + t.burst_ns
        if data_end > self._data_bus_busy_until:
            self._data_bus_busy_until = data_end
        counters.data_bus_busy_ns += t.burst_ns
        if is_read:
            counters.bytes_read += t.access_granularity_bytes
        else:
            self._last_write_data_end = data_end
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
        if kind is CommandKind.ACT:
            bank = self.bank(command.bank_group, command.bank, command.stack_id)
            bank.apply(kind, now, command.row)
            self._last_act_time = now
            self._last_act_bank_group = command.bank_group
            self._act_window.append(now)
            while len(self._act_window) > 4:
                self._act_window.popleft()
        elif kind is CommandKind.PRE:
            bank = self.bank(command.bank_group, command.bank, command.stack_id)
            bank.apply(kind, now, command.row)
        elif kind is CommandKind.PREA:
            for bank in self.all_banks():
                if bank.can_issue(CommandKind.PRE, now):
                    bank.apply(CommandKind.PRE, now)
        elif kind is CommandKind.REFPB:
            bank = self.bank(command.bank_group, command.bank, command.stack_id)
            bank.apply(kind, now)
        elif kind is CommandKind.REFAB:
            for bank in self.all_banks():
                bank.apply(CommandKind.REFPB, now)
        elif kind is CommandKind.MRS:
            pass  # mode register writes have no timing effect in this model
        else:
            raise ValueError(f"pseudo channel cannot issue {kind}")

    def next_event_ns(self, now: int) -> Optional[int]:
        """Earliest future instant any PC-level or bank-level constraint can
        expire.

        The candidate set is a sound superset: every stored timestamp that
        feeds ``can_issue`` is offset by each gap that could apply to it
        (tCCDS/tCCDL/tCCDR, turnarounds, tRRDS/tRRDL, tFAW, data-bus and
        BK-BUS occupancy), so no issueability transition can occur strictly
        between ``now`` and the returned time.  Extra candidates merely cost
        a no-op evaluation.
        """
        t = self.timing
        candidates = []
        if self._last_cas_time != _NEG_INF:
            base = self._last_cas_time
            candidates += [base + t.tCCDS, base + t.tCCDL, base + t.tCCDR,
                           base + t.tRTW]
        if self._last_write_data_end != _NEG_INF:
            candidates += [self._last_write_data_end + t.tWTRS,
                           self._last_write_data_end + t.tWTRL]
        if self._last_act_time != _NEG_INF:
            candidates += [self._last_act_time + t.tRRDS,
                           self._last_act_time + t.tRRDL]
        if len(self._act_window) >= 4:
            candidates.append(self._act_window[0] + t.tFAW)
        if self._data_bus_busy_until > 0:
            candidates += [self._data_bus_busy_until - t.tCL,
                           self._data_bus_busy_until - t.tCWL,
                           self._data_bus_busy_until]
        best: Optional[int] = None
        for candidate in candidates:
            if candidate > now and (best is None or candidate < best):
                best = candidate
        for stack in self.stacks:
            for group in stack:
                candidate = group.next_event_ns(now)
                if candidate is not None and (best is None or candidate < best):
                    best = candidate
        return best

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
