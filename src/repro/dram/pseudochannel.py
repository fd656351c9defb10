"""Pseudo channel: the unit that owns a data bus in HBM.

Two pseudo channels (PCs) share one channel's C/A pins but split its data pins
evenly (Section II-C).  The pseudo channel enforces every cross-bank timing
constraint of the conventional interface: CAS-to-CAS spacing (tCCDS/tCCDL),
ACT-to-ACT spacing (tRRDS/tRRDL, tFAW), write-to-read and read-to-write bus
turnaround, and data-bus occupancy.  Each is a term of a command's ready
instant (:meth:`PseudoChannel.column_ready_ns`,
:meth:`PseudoChannel.row_ready_ns`), stated once together with the bank's
windows.

The column rule and the column issue are addressed by a bank's flat index
within its channel (:func:`~repro.dram.address.flat_bank_index`, the
``bank_index`` every transaction carries), resolved through one table
built at construction: per index, the bank, its bank group and their ids.
A RD or WR is the hot path of the conventional controller, so it reads no
coordinate fields.  The row rules take coordinates.

The C/A slots are not a term here: they are the channel's
(:class:`~repro.dram.channel.Channel`), the interface two pseudo channels
share.  RoMe's in-die command expansion is checked against a pseudo
channel alone (``CommandGenerator.validate_against_channel``), which has no
external C/A pins to contend for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.dram.address import flat_bank_index
from repro.dram.bank import Bank
from repro.dram.bankgroup import BankGroup
from repro.dram.commands import Command, CommandKind
from repro.dram.timing import TimingParameters

_NEG_INF = -(10**9)

#: A bank of a pseudo channel's table: the bank, its bank group, the bank
#: group's id and the stack ID.
_BankEntry = Tuple[Bank, BankGroup, int, int]

# Looked up once: each ``CommandKind.X`` is a descriptor call on Python 3.11.
_RD, _WR = CommandKind.RD, CommandKind.WR
_ACT, _PRE, _REFPB = CommandKind.ACT, CommandKind.PRE, CommandKind.REFPB


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
        # A column's effects, per direction (index ``is_read``): how long
        # its bank's precharge waits after the issue (write recovery past
        # the write data, or read-to-precharge) and when its data leaves
        # the bus; then its BK-BUS beat, bus time and bytes.
        self._column_recovery = (
            timing.tCWL + timing.burst_ns + timing.tWR, timing.tRTP)
        self._column_data_end = (timing.tCWL + timing.burst_ns,
                                 timing.tCL + timing.burst_ns)
        self._bk_bus_beat = timing.tCCDL
        self._burst_ns = timing.burst_ns
        self._column_bytes = timing.access_granularity_bytes
        #: Per flat bank index of the channel (:meth:`bank_index`): the
        #: bank, its bank group, the bank group's id and the stack ID.
        #: The other pseudo channels' indices, below this one's, hold
        #: ``None``.  Read-only outside this class.
        self.banks_by_index: List[Optional[_BankEntry]] = \
            [None] * (pseudo_channel_id * self.num_banks) + [
                (bank, group, bank_group, stack_id)
                for stack_id, stack in enumerate(self.stacks)
                for bank_group, group in enumerate(stack)
                for bank in group.banks
            ]

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

    def bank_index(self, stack_id: int, bank_group: int, bank: int) -> int:
        """Flat index of a bank of this pseudo channel within its channel
        (:func:`flat_bank_index`); ``IndexError`` for a bank it does not
        have."""
        if not (0 <= stack_id < self.num_stack_ids
                and 0 <= bank_group < self.num_bank_groups
                and 0 <= bank < self.banks_per_group):
            raise IndexError(
                f"no bank sid{stack_id}.bg{bank_group}.ba{bank} on pc"
                f"{self.pseudo_channel_id}")
        return flat_bank_index(self.pseudo_channel_id, stack_id, bank_group,
                               bank, self.num_stack_ids, self.num_bank_groups,
                               self.banks_per_group)

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

    def column_ready_ns(self, bank_index: int,
                        is_read: bool) -> Optional[int]:
        """Earliest instant a RD (``is_read``) or WR to the open row of
        bank ``bank_index`` (:meth:`bank_index`) may issue on this pseudo
        channel; ``None`` when the bank is closed.

        The latest of the bank's read or write window, BK-BUS (its bank
        group's) and data-bus occupancy, CAS-to-CAS spacing and the
        read/write turnarounds.  Validation asks
        ``now >= column_ready_ns(...)``; the channel adds its column C/A
        slot (:meth:`Channel.column_ready_ns`).
        """
        target, group, bank_group, stack_id = self.banks_by_index[bank_index]
        if target.open_row is None:
            return None
        timing = self.timing
        if is_read:
            ready = target.next_read
            data_bus = self.data_bus_busy_until - timing.tCL
        else:
            ready = target.next_write
            data_bus = self.data_bus_busy_until - timing.tCWL
        if group.bus_busy_until > ready:
            ready = group.bus_busy_until
        if data_bus > ready:
            ready = data_bus
        # Before the first CAS, ``last`` is ``_NEG_INF`` and no CAS term
        # binds, whichever spacing applies.
        last = self.last_cas_time
        if stack_id != self.last_cas_stack:
            spacing = last + timing.tCCDR
        elif bank_group == self.last_cas_bank_group:
            spacing = last + timing.tCCDL
        else:
            spacing = last + timing.tCCDS
        if spacing > ready:
            ready = spacing
        if is_read:
            if self.last_cas_was_read is False:
                turnaround = self.last_write_data_end + (
                    timing.tWTRL if bank_group == self.last_cas_bank_group
                    else timing.tWTRS)
                if turnaround > ready:
                    return turnaround
        elif self.last_cas_was_read:
            turnaround = last + timing.tRTW
            if turnaround > ready:
                return turnaround
        return ready

    def row_ready_ns(self, kind: CommandKind, stack_id: int, bank_group: int,
                     bank: int) -> Optional[int]:
        """Earliest instant an ACT, PRE or REFpb (``kind``) to a bank may
        issue on this pseudo channel; ``None`` when the bank's row state
        rules it out (ACT and REFpb need a closed bank, PRE an open one).

        A PRE waits for the bank's precharge window, a REFpb for its
        activate and refresh windows, an ACT for its activate window, tRRD
        and tFAW.  Any other kind raises ``ValueError`` (no controller
        issues PREA, REFab or MRS).  The channel adds its row C/A slot.
        """
        target = self.stacks[stack_id][bank_group].banks[bank]
        if kind is not _ACT:
            if kind is _PRE:
                return None if target.open_row is None else target.next_pre
            if kind is not _REFPB:
                raise ValueError(f"the device does not model {kind.value}")
            if target.open_row is not None:
                return None
            return max(target.next_act, target.next_refresh)
        if target.open_row is not None:
            return None
        ready = target.next_act
        timing = self.timing
        # Before the first ACT, ``last_act_time`` is ``_NEG_INF``.
        spacing = self.last_act_time + (
            timing.tRRDL if bank_group == self.last_act_bank_group
            else timing.tRRDS)
        if spacing > ready:
            ready = spacing
        if len(self.act_window) >= 4:
            window = self.act_window[0] + timing.tFAW
            if window > ready:
                ready = window
        return ready

    # ------------------------------------------------------------ can_issue

    def can_issue(self, command: Command, now: int) -> bool:
        """Whether ``command`` may issue at ``now`` as far as this pseudo
        channel and its banks know: ``now`` reaches its ready instant
        (:meth:`column_ready_ns`, :meth:`row_ready_ns`) and a RD or WR
        targets the open row.

        RD, WR, ACT, PRE and REFpb are the kinds a controller issues; any
        other raises ``ValueError`` (:meth:`row_ready_ns`).
        """
        kind = command.kind
        if kind is _RD or kind is _WR:
            index = self.bank_index(command.stack_id, command.bank_group,
                                    command.bank)
            ready = self.column_ready_ns(index, kind is _RD)
            return ready is not None and now >= ready and command.row == \
                self.banks_by_index[index][0].open_row
        ready = self.row_ready_ns(kind, command.stack_id, command.bank_group,
                                  command.bank)
        return ready is not None and now >= ready

    # ---------------------------------------------------------------- issue

    def issue_column(self, bank_index: int, kind: CommandKind, row: int,
                     now: int) -> None:
        """Issue a RD or WR (``kind``) to ``row`` of bank ``bank_index``
        (:meth:`bank_index`).

        The one column issue: :meth:`issue` delegates every column command
        to it.  It raises ``RuntimeError`` before any state changes if
        ``now`` is before the ready instant (:meth:`column_ready_ns`) or
        ``row`` is not the open row, and ``ValueError`` for RDA and WRA: no
        controller issues an auto-precharging CAS, so none is modeled.
        It applies the column's whole effect itself, next to the rule that
        reads it: the bank's precharge window and counters, the bank
        group's BK-BUS, the CAS state and the data bus.
        """
        if kind is _RD:
            is_read = True
        elif kind is _WR:
            is_read = False
        else:
            raise ValueError(
                f"issue_column takes RD or WR, not {kind.value}: "
                f"auto-precharging CAS is not modeled")
        target, group, bank_group, stack_id = self.banks_by_index[bank_index]
        ready = self.column_ready_ns(bank_index, is_read)
        if ready is None or now < ready or row != target.open_row:
            raise RuntimeError(
                f"cannot issue {kind.label} to sid{stack_id}.bg{bank_group}"
                f".ba{target.bank_id}.r{row} at t={now} (open row "
                f"{target.open_row})")
        # The bank's precharge window (read-to-precharge, or write
        # recovery past the write data) and its bank group's BK-BUS beat.
        recovery = now + self._column_recovery[is_read]
        if recovery > target.next_pre:
            target.next_pre = recovery
        busy = now + self._bk_bus_beat
        if busy > group.bus_busy_until:
            group.bus_busy_until = busy
        counters = self.counters
        commands = counters.commands
        label = kind.label
        commands[label] = commands.get(label, 0) + 1
        self.last_cas_time = now
        self.last_cas_bank_group = bank_group
        self.last_cas_stack = stack_id
        self.last_cas_was_read = is_read
        data_end = now + self._column_data_end[is_read]
        if data_end > self.data_bus_busy_until:
            self.data_bus_busy_until = data_end
        counters.data_bus_busy_ns += self._burst_ns
        if is_read:
            target.counters.reads += 1
            counters.bytes_read += self._column_bytes
        else:
            target.counters.writes += 1
            self.last_write_data_end = data_end
            counters.bytes_written += self._column_bytes

    def issue(self, command: Command, now: int) -> None:
        """Issue ``command`` and update all timing state.

        Raises ``RuntimeError`` when a constraint would be violated so that
        scheduler bugs are surfaced instead of silently producing wrong
        bandwidth numbers.  The command is validated once, by
        :meth:`can_issue`, so the bank's effects are applied directly.
        Column commands go through :meth:`issue_column`.
        """
        kind = command.kind
        if kind.is_column:
            self.issue_column(
                self.bank_index(command.stack_id, command.bank_group,
                                command.bank), kind, command.row, now)
            return
        if not self.can_issue(command, now):
            raise RuntimeError(f"cannot issue {command} at t={now}")
        self.counters.note_command(kind)
        self.bank(command.bank_group, command.bank, command.stack_id) \
            .apply(kind, now, command.row)
        if kind is _ACT:
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
