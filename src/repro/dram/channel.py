"""HBM channel: two pseudo channels sharing one set of C/A pins.

The channel models the shared command/address bus: in a given nanosecond one
row command and one column command can be delivered (HBM defines separate row
and column C/A pins, Section II-B), and the two pseudo channels contend for
those pins.  The C/A slots are the channel's term of a command's ready
instant (:meth:`Channel.column_ready_ns`, :meth:`Channel.row_ready_ns`),
and the issue methods check them before the pseudo channel validates the
rest.

The slots stay here, not in :class:`PseudoChannel`: they are the external
interface the two pseudo channels share, and RoMe's in-die command
expansion is checked against a pseudo channel alone
(``CommandGenerator.validate_against_channel``), without them.  A slot
binds only at an instant that already took a command on its pseudo
channel, so a scheduler that issues at most one column per pseudo channel
and instant (the conventional controller's decision loop) may ask
:meth:`PseudoChannel.column_ready_ns` directly: for a pseudo channel whose
last column went out before ``t``, ``t`` reaches that instant exactly when
it reaches :meth:`Channel.column_ready_ns`.

Columns are addressed by the flat bank index
(:func:`~repro.dram.address.flat_bank_index`) their transactions carry;
:attr:`Channel.bank_pcs` maps it to the pseudo channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dram.bank import Bank
from repro.dram.commands import Command, CommandKind
from repro.dram.pseudochannel import PseudoChannel
from repro.dram.timing import TimingParameters


@dataclass(frozen=True)
class ChannelConfig:
    """Static organization of a single HBM channel."""

    timing: TimingParameters
    num_pseudo_channels: int = 2
    num_bank_groups: int = 4
    banks_per_group: int = 4
    num_stack_ids: int = 4
    channel_width_bits: int = 64

    @property
    def banks_per_pseudo_channel(self) -> int:
        return self.num_bank_groups * self.banks_per_group * self.num_stack_ids

    @property
    def banks_per_channel(self) -> int:
        return self.banks_per_pseudo_channel * self.num_pseudo_channels

    @property
    def peak_bandwidth_bytes_per_ns(self) -> float:
        """Peak data bandwidth of the whole channel in bytes per nanosecond."""
        per_pc = self.timing.access_granularity_bytes / self.timing.tCCDS
        return per_pc * self.num_pseudo_channels


class Channel:
    """A conventional HBM channel (two pseudo channels, shared C/A pins)."""

    def __init__(self, config: ChannelConfig, channel_id: int = 0) -> None:
        self.config = config
        self.channel_id = channel_id
        self.timing = config.timing
        self.pseudo_channels: List[PseudoChannel] = [
            PseudoChannel(
                timing=config.timing,
                pseudo_channel_id=pc,
                num_bank_groups=config.num_bank_groups,
                banks_per_group=config.banks_per_group,
                num_stack_ids=config.num_stack_ids,
            )
            for pc in range(config.num_pseudo_channels)
        ]
        #: Every bank of the channel, in
        #: :func:`~repro.dram.address.flat_bank_index` order.
        self.banks: List[Bank] = [
            bank for pc in self.pseudo_channels for bank in pc.all_banks()
        ]
        #: Per flat bank index: the pseudo channel of the bank.
        self.bank_pcs: List[int] = [
            pc.pseudo_channel_id for pc in self.pseudo_channels
            for _ in range(pc.num_banks)
        ]
        #: C/A bus occupancy: the last ns in which a row / column command
        #: was sent to each pseudo channel.  The two PCs share the physical
        #: pins but the command rate is high enough to serve one row and one
        #: column command per PC per nanosecond, which is what this tracks.
        #: Read by the controller's scheduler; only the issue methods write.
        self.last_row_ca: List[int] = [-1] * config.num_pseudo_channels
        self.last_column_ca: List[int] = [-1] * config.num_pseudo_channels

    # ------------------------------------------------------------- plumbing

    def pseudo_channel(self, index: int) -> PseudoChannel:
        return self.pseudo_channels[index]

    def bank_index(self, pseudo_channel: int, stack_id: int, bank_group: int,
                   bank: int) -> int:
        """Index of a bank in :attr:`banks`
        (:func:`~repro.dram.address.flat_bank_index`); ``IndexError`` for a
        bank the channel does not have."""
        return self.pseudo_channels[pseudo_channel].bank_index(
            stack_id, bank_group, bank)

    # -------------------------------------------------------- ready instants

    def column_ready_ns(self, bank_index: int,
                        is_read: bool) -> Optional[int]:
        """Earliest instant a RD (``is_read``) or WR to the open row of
        bank ``bank_index`` (:meth:`bank_index`) may issue (``None``: the
        bank is closed): :meth:`PseudoChannel.column_ready_ns` and the next
        free column C/A slot.  The one copy of the column rule, read by
        validation and by the tick core's picks; that the row is the open
        one is a separate precondition."""
        pc = self.bank_pcs[bank_index]
        ready = self.pseudo_channels[pc].column_ready_ns(bank_index, is_read)
        if ready is None:
            return None
        slot = self.last_column_ca[pc] + 1
        return slot if slot > ready else ready

    def row_ready_ns(self, kind: CommandKind, pseudo_channel: int,
                     stack_id: int, bank_group: int,
                     bank: int) -> Optional[int]:
        """Earliest instant an ACT, PRE or REFpb (``kind``) to a bank may
        issue (``None``: the row state rules it out):
        :meth:`PseudoChannel.row_ready_ns` and the next free row C/A slot.
        The one copy of the row rule; other kinds raise ``ValueError``."""
        ready = self.pseudo_channels[pseudo_channel].row_ready_ns(
            kind, stack_id, bank_group, bank)
        if ready is None:
            return None
        slot = self.last_row_ca[pseudo_channel] + 1
        return slot if slot > ready else ready

    # -------------------------------------------------------------- issuing

    def can_issue(self, command: Command, now: int) -> bool:
        """Whether ``now`` reaches ``command``'s ready instant and the row
        state admits it: :meth:`PseudoChannel.can_issue`, then the C/A
        slot of the command's bus."""
        pc = command.pseudo_channel
        slots = self.last_column_ca if command.kind.is_column \
            else self.last_row_ca
        return self.pseudo_channels[pc].can_issue(command, now) \
            and now > slots[pc]

    def issue_column(self, bank_index: int, kind: CommandKind, row: int,
                     now: int) -> None:
        """Issue a RD or WR (``kind``) to ``row`` of bank ``bank_index``
        (:meth:`bank_index`).

        The one column path (:meth:`issue` delegates here).  It raises
        ``RuntimeError`` before any state change when the column C/A slot
        is busy or :meth:`PseudoChannel.issue_column` rejects the command.
        """
        pc = self.bank_pcs[bank_index]
        if now <= self.last_column_ca[pc]:
            raise RuntimeError(
                f"column C/A bus busy for {kind.label} on pc{pc} at t={now}")
        self.pseudo_channels[pc].issue_column(bank_index, kind, row, now)
        self.last_column_ca[pc] = now

    def issue(self, command: Command, now: int) -> None:
        """Issue ``command``; ``RuntimeError`` before any state change when
        its row C/A slot is busy or :meth:`PseudoChannel.issue` rejects it
        (columns: :meth:`issue_column`)."""
        kind = command.kind
        if kind.is_column:
            self.issue_column(
                self.bank_index(command.pseudo_channel, command.stack_id,
                                command.bank_group, command.bank),
                kind, command.row, now)
            return
        if now <= self.last_row_ca[command.pseudo_channel]:
            raise RuntimeError(f"C/A bus busy for {command} at t={now}")
        self.pseudo_channels[command.pseudo_channel].issue(command, now)
        self.last_row_ca[command.pseudo_channel] = now

    # ----------------------------------------------------------------- stats

    def data_bus_utilization(self, elapsed_ns: int) -> float:
        if not self.pseudo_channels:
            return 0.0
        return sum(
            pc.data_bus_utilization(elapsed_ns) for pc in self.pseudo_channels
        ) / len(self.pseudo_channels)

    def command_counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for pc in self.pseudo_channels:
            for name, count in pc.command_counts().items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def bytes_transferred(self) -> int:
        return sum(
            pc.counters.bytes_read + pc.counters.bytes_written
            for pc in self.pseudo_channels
        )

    def total_activates(self) -> int:
        return sum(pc.total_activates() for pc in self.pseudo_channels)
