"""HBM channel: two pseudo channels sharing one set of C/A pins.

The channel models the shared command/address bus: in a given nanosecond one
row command and one column command can be delivered (HBM defines separate row
and column C/A pins, Section II-B), and the two pseudo channels contend for
those pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.dram.address import flat_bank_index
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
        #: Every bank of the channel, in :func:`flat_bank_index` order.
        self.banks: List[Bank] = [
            bank for pc in self.pseudo_channels for bank in pc.all_banks()
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
        """Index of a bank in :attr:`banks` (:func:`flat_bank_index`)."""
        config = self.config
        return flat_bank_index(pseudo_channel, stack_id, bank_group, bank,
                               config.num_stack_ids, config.num_bank_groups,
                               config.banks_per_group)

    # ----------------------------------------------------------- C/A sharing

    def _ca_bus_free(self, command: Command, now: int) -> bool:
        if command.kind.bus == "column":
            return now > self.last_column_ca[command.pseudo_channel]
        return now > self.last_row_ca[command.pseudo_channel]

    # -------------------------------------------------------------- issuing

    def can_issue(self, command: Command, now: int) -> bool:
        """Check C/A availability plus all pseudo-channel constraints."""
        if not self._ca_bus_free(command, now):
            return False
        pc = self.pseudo_channels[command.pseudo_channel]
        return pc.can_issue(command, now)

    def can_issue_column(self, pseudo_channel: int, stack_id: int,
                         bank_group: int, bank: int, row: int, is_read: bool,
                         now: int) -> bool:
        """:meth:`can_issue` for a RD (``is_read``) or WR to ``row``, from
        plain ints: the column C/A pins, then
        :meth:`PseudoChannel.can_issue_column` (the rule ``can_issue``
        applies to column commands too)."""
        if now <= self.last_column_ca[pseudo_channel]:
            return False
        return self.pseudo_channels[pseudo_channel].can_issue_column(
            stack_id, bank_group, bank, row, is_read, now)

    def issue_column(self, pseudo_channel: int, kind: CommandKind,
                     stack_id: int, bank_group: int, bank: int, row: int,
                     now: int) -> None:
        """Issue a RD or WR (``kind``) to ``row``, from plain ints.

        The column twin of :meth:`can_issue_column`, and the one column
        path: :meth:`issue` delegates every column command here.  It raises
        ``RuntimeError`` before any state changes when the column C/A pins
        are busy or :meth:`PseudoChannel.issue_column` rejects the command.
        """
        if now <= self.last_column_ca[pseudo_channel]:
            raise RuntimeError(
                f"column C/A bus busy for {kind.label} on pc{pseudo_channel} "
                f"at t={now}")
        self.pseudo_channels[pseudo_channel].issue_column(
            kind, stack_id, bank_group, bank, row, now)
        self.last_column_ca[pseudo_channel] = now

    def issue(self, command: Command, now: int) -> None:
        kind = command.kind
        if kind.is_column:
            self.issue_column(command.pseudo_channel, kind, command.stack_id,
                              command.bank_group, command.bank, command.row,
                              now)
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
