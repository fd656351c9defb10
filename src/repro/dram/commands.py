"""DRAM command vocabulary.

Conventional HBM exposes column-granularity commands (RD/WR) plus the row
management commands (ACT/PRE) and maintenance commands (REF).  RoMe collapses
the data-access portion of this vocabulary into two row-granularity commands,
``RD_row`` and ``WR_row`` (Section IV-A); those are also defined here so both
memory controllers share one command type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class CommandKind(enum.Enum):
    """All commands understood by the simulated DRAM devices."""

    ACT = "ACT"
    PRE = "PRE"
    PREA = "PREA"          # precharge-all (bank-group or channel scope)
    RD = "RD"
    RDA = "RDA"            # read with auto-precharge
    WR = "WR"
    WRA = "WRA"            # write with auto-precharge
    REFAB = "REFab"        # all-bank refresh
    REFPB = "REFpb"        # per-bank refresh
    MRS = "MRS"            # mode register set
    RD_ROW = "RD_row"      # RoMe row-granularity read
    WR_ROW = "WR_row"      # RoMe row-granularity write
    REF_ROW = "REF_row"    # RoMe-level refresh (expanded to paired REFpb)


#: Commands that transfer data on the DQ bus.
DATA_COMMANDS = frozenset(
    {CommandKind.RD, CommandKind.RDA, CommandKind.WR, CommandKind.WRA,
     CommandKind.RD_ROW, CommandKind.WR_ROW}
)

#: Commands that open a row.
ROW_OPEN_COMMANDS = frozenset({CommandKind.ACT})

#: Commands that close a row.
ROW_CLOSE_COMMANDS = frozenset({CommandKind.PRE, CommandKind.PREA,
                                CommandKind.RDA, CommandKind.WRA})

#: Column (CAS) commands in the conventional interface.
COLUMN_COMMANDS = frozenset(
    {CommandKind.RD, CommandKind.RDA, CommandKind.WR, CommandKind.WRA}
)

#: Row-bus commands in the conventional interface.
ROW_COMMANDS = frozenset(
    {CommandKind.ACT, CommandKind.PRE, CommandKind.PREA,
     CommandKind.REFAB, CommandKind.REFPB, CommandKind.MRS}
)

#: RoMe row-granularity commands.
ROME_COMMANDS = frozenset(
    {CommandKind.RD_ROW, CommandKind.WR_ROW, CommandKind.REF_ROW}
)

#: Commands that read data (used for bus-turnaround accounting).
READ_COMMANDS = frozenset({CommandKind.RD, CommandKind.RDA, CommandKind.RD_ROW})

#: Commands that write data.
WRITE_COMMANDS = frozenset({CommandKind.WR, CommandKind.WRA, CommandKind.WR_ROW})


def command_bus(kind: CommandKind) -> str:
    """Return which C/A bus carries ``kind``.

    HBM defines separate row and column C/A pins (Section II-B).  RoMe routes
    everything over the single reduced C/A bus (Section IV-D).
    """
    if kind in COLUMN_COMMANDS:
        return "column"
    if kind in ROME_COMMANDS:
        return "rome"
    return "row"


# Every member also carries what the command hot path asks of it as plain
# attributes: a frozenset membership test hashes the member through the
# Python-level ``Enum.__hash__``, and ``kind.value`` goes through the enum
# descriptor.  ``label`` is the value; ``bus`` is :func:`command_bus`.
for _kind in CommandKind:
    _kind.label = _kind.value
    _kind.bus = command_bus(_kind)
    _kind.is_read = _kind in READ_COMMANDS
    _kind.is_column = _kind in COLUMN_COMMANDS
del _kind


@dataclass(frozen=True)
class Command:
    """A single DRAM command addressed to a specific resource.

    The coordinate fields that do not apply to a command are left at their
    defaults (e.g. ``column`` is ``None`` for an ACT).
    """

    kind: CommandKind
    channel: int = 0
    pseudo_channel: int = 0
    stack_id: int = 0
    bank_group: int = 0
    bank: int = 0
    row: int = 0
    column: Optional[int] = None
    #: Identifier of the host request this command serves (None for refresh).
    request_id: Optional[int] = None
    #: Optional metadata for tracing/debugging.
    tag: str = field(default="", compare=False)

    @property
    def is_read(self) -> bool:
        return self.kind.is_read

    @property
    def is_write(self) -> bool:
        return self.kind in WRITE_COMMANDS

    @property
    def transfers_data(self) -> bool:
        return self.kind in DATA_COMMANDS

    @property
    def bus(self) -> str:
        return self.kind.bus

    def with_offset_bank(self, bank_group: int, bank: int) -> "Command":
        """Return a copy retargeted at another (bank group, bank) pair."""
        return Command(
            kind=self.kind,
            channel=self.channel,
            pseudo_channel=self.pseudo_channel,
            stack_id=self.stack_id,
            bank_group=bank_group,
            bank=bank,
            row=self.row,
            column=self.column,
            request_id=self.request_id,
            tag=self.tag,
        )

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        loc = (
            f"ch{self.channel}.pc{self.pseudo_channel}.sid{self.stack_id}"
            f".bg{self.bank_group}.ba{self.bank}.r{self.row}"
        )
        if self.column is not None:
            loc += f".c{self.column}"
        return f"{self.kind.value}@{loc}"
