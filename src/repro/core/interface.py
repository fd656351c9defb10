"""The RoMe row-granularity memory interface.

RoMe replaces the conventional column-level interface with two data commands,
``RD_row`` and ``WR_row`` (Section IV-A).  The host (a DMA engine on an AI
accelerator) issues kilobyte-scale requests; the RoMe memory controller maps
each one onto whole effective rows of a virtual bank.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

_row_request_ids = itertools.count()

#: Rows per virtual bank in the default striping layout.
DEFAULT_ROWS_PER_VBA = 1 << 14


class RowRequestKind(enum.Enum):
    """Row-level request types exposed by the RoMe interface."""

    RD_ROW = "RD_row"
    WR_ROW = "WR_row"


@dataclass
class RowRequest:
    """One row-granularity request handled by the RoMe memory controller.

    Attributes
    ----------
    kind:
        Read or write.
    channel / stack_id / vba / row:
        Target coordinates in the simplified hierarchy (no pseudo channel,
        no bank group, no column).
    valid_bytes:
        Number of bytes actually wanted by the host.  When smaller than the
        effective row size the remainder is overfetch, which the evaluation
        tracks (Section VI-B notes its impact is negligible for LLMs).
    arrival_ns:
        Time the request reached the controller.
    """

    kind: RowRequestKind
    channel: int = 0
    stack_id: int = 0
    vba: int = 0
    row: int = 0
    valid_bytes: int = 4096
    arrival_ns: int = 0
    request_id: int = field(default_factory=lambda: next(_row_request_ids))
    issue_ns: Optional[int] = None
    completion_ns: Optional[int] = None
    #: RAS command-replay generation: 0 for demand reads, n for the n-th
    #: retry of a detected-uncorrectable read (see repro.reliability.ras).
    retry_attempt: int = 0

    @property
    def is_read(self) -> bool:
        return self.kind is RowRequestKind.RD_ROW

    @property
    def is_write(self) -> bool:
        return self.kind is RowRequestKind.WR_ROW

    def latency(self) -> Optional[int]:
        if self.completion_ns is None:
            return None
        return self.completion_ns - self.arrival_ns

    def overfetch_bytes(self, effective_row_bytes: int) -> int:
        """Bytes transferred but not requested by the host."""
        return max(0, effective_row_bytes - self.valid_bytes)


def requests_for_transfer(
    total_bytes: int,
    kind: RowRequestKind,
    effective_row_bytes: int,
    num_channels: int,
    vbas_per_channel: int,
    rows_per_vba: int = DEFAULT_ROWS_PER_VBA,
    start_row: int = 0,
    arrival_ns: int = 0,
) -> List[RowRequest]:
    """Split a bulk sequential transfer into row-granularity requests.

    The transfer is striped across channels first and virtual banks second,
    matching the bandwidth-maximizing address mapping the paper sweeps for
    (Section VI-A).  The final request may be partially valid (overfetch).

    The whole layout is derived before any :class:`RowRequest` is built,
    so a transfer past the device capacity raises without consuming
    request IDs.
    """
    specs = _transfer_specs(total_bytes, effective_row_bytes, num_channels,
                            vbas_per_channel, rows_per_vba, start_row)
    return [
        RowRequest(
            kind=kind,
            channel=channel,
            vba=vba,
            row=row,
            valid_bytes=valid,
            arrival_ns=arrival_ns,
        )
        for channel, vba, row, valid in specs
    ]


def _transfer_specs(
    total_bytes: int,
    effective_row_bytes: int,
    num_channels: int,
    vbas_per_channel: int,
    rows_per_vba: int,
    start_row: int,
) -> List[Tuple[int, int, int, int]]:
    """The (channel, vba, row, valid_bytes) striping of a transfer."""
    specs: List[Tuple[int, int, int, int]] = []
    remaining = total_bytes
    index = 0
    while remaining > 0:
        channel = index % num_channels
        vba = (index // num_channels) % vbas_per_channel
        row = start_row + index // (num_channels * vbas_per_channel)
        if row >= rows_per_vba:
            raise ValueError("transfer exceeds device capacity for the given layout")
        valid = min(effective_row_bytes, remaining)
        specs.append((channel, vba, row, valid))
        remaining -= valid
        index += 1
    return specs
