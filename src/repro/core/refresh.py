"""RoMe refresh handling (Section V-B).

With virtual banks, refreshing either constituent bank blocks the whole VBA.
Instead of issuing one per-bank refresh every ``tREFIpb``, the RoMe controller
issues one refresh *per VBA* every ``2 x tREFIpb`` and the command generator
emits the two REFpb commands back-to-back separated by ``tRREFD``.  This
reduces the stall per VBA from ``2 x tRFCpb`` to ``tRFCpb + tRREFD``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Tuple

from repro.dram.refresh import RefreshRotation
from repro.dram.timing import TimingParameters


@dataclass(frozen=True)
class RefreshStallSummary:
    """Per-VBA refresh stall accounting over one refresh window."""

    naive_stall_ns: int
    paired_stall_ns: int
    interval_ns: int

    @property
    def stall_reduction_ns(self) -> int:
        return self.naive_stall_ns - self.paired_stall_ns

    @property
    def naive_overhead_fraction(self) -> float:
        return self.naive_stall_ns / self.interval_ns

    @property
    def paired_overhead_fraction(self) -> float:
        return self.paired_stall_ns / self.interval_ns


def refresh_stall_comparison(
    timing: Optional[TimingParameters] = None,
    banks_per_vba: int = 2,
    vbas_per_channel: int = 16,
) -> RefreshStallSummary:
    """Compare the naive and paired refresh schemes for one VBA.

    Within each per-VBA refresh period (the refresh command rotation over all
    ``vbas_per_channel`` VBAs of the channel), the naive scheme stalls the VBA
    ``banks_per_vba`` times for ``tRFCpb`` each, while the paired scheme
    (Section V-B) stalls it once for
    ``tRFCpb + (banks_per_vba - 1) x tRREFD``.
    """
    timing = timing or TimingParameters()
    window = banks_per_vba * timing.tREFIpb * max(1, vbas_per_channel)
    naive = banks_per_vba * timing.tRFCpb
    paired = timing.tRFCpb + (banks_per_vba - 1) * timing.tRREFD
    return RefreshStallSummary(
        naive_stall_ns=naive,
        paired_stall_ns=paired,
        interval_ns=window,
    )


@dataclass(kw_only=True)
class RomeRefreshScheduler(RefreshRotation):
    """Schedules paired per-VBA refreshes for the RoMe memory controller.

    Targets are ``(stack_id, vba)`` pairs in stack-major order.  The
    command stride is ``banks_per_vba x tREFIpb`` -- the Section V-B
    optimization: one paired refresh command every ``2 x tREFIpb``
    instead of one REFpb every ``tREFIpb`` -- so each VBA comes around
    every ``stride x num_vbas x num_stack_ids``.
    """

    timing: TimingParameters
    num_vbas: int
    num_stack_ids: int = 1
    banks_per_vba: int = 2
    keys: Tuple[Tuple[int, int], ...] = field(init=False)
    stride: int = field(init=False)

    def __post_init__(self) -> None:
        self.keys = tuple(product(range(self.num_stack_ids),
                                  range(self.num_vbas)))
        self.stride = self.banks_per_vba * self.timing.tREFIpb
        super().__post_init__()

    def stall_ns(self) -> int:
        """VBA stall per paired refresh."""
        return self.timing.tRFCpb + (self.banks_per_vba - 1) * self.timing.tRREFD

    @staticmethod
    def track_label(key: tuple) -> str:
        """Per-stack sub-track label for trace events about ``key`` (the
        obs layer renders one track per channel/stack; the VBA index
        travels in the event args)."""
        return f"sid{key[0]}"
