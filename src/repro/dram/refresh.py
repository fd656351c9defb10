"""Refresh bookkeeping for conventional HBM.

Both the baseline and RoMe employ per-bank refresh (REFpb) to improve
bandwidth availability (Section VI-A), so the conventional controller issues
REFpb only (the device still accepts REFab, see
:mod:`repro.dram.pseudochannel`).  The refresh engine tracks, per bank, when
the next refresh is due and exposes the set of overdue refreshes to the
memory controller's refresh scheduler, which may postpone them up to a
bounded debt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dram.timing import TimingParameters


@dataclass
class RefreshTarget:
    """A per-bank refresh obligation."""

    due_time: int
    stack_id: int = 0
    bank_group: int = 0
    bank: int = 0

    @property
    def track(self) -> str:
        """Bank-group sub-track label for trace events about this target
        (the obs layer renders one track per channel/bank-group)."""
        return f"sid{self.stack_id}.bg{self.bank_group}"


@dataclass
class RefreshEngine:
    """Tracks per-bank refresh deadlines for every bank behind one PC.

    Parameters
    ----------
    timing:
        Timing parameters providing ``tREFIpb``.
    num_stack_ids / num_bank_groups / banks_per_group:
        Bank topology to refresh.
    max_postponed:
        How many refresh intervals a bank may be postponed before the
        controller must stall for it (JEDEC allows postponing a bounded
        number of refreshes).

    RoMe's paired per-VBA refresh lives in
    :class:`repro.core.refresh.RomeRefreshScheduler`.
    """

    timing: TimingParameters
    num_stack_ids: int = 1
    num_bank_groups: int = 4
    banks_per_group: int = 4
    max_postponed: int = 4
    _next_due: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    issued: int = 0

    def __post_init__(self) -> None:
        offset = 0
        stagger = max(1, self.command_interval())
        for key in self._bank_keys():
            self._next_due[key] = offset
            offset += stagger

    # ------------------------------------------------------------- topology

    def _bank_keys(self) -> Iterator[Tuple[int, int, int]]:
        for sid in range(self.num_stack_ids):
            for bg in range(self.num_bank_groups):
                for bank in range(self.banks_per_group):
                    yield (sid, bg, bank)

    @property
    def num_banks(self) -> int:
        return self.num_stack_ids * self.num_bank_groups * self.banks_per_group

    def command_interval(self) -> int:
        """Average spacing between refresh *commands* on this engine:
        ``tREFIpb``, the rate at which per-bank refresh commands must be
        issued while rotating over the banks (Section II-D)."""
        return self.timing.tREFIpb

    def interval(self) -> int:
        """Refresh period of an individual target (bank) in nanoseconds.

        Rotating one REFpb every ``tREFIpb`` over ``num_banks`` banks brings
        each bank back around every ``tREFIpb x num_banks``; that per-bank
        period is what the deadline tracking uses.
        """
        return self.command_interval() * max(1, self.num_banks)

    # -------------------------------------------------------------- queries

    def due_targets(self, now: int) -> List[RefreshTarget]:
        """All refresh obligations whose deadline has passed at ``now``."""
        due = [
            RefreshTarget(due_time=t, stack_id=sid, bank_group=bg, bank=bank)
            for (sid, bg, bank), t in self._next_due.items()
            if now >= t
        ]
        due.sort(key=lambda target: target.due_time)
        return due

    def most_urgent(self, now: int) -> Optional[RefreshTarget]:
        due = self.due_targets(now)
        return due[0] if due else None

    def slack_ns(self) -> int:
        """Postponement headroom: how long past its deadline a target may
        slip before it becomes *critical* (the criticality threshold).

        Shared by :meth:`is_critical`, :meth:`next_event_ns`, and the
        burst-train planner's refresh model so the three cannot drift.
        """
        return self.max_postponed * self.interval()

    def due_snapshot(self) -> List[Tuple[Tuple[int, int, int], int]]:
        """Read-only ``((stack_id, bank_group, bank), due_time)`` pairs.

        Seeds the burst-train planner's modeled copy of this engine.  Due
        times are pairwise distinct by construction (staggered offsets,
        bumps in whole intervals), so ordering by due time is total.
        """
        return list(self._next_due.items())

    def is_critical(self, target: RefreshTarget, now: int) -> bool:
        """True when the refresh can no longer be postponed."""
        return now - target.due_time >= self.slack_ns()

    def next_event_ns(self, now: int) -> Optional[int]:
        """Earliest future time a refresh decision can change.

        For each target not yet due this is its deadline; for one already
        due but still postponable it is the criticality transition (the
        instant the scheduler must force it through).  Already-critical
        targets generate no future event of their own.
        """
        slack = self.slack_ns()
        best: Optional[int] = None
        for due in self._next_due.values():
            candidate = due if due > now else due + slack
            if candidate > now and (best is None or candidate < best):
                best = candidate
        return best

    # ------------------------------------------------------------ completion

    def note_refresh_issued(self, target: RefreshTarget, now: int) -> None:
        """Record that the refresh for ``target`` was issued at ``now``."""
        self.issued += 1
        key = (target.stack_id, target.bank_group, target.bank)
        self._next_due[key] += self.interval()

    def refresh_debt(self, now: int) -> int:
        """Number of refresh obligations currently overdue."""
        return len(self.due_targets(now))
