"""Refresh bookkeeping for conventional HBM.

Both the baseline and RoMe employ per-bank refresh (REFpb) to improve
bandwidth availability (Section VI-A), so the conventional controller issues
REFpb only (the device raises ``ValueError`` on REFab, see
:mod:`repro.dram.pseudochannel`).  The refresh engine tracks when the next
refresh is due and exposes the overdue refreshes to the memory controller's
refresh scheduler, which may postpone them up to a bounded debt.

Both controllers' trackers are configurations of one deadline rule,
:class:`RefreshRotation`: targets start due one command stride apart and
every issue retires the most urgent one, so the deadline set is always
``{(issued + j) x stride : j < n}`` and the most urgent target is
``keys[issued % n]``.  An issue counter is the whole state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Hashable, Optional, Tuple

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


@dataclass(kw_only=True)
class RefreshRotation:
    """Round-robin refresh deadlines over an ordered set of targets.

    Target ``keys[j]`` is first due at ``j x stride`` and comes around
    every ``interval() = n x stride``.  The tracker's users always issue
    the most urgent target, so after ``issued`` issues target
    ``keys[(issued + j) % n]`` is due at ``(issued + j) x stride``: every
    query below is a closed form of those ints.

    ``max_postponed`` is how many refresh intervals a target may be
    postponed before the controller must stall for it (JEDEC allows
    postponing a bounded number of refreshes).  It is read on every
    query, so assigning it on a live tracker takes effect at once.
    """

    keys: Tuple[Hashable, ...]
    stride: int
    max_postponed: int = 4
    issued: int = 0
    _positions: Dict[Hashable, int] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError(
                f"refresh command stride must be >= 1 ns, got {self.stride} "
                f"(tREFIpb < 1 with refresh enabled)")
        if not self.keys:
            raise ValueError("a refresh rotation needs at least one target")
        self._positions = {key: j for j, key in enumerate(self.keys)}

    def command_interval(self) -> int:
        """Spacing between refresh commands: the stride between deadlines."""
        return self.stride

    def interval(self) -> int:
        """Refresh period of an individual target in nanoseconds."""
        return self.stride * len(self.keys)

    def slack_ns(self) -> int:
        """Postponement headroom: how long past its deadline a target may
        slip before it becomes *critical* (the criticality threshold)."""
        return self.max_postponed * self.interval()

    def due_ns(self) -> int:
        """Deadline of the most urgent target."""
        return self.issued * self.stride

    def _due_of(self, key: Hashable) -> int:
        lag = (self._positions[key] - self.issued) % len(self.keys)
        return (self.issued + lag) * self.stride

    def most_urgent(self, now: int) -> Optional[Hashable]:
        """The overdue target with the earliest deadline, or None."""
        if now < self.issued * self.stride:
            return None
        return self.keys[self.issued % len(self.keys)]

    def is_critical(self, key: Hashable, now: int) -> bool:
        """True when ``key``'s refresh can no longer be postponed."""
        return now - self._due_of(key) >= self.slack_ns()

    def refresh_debt(self, now: int) -> int:
        """Number of refresh obligations currently overdue."""
        late = now - self.issued * self.stride
        if late < 0:
            return 0
        return min(len(self.keys), late // self.stride + 1)

    def next_event_ns(self, now: int) -> Optional[int]:
        """Earliest future time a refresh decision can change.

        For each target not yet due this is its deadline; for one already
        due but still postponable it is the criticality transition (the
        instant the scheduler must force it through).  Already-critical
        targets generate no future event of their own.  Deadlines ascend
        with ``j``, so the answer is the first undue deadline or the
        first due one that is not yet critical, whichever is earlier.
        """
        stride, base = self.stride, self.issued * self.stride
        slack = self.slack_ns()
        debt = self.refresh_debt(now)
        best = base + debt * stride if debt < len(self.keys) else None
        first_postponable = max(0, (now - slack - base) // stride + 1)
        if first_postponable < debt:
            candidate = base + first_postponable * stride + slack
            if best is None or candidate < best:
                best = candidate
        return best

    def note_issued(self, key: Hashable, now: int) -> None:
        """Record that ``key``'s refresh was issued at ``now``; it must be
        the most urgent target (the rotation has no other order)."""
        if key != self.keys[self.issued % len(self.keys)]:
            raise ValueError(
                f"refresh of {key!r} issued out of rotation order at "
                f"t={now}")
        self.issued += 1


@dataclass(kw_only=True)
class RefreshEngine(RefreshRotation):
    """Per-bank refresh deadlines for every bank behind one PC.

    One REFpb every ``tREFIpb`` rotates over the banks in (stack ID, bank
    group, bank) order, so each bank comes around every
    ``tREFIpb x num_banks`` (Section II-D).  Targets are
    :class:`RefreshTarget` records.

    RoMe's paired per-VBA refresh lives in
    :class:`repro.core.refresh.RomeRefreshScheduler`.
    """

    timing: TimingParameters
    num_stack_ids: int = 1
    num_bank_groups: int = 4
    banks_per_group: int = 4
    keys: Tuple[Tuple[int, int, int], ...] = field(init=False)
    stride: int = field(init=False)

    def __post_init__(self) -> None:
        self.keys = tuple(product(range(self.num_stack_ids),
                                  range(self.num_bank_groups),
                                  range(self.banks_per_group)))
        self.stride = self.timing.tREFIpb
        super().__post_init__()

    def most_urgent(self, now: int) -> Optional[RefreshTarget]:
        key = super().most_urgent(now)
        if key is None:
            return None
        stack_id, bank_group, bank = key
        return RefreshTarget(due_time=self.issued * self.stride,
                             stack_id=stack_id, bank_group=bank_group,
                             bank=bank)

    def is_critical(self, target: RefreshTarget, now: int) -> bool:
        """True when the refresh can no longer be postponed."""
        return now - target.due_time >= self.slack_ns()

    def note_refresh_issued(self, target: RefreshTarget, now: int) -> None:
        """Record that the refresh for ``target`` was issued at ``now``."""
        self.note_issued((target.stack_id, target.bank_group, target.bank),
                         now)
