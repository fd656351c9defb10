"""FR-FCFS command scheduling for the conventional controller.

The scheduler implements the First-Ready, First-Come-First-Served policy used
by the paper's baseline (Section VI-A): column commands to already-open rows
are preferred over row commands, and within each class the oldest transaction
wins.  It also handles write draining, the open-page precharge rule (close a
row only once the queue holds no pending hit to it), and per-bank refresh
with bounded postponement.

The event core's decision loop
------------------------------
A busy HBM4 channel issues a column command nearly every nanosecond, so an
event core that runs the full per-instant scheduler and then asks every
device timestamp for the next wake pays almost the tick core's price.
:meth:`FrFcfsScheduler.plan_train` is the event core's one decision loop
instead.  It walks the instants of an advance on the live state -- the
channel's banks and pseudo channels, the request queues' bank machines and
the refresh engines -- in ``_step``'s order: the refill (only after a column
freed queue room), the refresh sweep, the column picks from the hit heads
and the row picks from the miss heads.  Each pick is an integer check of the
device rule, read off the live fields, and each command issues at once
through ``Channel.issue_column`` or ``Channel.issue``, which validate it again
and raise before any state changes: a wrong decision raises instead of
silently corrupting results.  Nothing changes while nothing issues, so after
an instant that issues nothing the loop jumps to the earliest instant at
which an enabled head or the refresh sweep could issue: each ready instant
is the latest of the instants its rule's windows open (C/A slot, bank
window, CAS spacing and turnaround, data bus, BK-BUS, tRRD/tFAW, refresh
deadline and criticality).  The controller's ``next_event_ns`` is the same
minimum (:meth:`FrFcfsScheduler.ready_ns`).

The per-instant picks (:meth:`~FrFcfsScheduler.pick_refresh`,
:meth:`~FrFcfsScheduler.pick_column`, :meth:`~FrFcfsScheduler.pick_row`) are
the tick core's scheduler: an independent implementation the event core is
checked against, instant for instant.

Bank machines
-------------
Work is organised per bank, as in gram/LiteDRAM's bank machines and
multiplexer.  The bank machines live in the request queues
(:class:`~repro.controller.queues.RequestQueue`): per flat bank index a FIFO
of pending entries and the count of those hitting the open row, and across
banks the admission-ordered hit heads and miss heads.  They persist across
evaluations; the controller updates them on push, on issue, and on every ACT
and PRE.  A column pick walks the hit heads, testing each bank once, and a
row pick walks the miss heads.  A column hit's readiness depends only on its
bank and direction, never on its column, so a bank's younger hits are ready
exactly when its oldest is.  A bank is its open row and timing windows
(:class:`~repro.dram.bank.Bank`), so nothing about it changes by time passing
and no evaluation sweeps the channel with a tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.controller.queues import RequestQueue
from repro.controller.request import Transaction
from repro.dram.channel import Channel
from repro.dram.commands import Command, CommandKind
from repro.dram.refresh import RefreshEngine, RefreshTarget

if TYPE_CHECKING:
    from repro.controller.mc import ConventionalMemoryController

#: Write-queue occupancy fractions at which the controller enters and leaves
#: write-drain mode (hysteresis).
_WRITE_DRAIN_HIGH = 0.75
_WRITE_DRAIN_LOW = 0.25


@dataclass
class SchedulerDecision:
    """A refresh or row command chosen for issue.

    ``critical_pre`` marks a precharge forced by a critical refresh (the
    escalation path of :meth:`FrFcfsScheduler.pick_refresh`), which is
    otherwise indistinguishable from a row-conflict precharge at issue time.
    Column picks are transactions, not decisions (:meth:`pick_column`).
    """

    command: Command
    refresh_target: Optional[RefreshTarget] = None
    critical_pre: bool = False


class FrFcfsScheduler:
    """First-ready FCFS scheduler over one HBM channel."""

    def __init__(
        self,
        channel: Channel,
        refresh_engines: Optional[List[RefreshEngine]] = None,
    ) -> None:
        self.channel = channel
        self.refresh_engines = refresh_engines or []
        self._draining_writes = False
        #: Per engine, the bank of each rotation target, in rotation order:
        #: the next target's bank is ``[issued % len]``.
        self._refresh_banks = [
            [channel.banks[channel.bank_index(pc, *key)]
             for key in engine.keys]
            for pc, engine in enumerate(self.refresh_engines)]

    # ------------------------------------------------------------ utilities

    def _act_command(self, transaction: Transaction) -> Command:
        coord = transaction.coordinate
        return Command(
            kind=CommandKind.ACT,
            channel=self.channel.channel_id,
            pseudo_channel=coord.pseudo_channel,
            stack_id=coord.stack_id,
            bank_group=coord.bank_group,
            bank=coord.bank,
            row=coord.row,
            request_id=transaction.request.request_id,
        )

    def _pre_command(self, pseudo_channel: int, stack_id: int,
                     bank_group: int, bank: int) -> Command:
        return Command(
            kind=CommandKind.PRE,
            channel=self.channel.channel_id,
            pseudo_channel=pseudo_channel,
            stack_id=stack_id,
            bank_group=bank_group,
            bank=bank,
        )

    def update_write_drain(self, write_queue: RequestQueue) -> bool:
        """Hysteretic switch into/out of write-drain mode."""
        self._draining_writes = self._drain_step(
            self._draining_writes, write_queue.occupancy, write_queue.capacity
        )
        return self._draining_writes

    def _drain_step(self, draining: bool, occupancy: int, capacity: int) -> bool:
        """Pure write-drain hysteresis step (shared with :meth:`ready_ns`,
        which must not switch the mode)."""
        if capacity == 0:
            return False
        fraction = occupancy / capacity
        if not draining and fraction >= _WRITE_DRAIN_HIGH:
            return True
        if draining and fraction <= _WRITE_DRAIN_LOW:
            return False
        return draining

    def queue_priority(
        self, read_queue: RequestQueue, write_queue: RequestQueue
    ) -> List[Tuple[RequestQueue, bool]]:
        """Queue service order for one evaluation (updates drain hysteresis)."""
        if self.update_write_drain(write_queue) or read_queue.is_empty:
            return [(write_queue, True), (read_queue, True)]
        return [(read_queue, True), (write_queue, False)]

    @staticmethod
    def _served_queues(draining: bool, read_queue: RequestQueue,
                       write_queue: RequestQueue) -> Tuple[RequestQueue, ...]:
        """The enabled queues of :meth:`queue_priority`'s order, for the
        write-drain mode ``draining``."""
        if draining or read_queue.is_empty:
            return (write_queue, read_queue)
        return (read_queue,)

    # --------------------------------------------------------------- refresh

    def pick_refresh(self, now: int) -> Optional[SchedulerDecision]:
        """Issue an overdue per-bank refresh if it is critical or convenient.

        The engines are walked in pseudo-channel order, and for each
        engine's most urgent overdue target either the REFpb issues, or --
        once postponement headroom is exhausted -- the target bank is forced
        closed with a precharge.  The first actionable engine wins.
        """
        channel = self.channel
        for pc_index, engine in enumerate(self.refresh_engines):
            target = engine.most_urgent(now)
            if target is None:
                continue
            refpb = Command(
                kind=CommandKind.REFPB, channel=channel.channel_id,
                pseudo_channel=pc_index, stack_id=target.stack_id,
                bank_group=target.bank_group, bank=target.bank)
            if channel.can_issue(refpb, now):
                return SchedulerDecision(command=refpb, refresh_target=target)
            if engine.is_critical(target, now):
                # Critical: the bank must be made refreshable -- precharge
                # it if it still holds an open row.
                bank = channel.pseudo_channel(pc_index).bank(
                    target.bank_group, target.bank, target.stack_id)
                if bank.open_row is None:
                    continue
                pre = self._pre_command(pc_index, target.stack_id,
                                        target.bank_group, target.bank)
                if channel.can_issue(pre, now):
                    return SchedulerDecision(command=pre, critical_pre=True)
        return None

    # --------------------------------------------------------------- picking

    def pick_column(
        self,
        queues: Iterable[Tuple[RequestQueue, bool]],
        now: int,
    ) -> Optional[Transaction]:
        """Pick the transaction of the oldest first-ready column command.

        ``queues`` is an iterable of (queue, enabled) pairs in priority
        order, so the controller can prioritize reads or drain writes.
        Within a queue, the oldest ready hit (FR-FCFS) is the first ready
        one among the queue's hit heads -- each bank's oldest pending hit,
        in admission order.  A column command's readiness depends only on
        its pseudo-channel/stack/bank group/bank, RD vs WR, the open row
        (every candidate is a hit on it) and ``now`` -- never on the column
        or the request -- so a bank's younger hits are ready exactly when
        its oldest is, and each bank is tested once.  The test is
        :meth:`Channel.can_issue_column`, on plain ints.
        """
        can_issue_column = self.channel.can_issue_column
        for queue, enabled in queues:
            if not enabled:
                continue
            entries = queue.entries
            for seq in queue.hit_heads:
                transaction = entries[seq]
                coord = transaction.coordinate
                if can_issue_column(coord.pseudo_channel, coord.stack_id,
                                    coord.bank_group, coord.bank, coord.row,
                                    transaction.is_read, now):
                    return transaction
        return None

    def pick_row(
        self,
        queues: Iterable[Tuple[RequestQueue, bool]],
        now: int,
    ) -> Optional[SchedulerDecision]:
        """Pick an ACT (row miss) or a PRE (row conflict).

        Row work is only for a bank whose oldest pending entry misses its
        open row: the queue's miss heads, walked in admission order.  A
        conflicting open row is closed only once the queue holds no
        pending hit to it (open-page: hits are served before the row is
        given up).
        """
        can_issue = self.channel.can_issue
        for queue, enabled in queues:
            if not enabled:
                continue
            entries = queue.entries
            for seq in queue.miss_heads:
                transaction = entries[seq]
                index = transaction.bank_index
                if queue.open_row(index) is not None:
                    if not queue.hit_count(index):
                        coord = transaction.coordinate
                        pre = self._pre_command(
                            coord.pseudo_channel, coord.stack_id,
                            coord.bank_group, coord.bank)
                        if can_issue(pre, now):
                            return SchedulerDecision(command=pre)
                    continue
                act = self._act_command(transaction)
                if can_issue(act, now):
                    return SchedulerDecision(command=act)
        return None

    # -------------------------------------------------------- ready instants

    def _sweep_ready_ns(self) -> Optional[int]:
        """The earliest instant :meth:`pick_refresh` could act, while no
        command issues: the earliest over the engines of the instant the
        next target's action opens.  A closed target bank takes its REFpb
        from the target's deadline, its refresh and ACT windows and the
        row C/A slot on; an open one is precharged once the target is
        critical, its PRE window open and the row C/A slot free."""
        row_ca = self.channel.last_row_ca
        best = None
        for pc, engine in enumerate(self.refresh_engines):
            banks = self._refresh_banks[pc]
            bank = banks[engine.issued % len(banks)]
            if bank.open_row is None:
                ready = max(engine.due_ns(), bank.next_act,
                            bank.next_refresh, row_ca[pc] + 1)
            else:
                ready = max(engine.due_ns() + engine.slack_ns(),
                            bank.next_pre, row_ca[pc] + 1)
            if best is None or ready < best:
                best = ready
        return best

    def _heads_ready_ns(self, queues: Iterable[RequestQueue]
                        ) -> Optional[int]:
        """The earliest instant any head of ``queues`` could issue,
        while no command issues: a hit head's RD or WR, a miss head's ACT,
        or its row-conflict PRE once the queue holds no hit to the open
        row (until then the hit head goes first)."""
        channel = self.channel
        banks, pcs = channel.banks, channel.pseudo_channels
        per_pc = channel.config.banks_per_pseudo_channel
        column_ca, row_ca = channel.last_column_ca, channel.last_row_ca
        best = None
        for queue in queues:
            entries = queue.entries
            for seq in queue.hit_heads:
                transaction = entries[seq]
                index = transaction.bank_index
                pc = index // per_pc
                coord = transaction.coordinate
                bank = banks[index]
                is_read = transaction.is_read
                ready = max(column_ca[pc] + 1,
                            bank.next_read if is_read else bank.next_write,
                            pcs[pc].column_ready_time(
                                coord.stack_id, coord.bank_group, is_read))
                if best is None or ready < best:
                    best = ready
            for seq in queue.miss_heads:
                transaction = entries[seq]
                index = transaction.bank_index
                pc = index // per_pc
                bank = banks[index]
                if bank.open_row is None:
                    ready = max(row_ca[pc] + 1, bank.next_act,
                                pcs[pc].act_ready_time(
                                    transaction.coordinate.bank_group))
                elif queue.hit_count(index):
                    continue
                else:
                    ready = max(row_ca[pc] + 1, bank.next_pre)
                if best is None or ready < best:
                    best = ready
        return best

    def _wake_ns(self, t: int, served: Sequence[RequestQueue],
                 sweep_at: Optional[int]) -> Optional[int]:
        """The next instant worth evaluating after ``t``, an instant that
        issued nothing (so nothing changed): the earliest ready instant of
        the heads of ``served`` and of the refresh sweep (``sweep_at``, its
        ready instant, ``None`` without refresh), but at least ``t + 1``;
        ``None`` when nothing could ever issue."""
        wake = self._heads_ready_ns(served)
        if sweep_at is not None and (wake is None or sweep_at < wake):
            wake = sweep_at
        return None if wake is None else max(t + 1, wake)

    def ready_ns(self, read_queue: RequestQueue, write_queue: RequestQueue,
                 backlog: Sequence[Transaction], now: int) -> Optional[int]:
        """The first instant from ``now`` on at which a per-instant
        evaluation could issue a command, while none issues; ``None`` if no
        evaluation ever would.

        ``now`` itself when the evaluation would admit a backlog entry (it
        may be ready at once); else the earliest ready instant of the heads
        the write-drain mode would enable and of the refresh sweep.  Every
        ready instant is exact: an evaluation there issues, and none
        issues before.
        """
        if backlog:
            head = backlog[0]
            if not (read_queue if head.is_read else write_queue).is_full:
                return now
        draining = self._drain_step(self._draining_writes,
                                    write_queue.occupancy,
                                    write_queue.capacity)
        best = self._heads_ready_ns(
            self._served_queues(draining, read_queue, write_queue))
        sweep = self._sweep_ready_ns()
        if sweep is not None and (best is None or sweep < best):
            best = sweep
        return best

    # ------------------------------------------------------ the event core

    def plan_train(self, controller: ConventionalMemoryController,
                   target_ns: int,
                   stop_when_idle: bool = False) -> Optional[int]:
        """Run ``controller``'s event core from its ``now`` to ``target_ns``.

        The one decision loop (see the module docstring): every instant
        makes exactly the decisions ``controller._step`` makes there, on
        the live state, and issues them through the controller's own issue
        path (``_issue_column``, ``_issue``) at once.  An instant that
        issues is followed by the next one, since the C/A pins admit
        another command the next nanosecond; after one that issues nothing
        the loop jumps to the earliest ready instant of the enabled heads
        and the refresh sweep, and to ``target_ns`` when nothing is left.
        With ``stop_when_idle`` it also stops after the instant that leaves
        no work pending, as the tick core's drain does.  It sets
        ``controller.now`` to the first instant it did not evaluate.

        Returns the number of instants that issued a command, ``None``
        when none did.  (The name predates the loop, which replaced a
        planner of burst trains; the benchmark harness under
        ``perfbench/`` probes it, and :meth:`pick_column`, by name.)
        """
        t = controller.now
        if t >= target_ns:
            return None
        stats = controller.stats
        stats.evaluations += 1
        channel = self.channel
        banks, pcs = channel.banks, channel.pseudo_channels
        per_pc = channel.config.banks_per_pseudo_channel
        column_ca, row_ca = channel.last_column_ca, channel.last_row_ca
        # One column and one row command per pseudo channel and instant;
        # a refresh-path command takes one unit of the row budget.
        column_picks = range(len(pcs))
        row_picks = (column_picks, range(len(pcs) - 1))
        rq, wq = controller.read_queue, controller.write_queue
        issue_column, issue = controller._issue_column, controller._issue
        traced = controller._obs is not None
        # The refresh sweep runs only from the instant it could act
        # (``_sweep_ready_ns``).  A refresh changes its engine's target, and
        # an ACT or PRE to a target bank may open that target earlier, so
        # either wakes it the next instant; any other command only delays
        # it (a column a PRE window, a row command the row C/A slot).
        sweep_at = t if self.refresh_engines else None
        refill = True
        issuing = instants = 0
        while True:
            instants += 1
            if refill:
                # Only a column frees queue room, so only then can a refill
                # admit work (and move the write-drain hysteresis).
                controller._fill_queues()
                served = self._served_queues(self.update_write_drain(wq),
                                             rq, wq)
                refill = False

            # -- 1. refresh ------------------------------------------------
            refreshed = False
            if sweep_at is not None and t >= sweep_at:
                sweep_at = self._sweep_ready_ns()
                if sweep_at <= t:
                    decision = self.pick_refresh(t)
                    if decision is not None:
                        issue(decision, t)
                        controller._note_row(decision.command)
                        refreshed = True
            wake_sweep = refreshed

            # -- 2. columns: the first ready hit head, per pseudo channel --
            columns = 0
            for _ in column_picks:
                picked = source = None
                for source in served:
                    entries = source.entries
                    for seq in source.hit_heads:
                        transaction = entries[seq]
                        index = transaction.bank_index
                        pc = index // per_pc
                        if t <= column_ca[pc]:
                            continue
                        is_read = transaction.is_read
                        bank = banks[index]
                        if t < (bank.next_read if is_read
                                else bank.next_write):
                            continue
                        coord = transaction.coordinate
                        if t < pcs[pc].column_ready_time(
                                coord.stack_id, coord.bank_group, is_read):
                            continue
                        picked = transaction
                        break
                    if picked is not None:
                        break
                if picked is None:
                    break
                issue_column(picked, t)
                source.remove(picked)
                columns += 1

            # -- 3. rows: ACT or row-conflict PRE from the miss heads ------
            rows = 0
            if rq.miss_heads or wq.miss_heads:
                for _ in row_picks[refreshed]:
                    command = None
                    for queue in served:
                        entries = queue.entries
                        for seq in queue.miss_heads:
                            transaction = entries[seq]
                            index = transaction.bank_index
                            pc = index // per_pc
                            if t <= row_ca[pc]:
                                continue
                            bank = banks[index]
                            coord = transaction.coordinate
                            if bank.open_row is not None:
                                # Close the row only once this queue holds
                                # no hit to it.
                                if not queue.hit_count(index) \
                                        and t >= bank.next_pre:
                                    command = self._pre_command(
                                        pc, coord.stack_id, coord.bank_group,
                                        coord.bank)
                                    break
                                continue
                            if t < bank.next_act:
                                continue
                            if t < pcs[pc].act_ready_time(coord.bank_group):
                                continue
                            command = self._act_command(transaction)
                            break
                        if command is not None:
                            break
                    if command is None:
                        break
                    issue(SchedulerDecision(command=command), t)
                    controller._note_row(command)
                    rows += 1
                    if sweep_at is not None:
                        targets = self._refresh_banks[pc]
                        if bank is targets[self.refresh_engines[pc].issued
                                           % len(targets)]:
                            wake_sweep = True

            if refreshed or columns or rows:
                issuing += 1
                if traced:
                    controller._trace_evaluation(t)
                t += 1
                if columns:
                    refill = True
                    if stop_when_idle and not controller._pending():
                        break
                if wake_sweep:
                    sweep_at = t
            else:
                if sweep_at is not None:
                    # Exact again: a column may have delayed a PRE window.
                    sweep_at = self._sweep_ready_ns()
                wake = self._wake_ns(t, served, sweep_at)
                t = target_ns if wake is None else wake
            if t >= target_ns:
                t = target_ns
                break
        controller.now = t
        stats.instants += instants
        return issuing or None
