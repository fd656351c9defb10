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
freed queue room; one controller call, ``_refill``, admits backlog work,
building the next window of a request's transactions when the built
backlog runs dry, and steps the write-drain hysteresis), the refresh
sweep, the column picks from the hit heads and the row picks from the miss
heads.  Each device rule is one ready instant, stated once by the channel:
``Channel.column_ready_ns`` for a RD or WR and ``Channel.row_ready_ns``
for an ACT, PRE or REFpb (the bank's windows, the pseudo channel's CAS
spacing, turnarounds, bus occupancy, tRRD and tFAW, and the channel's C/A
slot).  A column is
addressed by its transaction's flat bank index, and the loop asks the
pseudo channel's rule (``PseudoChannel.column_ready_ns``) directly: it
takes at most one column per pseudo channel and instant, so the column C/A
slot, which binds only at the instant of the pseudo channel's last column,
never binds at an ask.  The slots stay in the channel, the interface the
pseudo channels share, and the channel checks them on every issue.  A pick
is ``t >= ready``, and each command issues at once through
``Channel.issue_column`` or ``Channel.issue``, which validate it against
the full ready instant and raise before any state changes: a wrong
decision raises instead of silently corrupting results.  Nothing changes
while nothing issues, so after an instant that issues nothing the loop
jumps to the earliest ready instant of an enabled head or of the refresh
sweep (the latest of its target's deadline, or deadline plus slack, and
its REFpb's or PRE's ready instant), or to the RAS layer's next instant
under live faults (a scrub pass or a replay admission, run first at its
instant as ``_step`` runs it).  The
controller's ``next_event_ns`` is the same minimum
(:meth:`FrFcfsScheduler.next_ready_ns`) on the controller's state, or
``now`` when the next admission finds room in its queue.

The per-instant picks (:meth:`~FrFcfsScheduler.pick_refresh`,
:meth:`~FrFcfsScheduler.pick_column`, :meth:`~FrFcfsScheduler.pick_row`) are
the tick core's scheduler: an independent scheduler over the same device
rule, which the event core is checked against, instant for instant.

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
from typing import (TYPE_CHECKING, Callable, List, Optional, Sequence,
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

    def queue_priority(
        self, read_queue: RequestQueue, write_queue: RequestQueue
    ) -> Tuple[RequestQueue, ...]:
        """The queues one evaluation serves, in priority order, after one
        step of the write-drain hysteresis: writes first while draining or
        when no read waits, else reads alone.  The one copy of the
        hysteresis: draining starts at :data:`_WRITE_DRAIN_HIGH` of the
        write queue's capacity and stops at :data:`_WRITE_DRAIN_LOW`."""
        capacity = write_queue.capacity
        if capacity:
            fraction = len(write_queue.entries) / capacity
            if self._draining_writes:
                draining = fraction > _WRITE_DRAIN_LOW
            else:
                draining = fraction >= _WRITE_DRAIN_HIGH
        else:
            draining = False
        self._draining_writes = draining
        if draining or not read_queue.entries:
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
                # it if it still holds an open row (a closed one takes no
                # PRE).
                pre = self._pre_command(pc_index, target.stack_id,
                                        target.bank_group, target.bank)
                if channel.can_issue(pre, now):
                    return SchedulerDecision(command=pre, critical_pre=True)
        return None

    # --------------------------------------------------------------- picking

    def pick_column(self, queues: Sequence[RequestQueue],
                    now: int) -> Optional[Transaction]:
        """Pick the transaction of the oldest first-ready column command.

        ``queues`` are the served queues in priority order
        (:meth:`queue_priority`), so the controller can prioritize reads or
        drain writes.  Within a queue, the oldest ready hit (FR-FCFS) is the
        first ready one among the queue's hit heads -- each bank's oldest
        pending hit, in admission order.  A column command's readiness
        depends only on its pseudo-channel/stack/bank group/bank, RD vs WR
        and ``now`` (every candidate is a hit on the open row) -- never on
        the column or the request -- so a bank's younger hits are ready
        exactly when its oldest is, and each bank is tested once:
        ``now >= Channel.column_ready_ns(bank_index, is_read)``.
        """
        column_ready = self.channel.column_ready_ns
        for queue in queues:
            entries = queue.entries
            for seq in queue.hit_heads:
                transaction = entries[seq]
                if now >= column_ready(transaction.bank_index,
                                       transaction.is_read):
                    return transaction
        return None

    def pick_row(self, queues: Sequence[RequestQueue],
                 now: int) -> Optional[SchedulerDecision]:
        """Pick an ACT (row miss) or a PRE (row conflict).

        Row work is only for a bank whose oldest pending entry misses its
        open row: the miss heads of the served ``queues``, walked in
        admission order.  A conflicting open row is closed only once the
        queue holds no pending hit to it (open-page: hits are served before
        the row is given up).
        """
        can_issue = self.channel.can_issue
        for queue in queues:
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
        from the later of the target's deadline and the REFpb's ready
        instant; an open one is precharged from the later of the instant
        the target turns critical and the PRE's ready instant."""
        row_ready = self.channel.row_ready_ns
        refpb, pre = CommandKind.REFPB, CommandKind.PRE
        best = None
        for pc, engine in enumerate(self.refresh_engines):
            keys = engine.keys
            stack_id, bank_group, bank = keys[engine.issued % len(keys)]
            deadline = engine.due_ns()
            ready = row_ready(pre, pc, stack_id, bank_group, bank)
            if ready is None:  # closed
                ready = row_ready(refpb, pc, stack_id, bank_group, bank)
            else:
                deadline += engine.slack_ns()
            if deadline > ready:
                ready = deadline
            if best is None or ready < best:
                best = ready
        return best

    def _heads_ready_ns(self, queues: Sequence[RequestQueue]
                        ) -> Optional[int]:
        """The earliest instant any head of ``queues`` could issue,
        while no command issues: a hit head's RD or WR, a miss head's ACT,
        or its row-conflict PRE once the queue holds no hit to the open
        row (until then the hit head goes first).

        A column's ready instant is its pseudo channel's: the channel's
        column C/A slot binds only at an instant that issued a column, and
        the instants this is asked for issued none (``controller.now`` is
        past every issue)."""
        channel = self.channel
        bank_pcs = channel.bank_pcs
        column_rules = [pc.column_ready_ns for pc in channel.pseudo_channels]
        row_ready = channel.row_ready_ns
        act, pre = CommandKind.ACT, CommandKind.PRE
        best = None
        for queue in queues:
            entries = queue.entries
            for seq in queue.hit_heads:
                transaction = entries[seq]
                index = transaction.bank_index
                ready = column_rules[bank_pcs[index]](index,
                                                      transaction.is_read)
                if best is None or ready < best:
                    best = ready
            for seq in queue.miss_heads:
                transaction = entries[seq]
                index = transaction.bank_index
                if queue.open_row(index) is None:
                    kind = act
                elif queue.hit_count(index):
                    continue
                else:
                    kind = pre
                coord = transaction.coordinate
                ready = row_ready(kind, coord.pseudo_channel, coord.stack_id,
                                  coord.bank_group, coord.bank)
                if best is None or ready < best:
                    best = ready
        return best

    def next_ready_ns(self, served: Sequence[RequestQueue],
                      sweep_at: Optional[int],
                      ras_at: Optional[int]) -> Optional[int]:
        """The earliest instant anything could issue while nothing issues:
        the earliest ready instant of the heads of ``served`` and of the
        refresh sweep (``sweep_at``, its ready instant, ``None`` without
        refresh), and the RAS layer's next instant (``ras_at``, ``None``
        without one); ``None`` when nothing could ever issue.  Unclamped:
        it may lie in the past.  The loop's jump and the controller's
        ``next_event_ns`` both read it."""
        wake = self._heads_ready_ns(served)
        if sweep_at is not None and (wake is None or sweep_at < wake):
            wake = sweep_at
        if ras_at is not None and (wake is None or ras_at < wake):
            wake = ras_at
        return wake

    def _wake_ns(self, t: int, served: Sequence[RequestQueue],
                 sweep_at: Optional[int],
                 ras_at: Optional[int]) -> Optional[int]:
        """The loop's jump from ``t``, an instant that issued nothing (so
        nothing changed): :meth:`next_ready_ns`, but at least ``t + 1``."""
        wake = self.next_ready_ns(served, sweep_at, ras_at)
        return None if wake is None else max(t + 1, wake)

    # ------------------------------------------------------ the event core

    def plan_train(self, controller: ConventionalMemoryController,
                   target_ns: int,
                   until: Optional[Callable[[], bool]] = None
                   ) -> Optional[int]:
        """Run ``controller``'s event core from its ``now`` to ``target_ns``.

        The one decision loop (see the module docstring): every instant
        makes exactly the decisions ``controller._step`` makes there, on
        the live state, and issues them through the controller's own issue
        path (``_issue_column``, ``_issue``) at once.  An instant that
        issues is followed by the next one, since the C/A pins admit
        another command the next nanosecond; after one that issues nothing
        the loop jumps to the earliest ready instant of the enabled heads
        and the refresh sweep, or to the RAS layer's next instant (a scrub
        pass or a replay admission, which ``_step`` runs first at its
        instant, as the loop does), and to ``target_ns`` when nothing is
        left.
        With ``until`` it also stops after the first column-issuing
        instant after which ``until()`` holds (only a column completes a
        request): ``run_until_idle`` stops after the instant that leaves
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
        row_ready = channel.row_ready_ns
        act, pre = CommandKind.ACT, CommandKind.PRE
        # One column and one row command per pseudo channel and instant (a
        # refresh takes its PC's row slot): per PC, the last instant the
        # loop picked a column and a row command, so a PC that took its
        # slot is skipped before asking for a ready instant.  So the
        # channel's column C/A slot never binds at an ask, and a column
        # asks its pseudo channel's rule directly, by the transaction's
        # flat bank index; ``issue_column`` still checks the slot.
        bank_pcs = channel.bank_pcs
        column_rules = [pc.column_ready_ns for pc in channel.pseudo_channels]
        num_pcs = len(column_rules)
        column_taken = [-1] * num_pcs
        row_taken = list(column_taken)
        # Per bank, the ready instant last found for its miss head's ACT or
        # PRE.  Only a row command can bring it earlier (tRRD across bank
        # groups) or change the command, so each forgets its PC's entries.
        per_pc = channel.config.banks_per_pseudo_channel
        row_not_before = [0] * (num_pcs * per_pc)
        unknown = [0] * per_pc
        rq, wq = controller.read_queue, controller.write_queue
        backlog, refill_queues = controller._backlog, controller._refill
        issue_column, issue = controller._issue_column, controller._issue
        traced = controller._obs is not None
        # Under active RAS, the instant its next scrub pass or replay is
        # due; a DUE read may queue a replay, so it is re-read after every
        # column.  ``None`` without RAS or at zero rate.
        ras = controller.ras if controller._ras_active else None
        ras_at = None if ras is None else ras.next_event_ns()
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
            if ras_at is not None and t >= ras_at:
                ras.admit_due(t, backlog)
                ras_at = ras.next_event_ns()
                refill = True
            if refill:
                # Only a column frees queue room, so only then can a refill
                # admit work, building a request cursor's next window when
                # the built backlog runs dry (and move the write-drain
                # hysteresis).
                served = refill_queues()
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
                        pc = decision.command.pseudo_channel
                        row_taken[pc] = t
                        row_not_before[pc * per_pc:(pc + 1) * per_pc] = \
                            unknown
                        refreshed = True
            wake_sweep = refreshed

            # -- 2. columns: the oldest ready hit head of each pseudo channel
            # A command moves only its own pseudo channel's ready instants,
            # so one walk over the heads finds the instant's picks in
            # ``_step``'s order, and asks each head at most once.
            picked = []
            free = num_pcs
            for source in served:
                entries = source.entries
                for seq in source.hit_heads:
                    transaction = entries[seq]
                    index = transaction.bank_index
                    pc = bank_pcs[index]
                    if column_taken[pc] != t and t >= column_rules[pc](
                            index, transaction.is_read):
                        picked.append((source, transaction))
                        column_taken[pc] = t
                        free -= 1
                        if not free:
                            break
                if not free:
                    break
            for source, transaction in picked:
                issue_column(transaction, t)
                source.remove(transaction)
            columns = num_pcs - free

            # -- 3. rows: ACT or row-conflict PRE from the miss heads ------
            rows = 0
            if rq.miss_heads or wq.miss_heads:
                picked = []
                for queue in served:
                    entries = queue.entries
                    for seq in queue.miss_heads:
                        transaction = entries[seq]
                        coord = transaction.coordinate
                        pc = coord.pseudo_channel
                        index = transaction.bank_index
                        if row_taken[pc] == t or t < row_not_before[index]:
                            continue
                        if queue.open_row(index) is None:
                            kind = act
                        elif queue.hit_count(index):
                            # Close the row only once this queue holds no
                            # hit to it.
                            continue
                        else:
                            kind = pre
                        ready = row_ready(kind, pc, coord.stack_id,
                                          coord.bank_group, coord.bank)
                        if t < ready:
                            row_not_before[index] = ready
                            continue
                        picked.append(
                            self._act_command(transaction) if kind is act
                            else self._pre_command(pc, coord.stack_id,
                                                   coord.bank_group,
                                                   coord.bank))
                        row_taken[pc] = t
                for command in picked:
                    issue(SchedulerDecision(command=command), t)
                    controller._note_row(command)
                    pc = command.pseudo_channel
                    row_not_before[pc * per_pc:(pc + 1) * per_pc] = unknown
                    if sweep_at is not None:
                        engine = self.refresh_engines[pc]
                        if engine.keys[engine.issued % len(engine.keys)] == (
                                command.stack_id, command.bank_group,
                                command.bank):
                            wake_sweep = True
                rows = len(picked)

            if refreshed or columns or rows:
                issuing += 1
                if traced:
                    controller._trace_evaluation(t)
                t += 1
                if columns:
                    refill = True
                    if ras is not None:
                        ras_at = ras.next_event_ns()
                    if until is not None and until():
                        break
                if wake_sweep:
                    sweep_at = t
            else:
                if sweep_at is not None:
                    # Exact again: a column may have delayed a PRE window.
                    sweep_at = self._sweep_ready_ns()
                wake = self._wake_ns(t, served, sweep_at, ras_at)
                t = target_ns if wake is None else wake
            if t >= target_ns:
                t = target_ns
                break
        controller.now = t
        stats.instants += instants
        return issuing or None
