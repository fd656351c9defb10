"""FR-FCFS command scheduling for the conventional controller.

The scheduler implements the First-Ready, First-Come-First-Served policy used
by the paper's baseline (Section VI-A): column commands to already-open rows
are preferred over row commands, and within each class the oldest transaction
wins.  It also handles write draining, the open-page precharge rule (close a
row only once the queue holds no pending hit to it), and per-bank refresh
with bounded postponement.

Burst trains
------------
A saturated HBM4 channel issues a column command nearly every nanosecond, so
the event-driven controller core degenerates to one full scheduler evaluation
per nanosecond.  :meth:`FrFcfsScheduler.plan_train` closes that gap: when the
upcoming decisions are provably a dense run of commands (row hits to
already-open rows, ACT/PRE row work, and the REFpb/critical-PRE issues the
refresh engines force), it computes the whole run -- per-step picks, refresh
splices, refill admissions, and write-drain state -- analytically in one
evaluation and returns a :class:`ColumnTrain` the controller bulk-applies.
The planner only *models* state (pure reads); the controller's apply path
replays the planned commands through the ordinary ``Channel.issue``
validation (one check per command, bank included), so a planner divergence
raises instead of silently corrupting results.  When no dense run of at
least ``min_steps`` instants fits before ``target_ns`` the planner returns
``None`` and the controller falls back to single-step evaluation, keeping
results bit-identical to the per-nanosecond core by construction.

Bank machines
-------------
Work is organised per bank, as in gram/LiteDRAM's bank machines and
multiplexer.  Each transaction carries a flat bank index (its position in
``Channel.banks``) and a read flag, fixed at construction.  The planner keeps
per-bank FIFOs of pending entries and per-bank hit counts, so a column pick
tests only the banks holding a pending hit, once each, and a row pick walks
only the banks whose oldest entry is a miss.  Readiness is asked of the
channel with plain ints (``Channel.can_issue_column``), and a
:class:`~repro.dram.commands.Command` is built only for a command that
issues.  Banks resolve their own transients when read at an instant, so no
evaluation sweeps the channel with a tick.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from repro.controller.queues import RequestQueue
from repro.controller.request import Transaction
from repro.dram.bank import Bank, column_precharge_ready
from repro.dram.channel import Channel
from repro.dram.commands import Command, CommandKind
from repro.dram.pseudochannel import act_ready_time, cas_ready_time
from repro.dram.refresh import RefreshEngine, RefreshTarget

#: Write-queue occupancy fractions at which the controller enters and leaves
#: write-drain mode (hysteresis).
_WRITE_DRAIN_HIGH = 0.75
_WRITE_DRAIN_LOW = 0.25

#: Upper bound on the evaluation instants one burst train covers.
_MAX_TRAIN_STEPS = 512


@dataclass
class SchedulerDecision:
    """A command chosen for issue plus the transaction it serves (if any).

    ``critical_pre`` marks a precharge forced by a critical refresh (the
    escalation path of :meth:`FrFcfsScheduler.pick_refresh`), which is
    otherwise indistinguishable from a row-conflict precharge at issue time.
    """

    command: Command
    transaction: Optional[Transaction] = None
    refresh_target: Optional[RefreshTarget] = None
    critical_pre: bool = False


@dataclass
class TrainStep:
    """One planned evaluation instant of a burst train (>= 1 column issue)."""

    time_ns: int
    decisions: List[SchedulerDecision]


@dataclass
class QueueTrainUpdate:
    """Bulk queue maintenance a train performs in place of per-step churn."""

    queue: RequestQueue
    survivors: List[Transaction]
    pushed: int
    peak: int
    #: Failed-push count: one per covered step whose refill loop stopped on
    #: this queue being full (mirroring ``_fill_queues``'s per-evaluation
    #: rejected push), keeping the telemetry train/single-step invariant.
    rejected: int = 0


@dataclass
class ColumnTrain:
    """An analytically planned run of back-to-back commands.

    ``steps`` hold consecutive evaluation instants (stride 1 ns -- a train
    is only planned while the channel stays saturated, i.e. every covered
    nanosecond issues at least one command).  Steps carry the planned
    column commands plus the refresh and row commands (REFpb, ACT, PRE)
    the per-step scheduler would have issued.  The bulk bookkeeping fields
    let the controller apply the queue/backlog/drain effects of the whole
    run in one pass.
    """

    steps: List[TrainStep]
    queue_updates: List[QueueTrainUpdate] = field(default_factory=list)
    backlog_consumed: int = 0
    final_draining: bool = False

    @property
    def count(self) -> int:
        """Total column commands in the train."""
        return sum(len(step.decisions) for step in self.steps)

    @property
    def end_ns(self) -> int:
        """Last covered evaluation instant."""
        return self.steps[-1].time_ns


class _PcModel:
    """Modeled command-timing state of one pseudo channel during planning.

    Mirrors exactly the fields ``PseudoChannel._cas_ready_time`` /
    ``_act_ready_time`` and the data-bus check in
    ``PseudoChannel.can_issue_column`` read, plus the per-bus C/A reuse
    tracked by the channel.  Initialized from read-only snapshots and
    updated per planned issue with the same formulas ``issue`` applies.
    """

    __slots__ = ("last_cas_time", "last_cas_bank_group", "last_cas_stack",
                 "last_cas_was_read", "last_write_data_end",
                 "data_bus_busy_until", "ca_last",
                 "last_act_time", "last_act_bank_group", "act_window",
                 "row_ca_last")

    def __init__(self, snapshot, ca_last: int, row_ca_last: int) -> None:
        self.last_cas_time = snapshot.last_cas_time
        self.last_cas_bank_group = snapshot.last_cas_bank_group
        self.last_cas_stack = snapshot.last_cas_stack
        self.last_cas_was_read = snapshot.last_cas_was_read
        self.last_write_data_end = snapshot.last_write_data_end
        self.data_bus_busy_until = snapshot.data_bus_busy_until
        self.ca_last = ca_last
        self.last_act_time = snapshot.last_act_time
        self.last_act_bank_group = snapshot.last_act_bank_group
        self.act_window = list(snapshot.act_window)
        self.row_ca_last = row_ca_last


class _BankModel:
    """Modeled per-bank state during planning (mirrors ``Bank``).

    ``idle_at`` is the instant a closed bank finishes its transient
    (precharging/refreshing) and can accept an ACT; it is only meaningful
    while ``open_row`` is ``None``.
    """

    __slots__ = ("open_row", "next_read", "next_write", "next_pre",
                 "next_act", "next_refresh", "idle_at")

    def __init__(self, bank: Bank, now: int) -> None:
        self.open_row = bank.open_row if bank.has_open_row(now) else None
        self.next_read = bank.next_read
        self.next_write = bank.next_write
        self.next_pre = bank.next_pre
        self.next_act = bank.next_act
        self.next_refresh = bank.next_refresh
        self.idle_at = bank.transient_until


class _QueueModel:
    """Modeled contents of one request queue during planning, indexed by
    bank (one "bank machine" per bank, as in gram/LiteDRAM).

    ``fifos[b]`` holds bank ``b``'s pending entry indices in queue order
    and ``hit_counts[b]`` counts those that hit the modeled open row.
    ``hit_heads`` lists, in queue order, the oldest pending hit of every
    bank that has one (``first_hits[b]``): the only entries a column pick
    tests.  ``miss_heads`` is the set of banks whose oldest pending entry
    is a miss: ``pick_row`` acts only on such a bank, so it is non-empty
    iff ``pick_row`` could act on this queue.
    """

    __slots__ = ("queue", "entries", "hits", "served", "live", "capacity",
                 "pushed", "peak", "rejected", "serve_count", "fifos",
                 "hit_counts", "first_hits", "hit_heads", "miss_heads")

    def __init__(self, queue: RequestQueue, num_banks: int) -> None:
        self.queue = queue
        self.entries: List[Transaction] = list(queue)
        self.hits: List[bool] = []
        self.served: List[bool] = [False] * len(self.entries)
        self.live = len(self.entries)
        self.capacity = queue.capacity
        self.pushed = 0
        self.peak = 0
        self.rejected = 0
        self.serve_count = 0
        self.fifos: List[Optional[Deque[int]]] = [None] * num_banks
        self.hit_counts: List[int] = [0] * num_banks
        self.first_hits: List[Optional[int]] = [None] * num_banks
        self.hit_heads: List[int] = []
        self.miss_heads: Set[int] = set()

    def mark(self) -> Tuple[int, int, int, int, int]:
        """The state :meth:`rollback` restores."""
        return (len(self.entries), self.pushed, self.peak, self.serve_count,
                self.rejected)

    def rollback(self, mark: Tuple[int, int, int, int, int]) -> None:
        """Drop the entries appended since ``mark`` and restore the
        tallies (served flags are reset by the caller)."""
        length, self.pushed, self.peak, self.serve_count, self.rejected = mark
        del self.entries[length:]
        del self.served[length:]

    def refresh_head(self, bank: int) -> None:
        """Recompute whether ``bank``'s oldest pending entry is a miss."""
        fifo = self.fifos[bank]
        if fifo and not self.hits[fifo[0]]:
            self.miss_heads.add(bank)
        else:
            self.miss_heads.discard(bank)

    def update_first_hit(self, bank: int) -> None:
        """Re-place ``bank``'s oldest pending hit in ``hit_heads`` after its
        FIFO or its hit flags changed.  It is the FIFO head unless the hit
        is queued behind an older miss."""
        old = self.first_hits[bank]
        new = None
        if self.hit_counts[bank]:
            fifo, hits = self.fifos[bank], self.hits
            new = fifo[0]
            if not hits[new]:
                new = next(idx for idx in fifo if hits[idx])
        if new == old:
            return
        heads = self.hit_heads
        if old is not None:
            del heads[bisect_left(heads, old)]
        if new is not None:
            insort(heads, new)
        self.first_hits[bank] = new


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

    def _column_command(self, transaction: Transaction) -> Command:
        coord = transaction.coordinate
        kind = CommandKind.RD if transaction.is_read else CommandKind.WR
        return Command(
            kind=kind,
            channel=self.channel.channel_id,
            pseudo_channel=coord.pseudo_channel,
            stack_id=coord.stack_id,
            bank_group=coord.bank_group,
            bank=coord.bank,
            row=coord.row,
            column=coord.column,
            request_id=transaction.request.request_id,
        )

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
        """Pure write-drain hysteresis step (shared with the train planner)."""
        if capacity == 0:
            return False
        fraction = occupancy / capacity
        if not draining and fraction >= _WRITE_DRAIN_HIGH:
            return True
        if draining and fraction <= _WRITE_DRAIN_LOW:
            return False
        return draining

    def set_draining(self, draining: bool) -> None:
        """Install the write-drain state a planned train ended in."""
        self._draining_writes = draining

    def queue_priority(
        self, read_queue: RequestQueue, write_queue: RequestQueue
    ) -> List[Tuple[RequestQueue, bool]]:
        """Queue service order for one evaluation (updates drain hysteresis)."""
        if self.update_write_drain(write_queue) or read_queue.is_empty:
            return [(write_queue, True), (read_queue, True)]
        return [(read_queue, True), (write_queue, False)]

    # --------------------------------------------------------------- refresh

    def _refpb_command(self, pc_index: int, target: RefreshTarget) -> Command:
        return Command(
            kind=CommandKind.REFPB,
            channel=self.channel.channel_id,
            pseudo_channel=pc_index,
            stack_id=target.stack_id,
            bank_group=target.bank_group,
            bank=target.bank,
        )

    def _refresh_sweep(
        self,
        now: int,
        engines: Sequence[RefreshEngine],
        can_issue_ref: Callable[[int, RefreshTarget, int], bool],
        bank_has_open_row: Callable[[int, RefreshTarget, int], bool],
        can_issue_pre: Callable[[int, RefreshTarget, int], bool],
    ) -> Optional[Tuple[str, int, RefreshTarget]]:
        """Shared refresh-decision skeleton (one evaluation at ``now``).

        Both the single-step scheduler (:meth:`pick_refresh`, the live
        engines and channel) and the burst-train planner (copies of the
        engines, modeled bank state) walk ``engines`` in pseudo-channel
        order and, for each engine's most urgent overdue target, either
        issue the REFpb, or -- once postponement headroom is exhausted --
        force the target bank closed with a precharge.  The bank-state
        queries are injected so the two callers share exactly one copy of
        the due/critical bail-out ordering and cannot drift.

        Returns ``("ref" | "pre", pc_index, target)`` for the first
        actionable engine, else ``None``.
        """
        for pc_index, engine in enumerate(engines):
            target = engine.most_urgent(now)
            if target is None:
                continue
            if can_issue_ref(pc_index, target, now):
                return ("ref", pc_index, target)
            if engine.is_critical(target, now):
                # Critical: the bank must be made refreshable -- precharge
                # it if it still holds an open row.
                if bank_has_open_row(pc_index, target, now) \
                        and can_issue_pre(pc_index, target, now):
                    return ("pre", pc_index, target)
        return None

    def _target_pre_command(self, pc_index: int,
                            target: RefreshTarget) -> Command:
        return self._pre_command(pc_index, target.stack_id,
                                 target.bank_group, target.bank)

    # Live-state callbacks for the shared refresh sweep (bound methods, not
    # per-call closures: ``pick_refresh`` runs once per scheduler
    # evaluation).

    def _live_can_issue_ref(self, pc: int, target: RefreshTarget,
                            now: int) -> bool:
        return self.channel.can_issue(self._refpb_command(pc, target), now)

    def _live_bank_open(self, pc: int, target: RefreshTarget,
                        now: int) -> bool:
        bank = self.channel.pseudo_channel(pc).bank(
            target.bank_group, target.bank, target.stack_id)
        return bank.has_open_row(now)

    def _live_can_issue_pre(self, pc: int, target: RefreshTarget,
                            now: int) -> bool:
        return self.channel.can_issue(self._target_pre_command(pc, target),
                                      now)

    def pick_refresh(self, now: int) -> Optional[SchedulerDecision]:
        """Issue an overdue per-bank refresh if it is critical or convenient."""
        result = self._refresh_sweep(
            now,
            self.refresh_engines,
            can_issue_ref=self._live_can_issue_ref,
            bank_has_open_row=self._live_bank_open,
            can_issue_pre=self._live_can_issue_pre,
        )
        if result is None:
            return None
        action, pc_index, target = result
        if action == "ref":
            return SchedulerDecision(
                command=self._refpb_command(pc_index, target),
                refresh_target=target,
            )
        return SchedulerDecision(
            command=self._target_pre_command(pc_index, target),
            critical_pre=True,
        )

    # --------------------------------------------------------------- picking

    def pick_column(
        self,
        queues: Iterable[Tuple[RequestQueue, bool]],
        now: int,
    ) -> Optional[SchedulerDecision]:
        """Pick the oldest first-ready column command.

        ``queues`` is an iterable of (queue, enabled) pairs in priority
        order, so the controller can prioritize reads or drain writes.
        Queue entries are stored in arrival order, so the first transaction
        that can legally issue is the oldest ready one (FR-FCFS).

        Each bank is tested once per scan: a column command's readiness
        depends only on its pseudo-channel/stack/bank group/bank, RD vs
        WR, the open row (every candidate is a hit on it) and ``now`` --
        never on the column or the request -- so once a bank's oldest hit
        is blocked, its younger hits of the same direction are too.  The
        test is :meth:`Channel.can_issue_column`, on plain ints; a
        :class:`Command` is built only for the pick returned.
        """
        banks = self.channel.banks
        can_issue_column = self.channel.can_issue_column
        # Blocked (bank, direction) pairs, as ``bank_index * 2 + is_read``.
        blocked = set()
        for queue, enabled in queues:
            if not enabled:
                continue
            for transaction in queue:
                if transaction.served:
                    continue
                index = transaction.bank_index
                key = 2 * index + transaction.is_read
                if key in blocked:
                    continue
                coord = transaction.coordinate
                if not banks[index].is_row_hit(coord.row, now):
                    continue
                if can_issue_column(coord.pseudo_channel, coord.stack_id,
                                    coord.bank_group, coord.bank, coord.row,
                                    transaction.is_read, now):
                    return SchedulerDecision(
                        command=self._column_command(transaction),
                        transaction=transaction)
                blocked.add(key)
        return None

    # ----------------------------------------------------------- burst trains

    def plan_train(
        self,
        read_queue: RequestQueue,
        write_queue: RequestQueue,
        backlog: Sequence[Transaction],
        now: int,
        target_ns: int,
        num_picks: int,
        min_steps: int = 4,
    ) -> Optional[ColumnTrain]:
        """Plan a dense run of commands starting at ``now``.

        Returns a :class:`ColumnTrain` covering consecutive evaluation
        instants ``now .. now + N - 1`` during which the per-step scheduler
        would provably (a) issue exactly the planned column, row and
        refresh commands and (b) perform exactly the modeled refills and
        write-drain transitions.  It returns ``None`` in exactly two cases:
        fewer than ``min_steps`` instants remain before ``target_ns``, or
        the dense run ends after fewer than ``min_steps`` instants.  The
        caller then falls back to ordinary single-step evaluation.

        The read queue holds only reads and the write queue only writes
        (``_fill_queues`` routes them so, and so do the modeled refills).

        Soundness argument, mirroring ``ConventionalMemoryController._step``:

        * *refresh*: per-bank refresh is modeled exactly.  The planner
          issues against a copy of each live engine (an issue counter
          over a fixed rotation,
          :class:`~repro.dram.refresh.RefreshRotation`), and every
          covered step at or past the earliest modeled deadline runs
          the same decision skeleton (:meth:`_refresh_sweep`) the
          single-step ``pick_refresh`` uses, against modeled bank/C-A
          state -- so planned trains splice in the REFpb (and, once
          postponement headroom is exhausted, the enabling PRE) at exactly
          the instants the per-step scheduler would issue them, instead of
          ending at the first refresh deadline.  Before that deadline the
          sweep cannot act, so it is skipped;
        * *bank machines*: each queue model keeps, per flat bank index, a
          FIFO of pending entries and its count of pending row hits
          (:class:`_QueueModel`).  A column hit's readiness depends only on
          its bank and direction, so a column pick walks the banks' oldest
          pending hits in queue order, testing each such bank at most once,
          and takes the first ready one -- the entry the per-step queue
          scan would reach first.  A pick queued behind an older miss of
          its bank ends the train;
        * *row work*: ``pick_row`` only acts on a bank whose oldest pending
          transaction is a row miss; the planner walks those banks in the
          order of their FIFO heads and models the row decisions exactly
          (ACT, and the row-conflict PRE once the queue holds no pending
          hit to the open row).  FR-FCFS issues no auto-precharging CAS, so
          no row closes by time passing alone;
        * *picks*: readiness is modeled with exact replicas of the
          pseudo-channel CAS/ACT spacing, turnaround, data-bus, BK-BUS,
          tFAW, bank timing-window, and C/A-reuse checks, seeded from
          read-only snapshots (banks resolve their own transients at
          ``now``, no channel-wide tick needed) and advanced with the same
          update formulas ``issue`` applies;
        * *density*: the train ends at the first instant with no pick, so
          every covered instant issues >= 1 command -- exactly the instants
          the event core would evaluate back-to-back anyway.

        The controller replays every planned command through
        ``Channel.issue``, which validates it once, so a divergence raises.
        """
        last_allowed = target_ns - 1
        if last_allowed < now + min_steps - 1:
            return None
        channel = self.channel

        timing = channel.timing
        tCL, tCWL, burst = timing.tCL, timing.tCWL, timing.burst_ns
        tCCDL = timing.tCCDL
        tRP, tRAS, tRC = timing.tRP, timing.tRAS, timing.tRC
        tRCDRD, tRCDWR = timing.tRCDRD, timing.tRCDWR
        tRFCpb, tREFIpb = timing.tRFCpb, timing.tREFIpb
        engines = [copy.copy(engine) for engine in self.refresh_engines]
        next_due = min((engine.due_ns() for engine in engines), default=None)

        pc_models = [
            _PcModel(pc.cas_state_snapshot(), channel.last_column_ca_time(i),
                     channel.last_row_ca_time(i))
            for i, pc in enumerate(channel.pseudo_channels)
        ]
        # Per-bank and per-bank-group state, indexed by the flat bank index
        # (``Channel.bank_index``) and by ``bank index // banks_per_group``.
        per_group = channel.config.banks_per_group
        bank_models = [_BankModel(bank, now) for bank in channel.banks]
        group_bus = [group.bus_busy_until
                     for pc in channel.pseudo_channels
                     for stack in pc.stacks for group in stack]

        def target_model(pc: int, target: RefreshTarget) -> _BankModel:
            return bank_models[channel.bank_index(
                pc, target.stack_id, target.bank_group, target.bank)]

        # Model-view callbacks for the shared refresh sweep: the same
        # checks ``Channel.can_issue`` performs for REFpb / PRE, applied to
        # the modeled row-C/A and bank state.
        def model_can_issue_ref(pc: int, target: RefreshTarget,
                                t: int) -> bool:
            if t <= pc_models[pc].row_ca_last:
                return False
            bm = target_model(pc, target)
            return (bm.open_row is None and t >= bm.idle_at
                    and t >= bm.next_act and t >= bm.next_refresh)

        def model_bank_open(pc: int, target: RefreshTarget, t: int) -> bool:
            return target_model(pc, target).open_row is not None

        def model_can_issue_pre(pc: int, target: RefreshTarget,
                                t: int) -> bool:
            if t <= pc_models[pc].row_ca_last:
                return False
            return t >= target_model(pc, target).next_pre

        def classify(qm: _QueueModel, txn: Transaction) -> None:
            index = txn.bank_index
            hit = bank_models[index].open_row == txn.coordinate.row
            qm.hits.append(hit)
            fifo = qm.fifos[index]
            if fifo is None:
                fifo = qm.fifos[index] = deque()
            idx = len(qm.hits) - 1
            fifo.append(idx)
            if hit:
                qm.hit_counts[index] += 1
                if qm.first_hits[index] is None:
                    # The newest entry: ``hit_heads`` stays in queue order.
                    qm.first_hits[index] = idx
                    qm.hit_heads.append(idx)
            elif len(fifo) == 1:
                qm.miss_heads.add(index)

        def reclassify(index: int, open_row: Optional[int]) -> None:
            # A modeled ACT/PRE changed bank ``index``'s open row: recompute
            # the hit flags of every pending entry targeting that bank.
            for qm in (rq, wq):
                fifo = qm.fifos[index]
                if not fifo:
                    continue
                hits, entries = qm.hits, qm.entries
                count = 0
                for idx in fifo:
                    flag = (open_row is not None
                            and entries[idx].coordinate.row == open_row)
                    hits[idx] = flag
                    if flag:
                        count += 1
                qm.hit_counts[index] = count
                qm.update_first_hit(index)
                qm.refresh_head(index)

        num_banks = len(bank_models)
        rq = _QueueModel(read_queue, num_banks)
        wq = _QueueModel(write_queue, num_banks)
        for qm in (rq, wq):
            for txn in qm.entries:
                classify(qm, txn)

        backlog_len = len(backlog)

        steps: List[TrainStep] = []
        draining = self._draining_writes
        bi = 0
        undone = None

        for offset in range(_MAX_TRAIN_STEPS):
            t = now + offset
            if t > last_allowed:
                break
            if rq.live == 0 and wq.live == 0 and bi == backlog_len:
                # All modeled work is exhausted, so ``_pending`` went false
                # during the previous step and a draining per-step core
                # stops evaluating there.  Planning further (refresh-only)
                # steps would issue commands at instants the tick core
                # never reaches; end the train and let single-step
                # evaluation handle whatever tail remains.
                break
            step_marks = (bi, draining, rq.mark(), wq.mark())
            serves: List[Tuple[_QueueModel, int]] = []

            # -- 1. refills, with _fill_queues' head-of-line semantics -----
            violated = False
            while bi < backlog_len:
                txn = backlog[bi]
                qm = rq if txn.is_read else wq
                if qm.live >= qm.capacity:
                    # The per-step _fill_queues would have attempted (and
                    # rejected) this push before breaking.
                    qm.rejected += 1
                    break
                qm.entries.append(txn)
                qm.served.append(False)
                classify(qm, txn)
                qm.live += 1
                qm.pushed += 1
                if qm.live > qm.peak:
                    qm.peak = qm.live
                bi += 1

            # -- 1.5 refresh (exact pick_refresh mirror, modeled state) ----
            refresh_decision: Optional[SchedulerDecision] = None
            if next_due is not None and t >= next_due:
                swept = self._refresh_sweep(
                    t, engines, model_can_issue_ref,
                    model_bank_open, model_can_issue_pre)
                if swept is not None:
                    action, pc_index, target = swept
                    index = channel.bank_index(
                        pc_index, target.stack_id, target.bank_group,
                        target.bank)
                    bm = bank_models[index]
                    pcm = pc_models[pc_index]
                    pcm.row_ca_last = t
                    if action == "ref":
                        bm.idle_at = t + tRFCpb
                        if t + tRFCpb > bm.next_act:
                            bm.next_act = t + tRFCpb
                        if t + tREFIpb > bm.next_refresh:
                            bm.next_refresh = t + tREFIpb
                        engines[pc_index].note_refresh_issued(target, t)
                        next_due = min(engine.due_ns()
                                       for engine in engines)
                        refresh_decision = SchedulerDecision(
                            command=self._refpb_command(pc_index, target),
                            refresh_target=target,
                        )
                    else:
                        bm.open_row = None
                        bm.idle_at = t + tRP
                        if t + tRP > bm.next_act:
                            bm.next_act = t + tRP
                        reclassify(index, None)
                        refresh_decision = SchedulerDecision(
                            command=self._target_pre_command(pc_index,
                                                             target),
                            critical_pre=True)

            # -- 2. write-drain hysteresis and queue priority --------------
            draining = self._drain_step(draining, wq.live, wq.capacity)
            if draining or rq.live == 0:
                priority = ((wq, True), (rq, True))
            else:
                priority = ((rq, True), (wq, False))

            # -- 3. column picks (exact pick_column mirror) ----------------
            # A hit's readiness depends only on its bank and direction, so
            # the oldest ready hit -- the entry pick_column's scan reaches
            # first -- is the first ready one among the banks' oldest
            # pending hits, walked in queue order.
            ca_used: Set[int] = set()
            picked: List[Transaction] = []
            for _ in range(num_picks):
                found = None
                for qm, enabled in priority:
                    if not enabled:
                        continue
                    entries = qm.entries
                    for idx in qm.hit_heads:
                        txn = entries[idx]
                        index = txn.bank_index
                        if t < group_bus[index // per_group]:
                            continue
                        is_read = txn.is_read
                        model = bank_models[index]
                        if t < (model.next_read if is_read
                                else model.next_write):
                            continue
                        coord = txn.coordinate
                        pc = coord.pseudo_channel
                        if pc in ca_used:
                            continue
                        pcm = pc_models[pc]
                        if t <= pcm.ca_last:
                            continue
                        if t + (tCL if is_read else tCWL) \
                                < pcm.data_bus_busy_until:
                            continue
                        # The same pure rule PseudoChannel._cas_ready_time
                        # delegates to, applied to the modeled state.
                        if t < cas_ready_time(
                                timing, pcm.last_cas_time,
                                pcm.last_cas_bank_group, pcm.last_cas_stack,
                                pcm.last_cas_was_read,
                                pcm.last_write_data_end, coord.bank_group,
                                coord.stack_id, is_read):
                            continue
                        found = (qm, idx)
                        break
                    if found is not None:
                        break
                if found is None:
                    break
                qm, idx = found
                txn = qm.entries[idx]
                index = txn.bank_index
                fifo = qm.fifos[index]
                if fifo[0] != idx:
                    # The pick is a hit queued behind an older pending
                    # miss of its bank, which the per-bank FIFO model
                    # does not cover: end the train before this step.
                    violated = True
                    break
                fifo.popleft()
                serves.append((qm, idx))
                qm.served[idx] = True
                qm.live -= 1
                qm.serve_count += 1
                qm.hit_counts[index] -= 1
                qm.update_first_hit(index)
                qm.refresh_head(index)
                ca_used.add(txn.coordinate.pseudo_channel)
                picked.append(txn)
            if violated:
                undone = step_marks
                break

            # -- 4. commit column effects: modeled channel-state updates ---
            # The refresh decision leads the step: ``_step`` issues it
            # before any column or row command, and the apply path replays
            # decisions in list order.
            decisions = [refresh_decision] if refresh_decision else []
            for txn in picked:
                coord = txn.coordinate
                is_read = txn.is_read
                pcm = pc_models[coord.pseudo_channel]
                pcm.ca_last = t
                pcm.last_cas_time = t
                pcm.last_cas_bank_group = coord.bank_group
                pcm.last_cas_stack = coord.stack_id
                pcm.last_cas_was_read = is_read
                data_end = t + (tCL if is_read else tCWL) + burst
                if data_end > pcm.data_bus_busy_until:
                    pcm.data_bus_busy_until = data_end
                if not is_read:
                    pcm.last_write_data_end = data_end
                group = txn.bank_index // per_group
                if t + tCCDL > group_bus[group]:
                    group_bus[group] = t + tCCDL
                model = bank_models[txn.bank_index]
                recovery = column_precharge_ready(timing, is_read, t)
                if recovery > model.next_pre:
                    model.next_pre = recovery
                decisions.append(SchedulerDecision(
                    command=self._column_command(txn), transaction=txn))

            # -- 5. row picks (exact pick_row mirror): the banks whose
            #    oldest pending entry is a miss, in the order of those
            #    entries.  A refresh-path command consumed one unit of the
            #    row budget (``_step``'s ``issued_row_command``).
            row_budget = num_picks - (1 if refresh_decision else 0)
            if rq.miss_heads or wq.miss_heads:
                for _ in range(row_budget):
                    row_pick = None
                    for qm, enabled in priority:
                        if not enabled or not qm.miss_heads:
                            continue
                        fifos = qm.fifos
                        for index in sorted(qm.miss_heads,
                                            key=lambda b: fifos[b][0]):
                            txn = qm.entries[fifos[index][0]]
                            model = bank_models[index]
                            coord = txn.coordinate
                            pcm = pc_models[coord.pseudo_channel]
                            if model.open_row is not None:
                                # Row conflict: precharge only once this
                                # queue holds no hits to the open row.
                                if qm.hit_counts[index] == 0 \
                                        and t > pcm.row_ca_last \
                                        and t >= model.next_pre:
                                    row_pick = ("pre", index, txn, model, pcm)
                                    break
                                continue
                            if t <= pcm.row_ca_last or t < model.idle_at \
                                    or t < model.next_act:
                                continue
                            # Same pure rule PseudoChannel._act_ready_time
                            # delegates to, applied to the modeled state.
                            if t < act_ready_time(
                                    timing, pcm.last_act_time,
                                    pcm.last_act_bank_group, pcm.act_window,
                                    coord.bank_group):
                                continue
                            row_pick = ("act", index, txn, model, pcm)
                            break
                        if row_pick is not None:
                            break
                    if row_pick is None:
                        break
                    action, index, txn, model, pcm = row_pick
                    coord = txn.coordinate
                    pcm.row_ca_last = t
                    if action == "pre":
                        model.open_row = None
                        model.idle_at = t + tRP
                        if t + tRP > model.next_act:
                            model.next_act = t + tRP
                        reclassify(index, None)
                        decisions.append(SchedulerDecision(
                            command=self._pre_command(
                                coord.pseudo_channel, coord.stack_id,
                                coord.bank_group, coord.bank)))
                    else:
                        row = coord.row
                        model.open_row = row
                        if t + tRCDRD > model.next_read:
                            model.next_read = t + tRCDRD
                        if t + tRCDWR > model.next_write:
                            model.next_write = t + tRCDWR
                        if t + tRAS > model.next_pre:
                            model.next_pre = t + tRAS
                        if t + tRC > model.next_act:
                            model.next_act = t + tRC
                        pcm.last_act_time = t
                        pcm.last_act_bank_group = coord.bank_group
                        pcm.act_window.append(t)
                        if len(pcm.act_window) > 4:
                            pcm.act_window.pop(0)
                        reclassify(index, row)
                        decisions.append(SchedulerDecision(
                            command=self._act_command(txn)))

            if not decisions:
                undone = step_marks
                break
            steps.append(TrainStep(time_ns=t, decisions=decisions))

        if undone is not None:
            # The train ends before the undone step, so only the state the
            # result below reads is restored: the backlog cursor, the drain
            # flag, and each queue's entries, served flags and tallies.
            bi, draining, read_mark, write_mark = undone
            for qm, idx in serves:
                qm.served[idx] = False
            rq.rollback(read_mark)
            wq.rollback(write_mark)

        if len(steps) < min_steps:
            return None
        updates = []
        for qm in (rq, wq):
            if qm.pushed == 0 and qm.serve_count == 0 and qm.rejected == 0:
                continue
            survivors = [
                txn for txn, served in zip(qm.entries, qm.served) if not served
            ]
            updates.append(QueueTrainUpdate(
                queue=qm.queue, survivors=survivors,
                pushed=qm.pushed, peak=qm.peak, rejected=qm.rejected,
            ))
        return ColumnTrain(
            steps=steps,
            queue_updates=updates,
            backlog_consumed=bi,
            final_draining=draining,
        )

    def pick_row(
        self,
        queues: Iterable[Tuple[RequestQueue, bool]],
        now: int,
    ) -> Optional[SchedulerDecision]:
        """Pick an ACT (row miss) or a PRE (row conflict).

        A conflicting open row is closed only once ``queue`` holds no
        pending hit to it (open-page: hits are served before the row is
        given up).  The pending hits are counted for every conflicting
        bank in one pass over the queue.
        """
        banks = self.channel.banks
        for queue, enabled in queues:
            if not enabled:
                continue
            heads = queue.oldest_per_bank()
            conflicts: Dict[int, int] = {}
            for index, transaction in heads.items():
                bank = banks[index]
                if bank.has_open_row(now) \
                        and bank.open_row != transaction.coordinate.row:
                    conflicts[index] = bank.open_row
            hits = queue.row_hit_counts(conflicts) if conflicts else conflicts
            for index, transaction in heads.items():
                if index in conflicts:
                    if not hits[index]:
                        coord = transaction.coordinate
                        pre = self._pre_command(
                            coord.pseudo_channel, coord.stack_id,
                            coord.bank_group, coord.bank)
                        if self.channel.can_issue(pre, now):
                            return SchedulerDecision(command=pre)
                    continue
                if banks[index].open_row is not None:
                    continue  # a row hit: column work, not row work
                act = self._act_command(transaction)
                if self.channel.can_issue(act, now):
                    return SchedulerDecision(command=act)
        return None
