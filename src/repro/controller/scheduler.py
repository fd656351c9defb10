"""FR-FCFS command scheduling for the conventional controller.

The scheduler implements the First-Ready, First-Come-First-Served policy used
by the paper's baseline (Section VI-A): column commands to already-open rows
are preferred over row commands, and within each class the oldest transaction
wins.  It also handles write draining, the open-page precharge rule (close a
row only once the queue holds no pending hit to it), and per-bank refresh
with bounded postponement.

Burst trains
------------
A busy HBM4 channel issues a column command nearly every nanosecond, so
the event-driven controller core degenerates to one full scheduler evaluation
per nanosecond.  :meth:`FrFcfsScheduler.plan_train` closes that gap: it
models the upcoming evaluations (row hits to already-open rows, ACT/PRE row
work, and the REFpb/critical-PRE issues the refresh engines force) instant by
instant -- per-step picks, refresh splices, refill admissions, and
write-drain state -- through the instants that issue nothing as well, and
returns the whole busy period as one :class:`ColumnTrain` the controller
bulk-applies in one evaluation.  The planner only *models* state (pure
reads); the controller's apply path replays the planned commands through
the ordinary ``Channel.issue`` and ``Channel.issue_column`` validation (one
check per command, bank included), so a planner divergence raises instead of
silently corrupting results.  When no instant before ``target_ns`` would
issue, the planner returns ``None`` and the controller falls back to
single-step evaluation, keeping results bit-identical to the per-nanosecond
core by construction.

Bank machines
-------------
Work is organised per bank, as in gram/LiteDRAM's bank machines and
multiplexer.  The bank machines live in the request queues
(:class:`~repro.controller.queues.RequestQueue`): per flat bank index a FIFO
of pending entries and the count of those hitting the open row, and across
banks the admission-ordered hit heads and miss heads.  They persist across
evaluations; the controller updates them on push, on issue, and on every ACT
and PRE.  A column pick walks the hit heads, testing each bank once, and a
row pick walks the miss heads.  Readiness is asked of the channel with plain
ints (``Channel.can_issue_column``), and a column command issues the same way
(``Channel.issue_column``), so no :class:`~repro.dram.commands.Command` is
built for it.  The train planner models its run on forks of the live queues,
so it starts from their machines instead of classifying every entry.  A bank
is its open row and timing windows (:class:`~repro.dram.bank.Bank`), so
nothing about it changes by time passing and no evaluation sweeps the
channel with a tick.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

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
    """A refresh or row command chosen for issue.

    ``critical_pre`` marks a precharge forced by a critical refresh (the
    escalation path of :meth:`FrFcfsScheduler.pick_refresh`), which is
    otherwise indistinguishable from a row-conflict precharge at issue time.
    Column picks are transactions, not decisions (:meth:`pick_column`).
    """

    command: Command
    refresh_target: Optional[RefreshTarget] = None
    critical_pre: bool = False


@dataclass
class TrainStep:
    """One planned evaluation instant of a burst train: its refresh
    decision (if any), its column transactions and its row decisions, in
    the order ``_step`` issues them."""

    time_ns: int
    refresh: Optional[SchedulerDecision]
    columns: List[Transaction]
    rows: List[SchedulerDecision]


@dataclass
class ColumnTrain:
    """An analytically planned run of evaluation instants.

    The train covers every instant from the one it was planned at through
    ``end_ns``; ``steps`` hold the covered instants that issue at least
    one command, in time order (an instant that issues nothing changes no
    state, so it has no step).  The rest is the state ``end_ns`` leaves,
    which the controller installs in bulk: the queues (their entries and
    bank machines), how many backlog entries they admitted, and the
    write-drain flag.
    """

    steps: List[TrainStep]
    end_ns: int
    read_queue: RequestQueue
    write_queue: RequestQueue
    backlog_consumed: int
    final_draining: bool


class _PcModel:
    """Modeled command-timing state of one pseudo channel during planning.

    Mirrors exactly the fields ``PseudoChannel._column_slot_free`` (CAS
    spacing and the data-bus check) and the ACT check of ``can_issue``
    read, plus the per-bus C/A reuse tracked by the channel.  Initialized
    from read-only snapshots and updated per planned issue with the same
    formulas ``issue`` applies.
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
    """Modeled per-bank state during planning (mirrors ``Bank``: the open
    row and the timing windows)."""

    __slots__ = ("open_row", "next_read", "next_write", "next_pre",
                 "next_act", "next_refresh")

    def __init__(self, bank: Bank) -> None:
        self.open_row = bank.open_row
        self.next_read = bank.next_read
        self.next_write = bank.next_write
        self.next_pre = bank.next_pre
        self.next_act = bank.next_act
        self.next_refresh = bank.next_refresh


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
        return bank.open_row is not None

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

    # ----------------------------------------------------------- burst trains

    def plan_train(
        self,
        read_queue: RequestQueue,
        write_queue: RequestQueue,
        backlog: Sequence[Transaction],
        now: int,
        target_ns: int,
        num_picks: int,
    ) -> Optional[ColumnTrain]:
        """Plan the evaluations from ``now`` on as one train.

        Returns a :class:`ColumnTrain` covering the evaluation instants
        ``now .. end_ns`` during which the per-step scheduler would provably
        (a) issue exactly the planned column, row and refresh commands and
        (b) perform exactly the modeled refills and write-drain
        transitions.  The train ends at ``target_ns - 1``, at the
        ``_MAX_TRAIN_STEPS``-instant window, or before the first instant at
        which the modeled queues and backlog are empty.  It returns ``None``
        when both queues and the backlog are empty, when ``target_ns`` is
        not after ``now``, or when no covered instant issues a command.
        The caller then falls back to ordinary single-step evaluation.

        The read queue holds only reads and the write queue only writes
        (``_fill_queues`` routes them so, and so do the modeled refills).

        Soundness argument, mirroring ``ConventionalMemoryController._step``:

        * *refresh*: per-bank refresh is modeled exactly.  The planner
          issues against a copy of each live engine (an issue counter
          over a fixed rotation,
          :class:`~repro.dram.refresh.RefreshRotation`), and every
          covered step at which the sweep could act runs the same decision
          skeleton (:meth:`_refresh_sweep`) the single-step
          ``pick_refresh`` uses, against modeled bank/C-A state -- so
          planned trains splice in the REFpb (and, once postponement
          headroom is exhausted, the enabling PRE) at exactly the instants
          the per-step scheduler would issue them.  The sweep runs from the
          earliest modeled deadline on; after a sweep that finds nothing it
          sleeps until the earliest instant any engine could act (its
          deadline; or, for a due target, the instant its closed bank takes
          a REFpb, or its open bank's criticality and PRE window), and
          every modeled row command or refresh wakes it at the next
          instant, since only those change what it reads;
        * *bank machines*: each queue is modeled on a
          :meth:`~repro.controller.queues.RequestQueue.fork` of the live
          queue, which starts from its bank machines (per-bank FIFOs, hit
          counts, hit heads and miss heads) and changes by the same
          ``push``/``remove``/``note_row`` the controller applies.  A
          column hit's readiness depends only on its bank and direction,
          so a column pick walks the hit heads in admission order, testing
          each bank at most once, and takes the first ready one -- the
          entry ``pick_column`` would return, also when it waits behind an
          older miss of its bank;
        * *row work*: ``pick_row`` only acts on a bank whose oldest pending
          transaction is a row miss; the planner walks the same miss heads
          and models the row decisions exactly (ACT, and the row-conflict
          PRE once the queue holds no pending hit to the open row).
          FR-FCFS issues no auto-precharging CAS, so no row closes by time
          passing alone;
        * *picks*: readiness is modeled with exact replicas of the
          pseudo-channel CAS/ACT spacing, turnaround, data-bus, BK-BUS,
          tFAW, bank open-row and timing-window, and C/A-reuse checks,
          seeded from read-only snapshots and advanced with the same
          update formulas ``issue`` applies;
        * *idle instants*: an instant with no pick changes no modeled
          state (the refill finds the same full queue, the drain
          hysteresis the same occupancy), exactly as a per-step evaluation
          that issues nothing changes none, so the train runs through it
          and records no step for it.

        The controller issues every planned command on the live channel
        -- columns through ``Channel.issue_column``, refresh and row
        commands through ``Channel.issue`` -- each validated once before it
        changes any state, so a divergence raises.  It then installs the
        modeled queues as the live ones.
        """
        if target_ns <= now:
            return None
        if read_queue.is_empty and write_queue.is_empty and not backlog:
            return None
        channel = self.channel

        timing = channel.timing
        tCL, tCWL, burst = timing.tCL, timing.tCWL, timing.burst_ns
        tCCDL = timing.tCCDL
        tRP, tRAS, tRC = timing.tRP, timing.tRAS, timing.tRC
        tRCDRD, tRCDWR = timing.tRCDRD, timing.tRCDWR
        tRFCpb, tREFIpb = timing.tRFCpb, timing.tREFIpb
        engines = [copy.copy(engine) for engine in self.refresh_engines]
        # The first instant the refresh sweep could act: no engine acts
        # before its earliest deadline.
        sweep_at = min((engine.due_ns() for engine in engines), default=None)

        pc_models = [
            _PcModel(pc.cas_state_snapshot(), channel.last_column_ca_time(i),
                     channel.last_row_ca_time(i))
            for i, pc in enumerate(channel.pseudo_channels)
        ]
        # Per-bank and per-bank-group state, indexed by the flat bank index
        # (``Channel.bank_index``) and by ``bank index // banks_per_group``.
        per_group = channel.config.banks_per_group
        per_pc = channel.config.banks_per_pseudo_channel
        bank_models = [_BankModel(bank) for bank in channel.banks]
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
            return (bm.open_row is None and t >= bm.next_act
                    and t >= bm.next_refresh)

        def model_bank_open(pc: int, target: RefreshTarget, t: int) -> bool:
            return target_model(pc, target).open_row is not None

        def model_can_issue_pre(pc: int, target: RefreshTarget,
                                t: int) -> bool:
            if t <= pc_models[pc].row_ca_last:
                return False
            return t >= target_model(pc, target).next_pre

        def sweep_wake(t: int) -> int:
            """After a sweep at ``t`` found nothing: the earliest instant
            any engine could act, while no row command or refresh changes
            the models.  An engine with nothing due acts no earlier than
            its deadline; a due target whose bank is closed, once the bank
            takes a REFpb (the checks of ``model_can_issue_ref``); one
            whose bank is open, once the target is critical and the bank
            takes its PRE (``model_can_issue_pre``)."""
            wake = None
            for pc, engine in enumerate(engines):
                target = engine.most_urgent(t)
                if target is None:
                    at = engine.due_ns()
                else:
                    bm = target_model(pc, target)
                    ca_free = pc_models[pc].row_ca_last + 1
                    if bm.open_row is None:
                        at = max(bm.next_act, bm.next_refresh, ca_free)
                    else:
                        at = max(target.due_time + engine.slack_ns(),
                                 bm.next_pre, ca_free)
                if wake is None or at < wake:
                    wake = at
            return wake

        # The queue models are forks of the live queues: they start from
        # the live bank machines and change by the same push, remove and
        # note_row the controller applies.
        rq = read_queue.fork()
        wq = write_queue.fork()
        backlog_len = len(backlog)

        steps: List[TrainStep] = []
        draining = self._draining_writes
        bi = 0
        t = now
        last = min(target_ns, now + _MAX_TRAIN_STEPS) - 1
        while t <= last:
            if rq.is_empty and wq.is_empty and bi == backlog_len:
                # All modeled work is exhausted, so ``_pending`` went false
                # during the previous step and a draining per-step core
                # stops evaluating there.  Planning further (refresh-only)
                # steps would issue commands at instants the tick core
                # never reaches; end the train and let single-step
                # evaluation handle whatever tail remains.
                break

            # -- 1. refills, with _fill_queues' head-of-line semantics -----
            while bi < backlog_len:
                txn = backlog[bi]
                if not (rq if txn.is_read else wq).push(txn):
                    break
                bi += 1

            # -- 1.5 refresh (exact pick_refresh mirror, modeled state) ----
            # The sweep runs only from the instant it could act: a sweep
            # that finds nothing sleeps until ``sweep_wake``, and every
            # modeled row command or refresh wakes it the next instant.
            refresh_decision: Optional[SchedulerDecision] = None
            if sweep_at is not None and t >= sweep_at:
                swept = self._refresh_sweep(
                    t, engines, model_can_issue_ref,
                    model_bank_open, model_can_issue_pre)
                if swept is None:
                    sweep_at = sweep_wake(t)
                else:
                    sweep_at = t + 1
                    action, pc_index, target = swept
                    index = channel.bank_index(
                        pc_index, target.stack_id, target.bank_group,
                        target.bank)
                    bm = bank_models[index]
                    pcm = pc_models[pc_index]
                    pcm.row_ca_last = t
                    if action == "ref":
                        if t + tRFCpb > bm.next_act:
                            bm.next_act = t + tRFCpb
                        if t + tREFIpb > bm.next_refresh:
                            bm.next_refresh = t + tREFIpb
                        engines[pc_index].note_refresh_issued(target, t)
                        refresh_decision = SchedulerDecision(
                            command=self._refpb_command(pc_index, target),
                            refresh_target=target,
                        )
                    else:
                        bm.open_row = None
                        if t + tRP > bm.next_act:
                            bm.next_act = t + tRP
                        rq.note_row(index, None)
                        wq.note_row(index, None)
                        refresh_decision = SchedulerDecision(
                            command=self._target_pre_command(pc_index,
                                                             target),
                            critical_pre=True)

            # -- 2. write-drain hysteresis and queue priority --------------
            draining = self._drain_step(draining, len(wq), wq.capacity)
            if draining or rq.is_empty:
                priority = ((wq, True), (rq, True))
            else:
                priority = ((rq, True), (wq, False))

            # -- 3. column picks (exact pick_column mirror) ----------------
            # A hit's readiness depends only on its bank and direction, so
            # the oldest ready hit is the first ready one among the banks'
            # oldest pending hits, walked in admission order.  Picks leave
            # the models only once all are known: each takes its pseudo
            # channel's column C/A slot, so a pick's bank cannot supply a
            # later pick of the same step anyway.
            ca_used: Set[int] = set()
            picked: List[Tuple[RequestQueue, Transaction]] = []
            for _ in range(num_picks):
                found = None
                for qm, enabled in priority:
                    if not enabled:
                        continue
                    entries = qm.entries
                    for seq in qm.hit_heads:
                        txn = entries[seq]
                        index = txn.bank_index
                        pc = index // per_pc
                        if pc in ca_used:
                            continue
                        if t < group_bus[index // per_group]:
                            continue
                        is_read = txn.is_read
                        model = bank_models[index]
                        if t < (model.next_read if is_read
                                else model.next_write):
                            continue
                        pcm = pc_models[pc]
                        if t <= pcm.ca_last:
                            continue
                        coord = txn.coordinate
                        if t + (tCL if is_read else tCWL) \
                                < pcm.data_bus_busy_until:
                            continue
                        # The same pure rule PseudoChannel._column_slot_free
                        # applies, on the modeled state.
                        if t < cas_ready_time(
                                timing, pcm.last_cas_time,
                                pcm.last_cas_bank_group, pcm.last_cas_stack,
                                pcm.last_cas_was_read,
                                pcm.last_write_data_end, coord.bank_group,
                                coord.stack_id, is_read):
                            continue
                        found = (qm, txn)
                        break
                    if found is not None:
                        break
                if found is None:
                    break
                ca_used.add(found[1].bank_index // per_pc)
                picked.append(found)

            # -- 4. commit column effects: modeled channel-state updates ---
            columns: List[Transaction] = []
            for qm, txn in picked:
                qm.remove(txn)
                columns.append(txn)
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

            # -- 5. row picks (exact pick_row mirror): the banks whose
            #    oldest pending entry is a miss, in admission order.  A
            #    refresh-path command consumed one unit of the row budget
            #    (``_step``'s ``issued_row_command``).
            rows: List[SchedulerDecision] = []
            row_budget = num_picks - (1 if refresh_decision else 0)
            if not (rq.miss_heads or wq.miss_heads):
                row_budget = 0
            for _ in range(row_budget):
                row_pick = None
                for qm, enabled in priority:
                    if not enabled:
                        continue
                    entries = qm.entries
                    for seq in qm.miss_heads:
                        txn = entries[seq]
                        index = txn.bank_index
                        model = bank_models[index]
                        coord = txn.coordinate
                        pcm = pc_models[coord.pseudo_channel]
                        if model.open_row is not None:
                            # Row conflict: precharge only once this queue
                            # holds no hits to the open row.
                            if not qm.hit_count(index) \
                                    and t > pcm.row_ca_last \
                                    and t >= model.next_pre:
                                row_pick = ("pre", index, txn, model, pcm)
                                break
                            continue
                        if t <= pcm.row_ca_last or t < model.next_act:
                            continue
                        # Same pure rule PseudoChannel.can_issue applies
                        # to an ACT, on the modeled state.
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
                if sweep_at is not None:
                    sweep_at = t + 1
                if action == "pre":
                    model.open_row = None
                    if t + tRP > model.next_act:
                        model.next_act = t + tRP
                    rq.note_row(index, None)
                    wq.note_row(index, None)
                    rows.append(SchedulerDecision(
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
                    rq.note_row(index, row)
                    wq.note_row(index, row)
                    rows.append(SchedulerDecision(
                        command=self._act_command(txn)))

            if refresh_decision or columns or rows:
                steps.append(TrainStep(time_ns=t, refresh=refresh_decision,
                                       columns=columns, rows=rows))
            t += 1

        if not steps:
            return None
        return ColumnTrain(steps=steps, end_ns=t - 1, read_queue=rq,
                           write_queue=wq, backlog_consumed=bi,
                           final_draining=draining)

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
