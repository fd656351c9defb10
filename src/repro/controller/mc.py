"""Conventional HBM4 memory controller.

Drives one HBM channel (two pseudo channels) with the architecture of
Figure 4: an address-mapping front end, CAM-style read/write request queues,
per-bank state logic (owned by the channel's bank objects: each is its open
row and timing windows), and an FR-FCFS command scheduler with an open-page
row rule and per-bank refresh (REFpb).

Two cores drive it and must agree instant for instant: the tick core
evaluates ``_step`` every nanosecond, and the event core runs the
scheduler's decision loop (:meth:`FrFcfsScheduler.plan_train`) once per
advance, which makes ``_step``'s decisions on the live state and jumps
over the instants at which nothing can issue.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.controller.queues import RequestQueue
from repro.controller.request import (
    MemoryRequest,
    RequestKind,
    Transaction,
    decompose,
)
from repro.controller.scheduler import FrFcfsScheduler, SchedulerDecision
from repro.defaults import DEFAULT_DRAIN_HORIZON_NS
from repro.dram.address import AddressMapping, baseline_hbm4_mapping
from repro.dram.channel import Channel, ChannelConfig
from repro.dram.commands import Command, CommandKind
from repro.dram.energy import EnergyCounters
from repro.dram.refresh import RefreshEngine
from repro.dram.timing import TimingParameters

if TYPE_CHECKING:  # runtime import is lazy: repro.reliability pulls
    # repro.core.ecc, whose package __init__ imports the RoMe controller,
    # which sits beside this module in several import chains.
    from repro.obs.sink import ObsSink
    from repro.reliability.faults import ReliabilityConfig
    from repro.reliability.ras import RasEngine

#: Fields a mapping must share with the controller configuration.
_BANK_GEOMETRY = ("num_pseudo_channels", "num_stack_ids", "num_bank_groups",
                  "banks_per_group")


@dataclass(frozen=True)
class ControllerConfig:
    """Static configuration of the conventional memory controller."""

    timing: TimingParameters = field(default_factory=TimingParameters)
    read_queue_depth: int = 64
    write_queue_depth: int = 64
    enable_refresh: bool = True
    num_bank_groups: int = 4
    banks_per_group: int = 4
    num_stack_ids: int = 1
    num_pseudo_channels: int = 2

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(
            timing=self.timing,
            num_pseudo_channels=self.num_pseudo_channels,
            num_bank_groups=self.num_bank_groups,
            banks_per_group=self.banks_per_group,
            num_stack_ids=self.num_stack_ids,
        )

    @property
    def banks_per_pseudo_channel(self) -> int:
        return self.num_bank_groups * self.banks_per_group * self.num_stack_ids

    def local_mapping(self, num_channels: int = 1) -> AddressMapping:
        """Address mapping consistent with this controller's bank topology."""
        return AddressMapping(
            granularity_bytes=self.timing.access_granularity_bytes,
            num_channels=num_channels,
            num_pseudo_channels=self.num_pseudo_channels,
            num_stack_ids=self.num_stack_ids,
            num_bank_groups=self.num_bank_groups,
            banks_per_group=self.banks_per_group,
            columns_per_row=self.timing.columns_per_row,
        )


@dataclass
class ControllerStats:
    """Aggregate statistics of one controller run.

    ``evaluations`` counts scheduler evaluations: one per ``_step`` and one
    per call of the event core's decision loop
    (:meth:`FrFcfsScheduler.plan_train`), however many instants it walks.
    ``instants`` counts the instants those evaluations decide: one per
    ``_step``, and each instant the loop visits (those that issue and the
    idle ones it lands on before jumping).  Both are excluded from equality
    so cores that reach identical results with different counts still
    compare equal -- they are observability counters of the event core,
    not simulation outputs.
    """

    served_reads: int = 0
    served_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_latencies: List[int] = field(default_factory=list)
    refreshes_issued: int = 0
    evaluations: int = field(default=0, compare=False)
    instants: int = field(default=0, compare=False)

    @property
    def average_read_latency(self) -> float:
        if not self.read_latencies:
            return 0.0
        return sum(self.read_latencies) / len(self.read_latencies)

    def as_dict(self) -> Dict[str, int]:
        """Scalar counters under their unified-namespace names."""
        return {
            "served_reads": self.served_reads,
            "served_writes": self.served_writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "refreshes_issued": self.refreshes_issued,
            "evaluations": self.evaluations,
        }


class ConventionalMemoryController:
    """The baseline (HBM4) memory controller for one channel."""

    def __init__(
        self,
        config: Optional[ControllerConfig] = None,
        mapping: Optional[AddressMapping] = None,
        channel_id: int = 0,
        reliability: Optional[ReliabilityConfig] = None,
        obs: Optional[ObsSink] = None,
    ) -> None:
        self.config = config or ControllerConfig()
        self.mapping = mapping or self.config.local_mapping()
        # Transactions carry the flat bank index their mapping assigns
        # (``AddressMapping.bank_index``), so the mapping must decode to the
        # channel's own bank geometry.
        mismatched = [name for name in _BANK_GEOMETRY
                      if getattr(self.mapping, name) != getattr(self.config, name)]
        if mismatched:
            raise ValueError(
                f"mapping bank geometry differs from the controller's in "
                f"{', '.join(mismatched)}")
        self.channel = Channel(self.config.channel_config(), channel_id=channel_id)
        num_banks = len(self.channel.banks)
        self.read_queue = RequestQueue(self.config.read_queue_depth, num_banks)
        self.write_queue = RequestQueue(self.config.write_queue_depth,
                                        num_banks)
        #: Host-side backlog: transactions waiting for queue space. Models
        #: the limited look-ahead a finite CAM provides.
        self._backlog: Deque[Transaction] = deque()
        refresh_engines: List[RefreshEngine] = []
        if self.config.enable_refresh:
            refresh_engines = [
                RefreshEngine(
                    timing=self.config.timing,
                    num_stack_ids=self.config.num_stack_ids,
                    num_bank_groups=self.config.num_bank_groups,
                    banks_per_group=self.config.banks_per_group,
                )
                for _ in range(self.config.num_pseudo_channels)
            ]
        self.scheduler = FrFcfsScheduler(
            channel=self.channel,
            refresh_engines=refresh_engines,
        )
        self.stats = ControllerStats()
        self._pending_transactions: Dict[int, int] = {}
        self._requests: Dict[int, MemoryRequest] = {}
        # RAS: per-transaction ECC classification plus the retry-replay
        # heap.  Inactive (no config, or all-zero rates) keeps every hook
        # short-circuited so the baseline path stays bit-identical.
        self.ras: Optional[RasEngine] = None
        self._ras_active = False
        self._retries: List[Tuple[int, int, Transaction]] = []
        self._retry_seq = 0
        if reliability is not None:
            from repro.reliability.ras import RasEngine as _RasEngine

            cfg = self.config
            banks = [
                (pc, sid, bg, bank)
                for pc in range(cfg.num_pseudo_channels)
                for sid in range(cfg.num_stack_ids)
                for bg in range(cfg.num_bank_groups)
                for bank in range(cfg.banks_per_group)
            ]
            self.ras = _RasEngine(
                reliability, cfg.timing.access_granularity_bytes, banks)
            self._ras_active = self.ras.active
        # Observability: deterministic trace/metrics sink.  ``None`` (the
        # default, and whenever the spec's ObsConfig is disabled) keeps
        # every hook short-circuited on one ``is not None`` check, so the
        # unobserved path stays bit-identical to the pre-obs tree.
        self._obs = obs
        self.now = 0

    # -------------------------------------------------------------- enqueue

    def enqueue(self, request: MemoryRequest) -> None:
        """Accept a host request and split it into DRAM transactions."""
        transactions = decompose(request, self.mapping)
        if not transactions:
            request.completion_ns = request.arrival_ns
            return
        self._requests[request.request_id] = request
        self._pending_transactions[request.request_id] = len(transactions)
        remap = self._ras_active and bool(self.ras.offline)
        for transaction in transactions:
            if remap:
                # Graceful degradation: re-stripe transactions aimed at
                # an offlined bank across the healthy ones (in-flight and
                # queued work drains where it is).
                coord = transaction.coordinate
                key = (coord.pseudo_channel, coord.stack_id,
                       coord.bank_group, coord.bank)
                target = self.ras.remap(key, coord.row)
                if target != key:
                    coord = coord._replace(
                        pseudo_channel=target[0], stack_id=target[1],
                        bank_group=target[2], bank=target[3])
                    transaction.coordinate = coord
                    transaction.bank_index = self.mapping.bank_index(coord)
            self._backlog.append(transaction)

    # ---------------------------------------------------------------- RAS

    def _schedule_retry(self, transaction: Transaction,
                        ready_ns: int) -> None:
        """Queue a command replay of one 32 B read at ``ready_ns``.

        The replay is a fresh single-transaction read request aimed at the
        exact same DRAM coordinate (decompose is bypassed); it registers
        in the completion bookkeeping immediately so drain loops keep
        running until the replay lands.
        """
        source = transaction.request
        retry_request = MemoryRequest(
            kind=RequestKind.READ, address=source.address,
            size_bytes=transaction.size_bytes, arrival_ns=ready_ns,
            retry_attempt=source.retry_attempt + 1)
        self._requests[retry_request.request_id] = retry_request
        self._pending_transactions[retry_request.request_id] = 1
        retry = Transaction(
            request=retry_request, coordinate=transaction.coordinate,
            size_bytes=transaction.size_bytes, arrival_ns=ready_ns,
            is_read=True, bank_index=transaction.bank_index)
        self._retry_seq += 1
        heapq.heappush(self._retries, (ready_ns, self._retry_seq, retry))

    def _ras_step(self, now: int) -> None:
        """Run scrub passes due by ``now`` and admit ready retries."""
        self.ras.run_scrub(now)
        if self._retries and self._retries[0][0] <= now:
            ready: List[Transaction] = []
            while self._retries and self._retries[0][0] <= now:
                ready.append(heapq.heappop(self._retries)[2])
            # Replays jump the backlog (they are the oldest traffic in
            # the system); earliest-ready first.
            self._backlog.extendleft(reversed(ready))

    def _ras_wake(self, now: int) -> Optional[int]:
        """Earliest future instant the RAS layer needs an evaluation."""
        wake = self.ras.next_event_ns(now)
        if self._retries:
            ready = self._retries[0][0]
            if wake is None or ready < wake:
                wake = ready
        return wake

    def _fill_queues(self) -> None:
        while self._backlog:
            transaction = self._backlog[0]
            queue = self.read_queue if transaction.is_read else self.write_queue
            if not queue.push(transaction):
                break
            self._backlog.popleft()

    # ------------------------------------------------------------------ tick

    def _step(self, now: int) -> bool:
        """One scheduling evaluation at ``now``; True if any command issued.

        The tick core's scheduler, and the reference the event core
        (:meth:`FrFcfsScheduler.plan_train`) is checked against.
        """
        self.stats.evaluations += 1
        self.stats.instants += 1
        if self._ras_active:
            self._ras_step(now)
        self._fill_queues()
        timing = self.config.timing
        issued_any = False

        # 1. Refresh has priority when it can no longer be postponed.
        refresh_decision = self.scheduler.pick_refresh(now)
        issued_row_command = False
        if refresh_decision is not None:
            self._issue(refresh_decision, now)
            self._note_row(refresh_decision.command)
            issued_row_command = True
            issued_any = True

        # 2. Column commands (row hits), one per pseudo channel, respecting
        #    write-drain mode.
        priority = self.scheduler.queue_priority(self.read_queue,
                                                 self.write_queue)
        for _ in range(self.config.num_pseudo_channels):
            transaction = self.scheduler.pick_column(priority, now)
            if transaction is None:
                break
            self._issue_column(transaction, now)
            if transaction.is_read:
                self.read_queue.remove(transaction)
            else:
                self.write_queue.remove(transaction)
            issued_any = True

        # 3. Row commands (ACT or row-conflict PRE), one per pseudo channel.
        row_budget = self.config.num_pseudo_channels - (1 if issued_row_command else 0)
        for _ in range(row_budget):
            row_decision = self.scheduler.pick_row(priority, now)
            if row_decision is None:
                break
            self._issue(row_decision, now)
            self._note_row(row_decision.command)
            issued_any = True

        if issued_any and self._obs is not None:
            self._trace_evaluation(now)
        return issued_any

    def _trace_evaluation(self, now: int) -> None:
        """Record a decision-bearing instant (one that issued a command).

        Only those are traced, by ``_step`` and the event core's loop
        alike, so the tick and event cores record the same bytes: a no-op
        wake-up depends on which boundary instants an advance lands on (a
        checkpoint cut evaluates once at its ``at_ns`` where the
        uninterrupted run does not).  ``stats.evaluations`` and
        ``stats.instants`` count every evaluation (``compare=False``).
        """
        obs = self._obs
        obs.event(now, "scheduler.eval")
        obs.count(now, "controller.evaluations")
        obs.gauge(now, "controller.queue_depth",
                  self.read_queue.occupancy + self.write_queue.occupancy
                  + len(self._backlog))

    def tick(self) -> None:
        """Advance the controller by one nanosecond (legacy tick core)."""
        self._step(self.now)
        self.now += 1

    def _issue_column(self, transaction: Transaction, now: int) -> None:
        """Issue the RD or WR that serves ``transaction`` and book it
        served (shared by ``_step`` and the event core's loop so they
        cannot drift; its queue entry is the caller's to retire)."""
        coord = transaction.coordinate
        is_read = transaction.is_read
        self.channel.issue_column(
            coord.pseudo_channel, CommandKind.RD if is_read else CommandKind.WR,
            coord.stack_id, coord.bank_group, coord.bank, coord.row, now)
        timing = self.config.timing
        data_ns = now + (timing.tCL if is_read else timing.tCWL) \
            + timing.burst_ns
        obs = self._obs
        if obs is not None:
            obs.count(data_ns, "controller.bandwidth_bytes",
                      float(transaction.size_bytes))
        if self._ras_active and is_read:
            # Classify the read at its issue instant (the draw key); a
            # DUE verdict schedules a command replay after the data would
            # have returned, plus deterministic backoff.
            offlined = self.ras.stats.offlined_banks
            verdict = self.ras.on_read(
                (coord.pseudo_channel, coord.stack_id, coord.bank_group,
                 coord.bank),
                coord.row, now,
                attempt=transaction.request.retry_attempt)
            if verdict.retry_delay_ns is not None:
                self._schedule_retry(
                    transaction, data_ns + verdict.retry_delay_ns)
            if obs is not None:
                outcome = verdict.outcome.value
                if outcome != "clean":
                    obs.count(now, f"ras.{outcome}")
                if verdict.retry_delay_ns is not None:
                    obs.event(now, "ras.retry",
                              delay_ns=verdict.retry_delay_ns)
                if verdict.spared_now:
                    obs.event(now, "ras.spare")
                if self.ras.stats.offlined_banks > offlined:
                    obs.event(now, "ras.offline")
        transaction.served = True
        transaction.data_ready_ns = data_ns
        request = transaction.request
        pending = self._pending_transactions
        remaining = pending[request.request_id] - 1
        pending[request.request_id] = remaining
        stats = self.stats
        if is_read:
            stats.served_reads += 1
            stats.bytes_read += transaction.size_bytes
        else:
            stats.served_writes += 1
            stats.bytes_written += transaction.size_bytes
        if remaining == 0:
            request.completion_ns = data_ns
            if request.is_read:
                stats.read_latencies.append(data_ns - request.arrival_ns)
            del pending[request.request_id]
            del self._requests[request.request_id]

    def _note_row(self, command: Command) -> None:
        """Keep both queues' bank machines on the row an issued ACT opened
        or PRE closed."""
        kind = command.kind
        if kind is CommandKind.ACT or kind is CommandKind.PRE:
            index = self.channel.bank_index(
                command.pseudo_channel, command.stack_id, command.bank_group,
                command.bank)
            row = command.row if kind is CommandKind.ACT else None
            self.read_queue.note_row(index, row)
            self.write_queue.note_row(index, row)

    def _issue(self, decision: SchedulerDecision, now: int) -> None:
        """Issue a refresh or row command (queue bookkeeping is the
        caller's: :meth:`_note_row`)."""
        self.channel.issue(decision.command, now)
        obs = self._obs
        if decision.refresh_target is not None:
            target = decision.refresh_target
            engine = self.scheduler.refresh_engines[decision.command.pseudo_channel]
            if obs is not None:
                # Criticality is judged against the pre-issue deadline
                # (note_refresh_issued advances it below).
                obs.event(now, "refresh.issue",
                          track=f"{obs.track}/{target.track}",
                          bank=target.bank,
                          critical=engine.is_critical(target, now))
                obs.count(now, "controller.refreshes")
            engine.note_refresh_issued(target, now)
            self.stats.refreshes_issued += 1
            if obs is not None:
                obs.gauge(now, "refresh.debt", engine.refresh_debt(now))
            if self._ras_active:
                # Reset the bank's retention clock (retention-fault means
                # scale with time since refresh/scrub).
                self.ras.note_refresh(
                    (decision.command.pseudo_channel, target.stack_id,
                     target.bank_group, target.bank), now)
        elif obs is not None and decision.critical_pre:
            obs.event(now, "refresh.critical_pre")
            obs.count(now, "controller.critical_pres")

    # ------------------------------------------------------- event-driven core

    def next_event_ns(self) -> Optional[int]:
        """The first instant at which an evaluation could change state.

        The earliest instant an evaluation could issue a command
        (:meth:`FrFcfsScheduler.ready_ns`: ``now`` itself when backlog
        entries wait for queue room that is free, else the earliest ready
        instant of the heads and the refresh sweep), or, under active RAS,
        admit a retry or run a scrub.  It may be ``now`` or earlier when
        the controller can act at once; no command can issue strictly
        before it.
        """
        now = self.now
        best = self.scheduler.ready_ns(self.read_queue, self.write_queue,
                                       self._backlog, now)
        if self._ras_active:
            candidate = self._ras_wake(now)
            if candidate is not None and (best is None or candidate < best):
                best = candidate
        return best

    def _pending(self) -> bool:
        return bool(
            self._backlog or not self.read_queue.is_empty
            or not self.write_queue.is_empty or self._pending_transactions
            or self._retries
        )

    def _advance(self, target_ns: int, stop_when_idle: bool = False) -> None:
        """Event-driven advance to ``target_ns`` (or until drained).

        Scheduling decisions are purely a function of (time, state), and
        state only changes when a command issues, so the event core
        evaluates only the instants that can issue: one call of the
        decision loop (:meth:`FrFcfsScheduler.plan_train`) walks them on
        the live state and jumps over the rest.  It stops at ``target_ns``,
        so externally scheduled arrivals (``Simulation.at``) still land
        cycle-exactly.

        Active RAS pins the event core to single-step evaluation: the loop
        runs neither retry admissions nor scrub instants.  After an idle
        step the controller jumps to :meth:`next_event_ns`.
        """
        if not self._ras_active:
            self.scheduler.plan_train(self, target_ns, stop_when_idle)
            return
        while self.now < target_ns:
            now = self.now
            acted = self._step(now)
            if stop_when_idle and not self._pending():
                self.now = now + 1
                return
            if acted:
                self.now = now + 1
                continue
            wake = self.next_event_ns()
            if wake is None:
                self.now = target_ns
            else:
                self.now = min(max(wake, now + 1), target_ns)

    def advance_to(self, target_ns: int) -> None:
        """Advance to ``target_ns`` exactly, skipping event-free spans."""
        self._advance(target_ns)

    # ------------------------------------------------------------------ run

    def run_until_idle(self, max_ns: int = DEFAULT_DRAIN_HORIZON_NS,
                       event_driven: bool = True) -> int:
        """Run until all accepted requests have completed; returns end time."""
        while self._pending():
            if self.now >= max_ns:
                raise RuntimeError(
                    f"controller did not drain within {max_ns} ns; "
                    f"{len(self._pending_transactions)} requests outstanding"
                )
            if event_driven:
                self._advance(max_ns, stop_when_idle=True)
            else:
                self.tick()
        return self.now

    def run_for(self, duration_ns: int, event_driven: bool = True) -> None:
        end = self.now + duration_ns
        if event_driven:
            self.advance_to(end)
        else:
            while self.now < end:
                self.tick()

    # ---------------------------------------------------------------- stats

    @property
    def outstanding_requests(self) -> int:
        return len(self._pending_transactions)

    def bandwidth_utilization(self) -> float:
        """Fraction of peak data bandwidth delivered so far."""
        if self.now == 0:
            return 0.0
        peak = self.channel.config.peak_bandwidth_bytes_per_ns
        delivered = (self.stats.bytes_read + self.stats.bytes_written) / self.now
        return delivered / peak

    def energy_counters(self) -> EnergyCounters:
        """Collect counters needed by the energy model."""
        commands = self.channel.command_counts()
        activates = commands.get("ACT", 0)
        precharges = commands.get("PRE", 0) + commands.get("PREA", 0)
        interface_commands = sum(commands.values())
        return EnergyCounters(
            activates=activates,
            precharges=precharges,
            reads_bytes=self.stats.bytes_read,
            writes_bytes=self.stats.bytes_written,
            interface_commands=interface_commands,
            refreshes=commands.get("REFpb", 0) + commands.get("REFab", 0),
            elapsed_ns=float(self.now),
            num_channels=1,
            row_bytes=self.config.timing.row_size_bytes,
        )
