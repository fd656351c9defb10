"""The simplified RoMe memory controller (Section V-A).

Compared with the conventional controller, the RoMe MC tracks only:

* four bank states (Idle, Reading, Writing, Refreshing),
* the ten timing parameters of Table III,
* five bank finite-state machines (two for data access, three for refresh),
* a request queue of just a few entries (two suffice to saturate bandwidth),
* a scheduler that serves the oldest ready request while avoiding
  back-to-back commands to the same VBA.

The controller operates directly at row granularity; the conventional command
sequencing lives in the logic-die command generator
(:mod:`repro.core.command_generator`), whose per-expansion command counts are
accumulated here for energy accounting.

Simulation core
---------------
The controller exposes two cycle-exact execution modes, driven through
the shared drive layer (:class:`repro.drive.Driven`):

* the tick core, which evaluates :meth:`RoMeMemoryController._step` once
  per nanosecond, and
* the event core (:meth:`RoMeMemoryController.advance_to`), which
  evaluates an instant with the same ``_step``, then jumps straight to
  :meth:`RoMeMemoryController.next_event_ns`, the next *interesting*
  timestamp (VBA release, data-bus free, command-gap expiry, in-flight
  completion, refresh deadline/criticality, RAS wake-up).  Both cores
  produce identical statistics; the event core is what the default
  ``run_until_idle``/``run_for`` paths use.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Tuple)

from repro.core.command_generator import CommandGenerator
from repro.core.interface import RowRequest, RowRequestKind
from repro.core.refresh import RomeRefreshScheduler
from repro.core.timing import ROME_TIMING, RoMeTimingParameters
from repro.core.virtual_bank import VirtualBankConfig, paper_vba_config
from repro.defaults import DEFAULT_DRAIN_HORIZON_NS
from repro.dram.energy import EnergyCounters
from repro.dram.timing import TimingParameters
from repro.drive import Driven
from repro.latency import LatencyAccumulator

if TYPE_CHECKING:  # runtime import is lazy: repro.reliability pulls
    # repro.core.ecc, whose package __init__ imports this module back.
    from repro.obs.sink import ObsSink
    from repro.reliability.faults import ReliabilityConfig
    from repro.reliability.ras import RasEngine


class VbaState(enum.Enum):
    """The four RoMe bank states (Figure 11a)."""

    IDLE = "idle"
    READING = "reading"
    WRITING = "writing"
    REFRESHING = "refreshing"


# Looked up once: each ``Enum.X`` is a descriptor call on Python 3.11, and
# the issue path and the feasibility bound would pay it on every call.
_RD_ROW = RowRequestKind.RD_ROW
_READING, _WRITING = VbaState.READING, VbaState.WRITING


@dataclass(frozen=True)
class RoMeControllerConfig:
    """Static configuration of the RoMe memory controller."""

    timing: RoMeTimingParameters = field(default_factory=lambda: ROME_TIMING)
    conventional_timing: TimingParameters = field(default_factory=TimingParameters)
    vba: VirtualBankConfig = field(default_factory=paper_vba_config)
    request_queue_depth: int = 4
    num_stack_ids: int = 1
    enable_refresh: bool = True
    max_data_fsms: int = 2
    max_refresh_fsms: int = 3

    @property
    def vbas_per_stack(self) -> int:
        return self.vba.vbas_per_channel_per_sid

    @property
    def num_bank_fsms(self) -> int:
        """Bank FSM instances the controller provisions (5 in the paper)."""
        return self.max_data_fsms + self.max_refresh_fsms

    @property
    def peak_bandwidth_bytes_per_ns(self) -> float:
        """Peak data bandwidth of one channel in bytes per nanosecond:
        every pseudo channel moves its base access granularity once per
        ``tCCDS``."""
        return (self.vba.base_access_granularity_bytes
                * self.vba.num_pseudo_channels
                / self.conventional_timing.tCCDS)


@dataclass
class RoMeControllerStats:
    """Aggregate statistics of one RoMe controller run.

    Read latencies are kept in a bounded streaming accumulator
    (:class:`~repro.latency.LatencyAccumulator`) so long-traffic runs do not
    grow memory linearly; ``average_read_latency`` remains exact.
    """

    served_reads: int = 0
    served_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    overfetch_bytes: int = 0
    read_latency: LatencyAccumulator = field(default_factory=LatencyAccumulator)
    refreshes_issued: int = 0
    peak_active_fsms: int = 0
    data_bus_busy_ns: int = 0
    #: Scheduler evaluations performed (one per ``_step``/event-loop
    #: iteration).  Excluded from equality:
    #: it measures the speedup mechanism, not the simulated outcome.
    evaluations: int = field(default=0, compare=False)

    @property
    def average_read_latency(self) -> float:
        return self.read_latency.average

    def as_dict(self) -> Dict[str, int]:
        """Scalar counters under their unified-namespace names."""
        return {
            "served_reads": self.served_reads,
            "served_writes": self.served_writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "overfetch_bytes": self.overfetch_bytes,
            "refreshes_issued": self.refreshes_issued,
            "peak_active_fsms": self.peak_active_fsms,
            "evaluations": self.evaluations,
        }


@dataclass
class _VbaTracker:
    """Dynamic state of one virtual bank."""

    state: VbaState = VbaState.IDLE
    busy_until: int = 0

    def is_free(self, now: int) -> bool:
        return now >= self.busy_until


class RoMeMemoryController(Driven):
    """Row-granularity memory controller for one RoMe channel."""

    def __init__(self, config: Optional[RoMeControllerConfig] = None,
                 channel_id: int = 0,
                 reliability: Optional[ReliabilityConfig] = None,
                 obs: Optional[ObsSink] = None) -> None:
        self.config = config or RoMeControllerConfig()
        self.channel_id = channel_id
        self.timing = self.config.timing
        self.command_generator = CommandGenerator(
            timing=self.config.conventional_timing, vba=self.config.vba
        )
        self.queue: Deque[RowRequest] = deque()
        self._backlog: Deque[RowRequest] = deque()
        self._vbas: Dict[Tuple[int, int], _VbaTracker] = {
            (sid, vba): _VbaTracker()
            for sid in range(self.config.num_stack_ids)
            for vba in range(self.config.vbas_per_stack)
        }
        self.refresh = (
            RomeRefreshScheduler(
                timing=self.config.conventional_timing,
                num_vbas=self.config.vbas_per_stack,
                num_stack_ids=self.config.num_stack_ids,
                banks_per_vba=self.config.vba.banks_per_vba,
            )
            if self.config.enable_refresh
            else None
        )
        self.stats = RoMeControllerStats()
        # Channel-level data-bus bookkeeping: time the bus frees and the
        # direction/stack of the previous row command (for Table III gaps).
        self._bus_free_at = 0
        self._last_was_read: Optional[bool] = None
        self._last_stack: Optional[int] = None
        self._last_issue_ns: Optional[int] = None
        # Busy-VBA bookkeeping: a min-heap of (busy_until, key) plus
        # incremental FSM-occupancy counters, so neither the scheduler nor
        # the event core ever scans all VBAs on the hot path.
        self._busy_heap: List[Tuple[int, Tuple[int, int]]] = []
        self._busy_data_fsms = 0
        self._busy_refresh_fsms = 0
        # Expanded-command counters fed to the energy model.
        self._expanded_activates = 0
        self._expanded_cas = 0
        self._expanded_precharges = 0
        # Precomputed hot-path constants: the Table III gap lookup keyed by
        # (previous_is_read, next_is_read, same_stack), per-kind command
        # durations/occupancies, and the effective row size.
        t = self.timing
        self._gap_table: Dict[Tuple[bool, bool, bool], int] = {
            (True, True, True): t.tR2RS, (True, True, False): t.tR2RR,
            (True, False, True): t.tR2WS, (True, False, False): t.tR2WR,
            (False, True, True): t.tW2RS, (False, True, False): t.tW2RR,
            (False, False, True): t.tW2WS, (False, False, False): t.tW2WR,
        }
        self._duration = {True: t.tRD_row, False: t.tWR_row}
        self._occupancy = {True: t.tR2RS, False: t.tW2WS}
        self._row_bytes = self.config.vba.effective_row_bytes
        # RAS: fault classification and the replays it schedules.  With no
        # config (or a zero-rate one) ``_ras_active`` is False and every
        # hook below short-circuits, keeping the baseline code path
        # bit-identical.
        self.ras: Optional[RasEngine] = None
        self._ras_active = False
        if reliability is not None:
            from repro.reliability.ras import RasEngine as _RasEngine

            self.ras = _RasEngine(
                reliability, self._row_bytes, sorted(self._vbas))
            self._ras_active = self.ras.active
        # Observability: deterministic trace/metrics sink.  ``None`` (the
        # default, and whenever the spec's ObsConfig is disabled) keeps
        # every hook short-circuited on one ``is not None`` check, so the
        # unobserved path stays bit-identical to the pre-obs tree.
        self._obs = obs
        self.now = 0

    # -------------------------------------------------------------- enqueue

    def enqueue(self, request: RowRequest) -> None:
        """Accept one row-granularity request."""
        if request.vba >= self.config.vbas_per_stack:
            raise ValueError(
                f"vba {request.vba} out of range "
                f"(channel has {self.config.vbas_per_stack} VBAs per stack)"
            )
        if request.stack_id >= self.config.num_stack_ids:
            raise ValueError("stack_id out of range for this controller")
        if self._ras_active and self.ras.offline:
            # Graceful degradation: re-stripe traffic aimed at an
            # offlined VBA across the healthy ones (in-flight and queued
            # work drains where it is).
            target = self.ras.remap(
                (request.stack_id, request.vba), request.row)
            request.stack_id, request.vba = target
        self._backlog.append(request)

    def _pending(self) -> bool:
        """Whether work is left: backlog, queue entries, or queued RAS
        replays."""
        return bool(self._backlog or self.queue or self._ras_active
                    and self.ras.pending_replays)

    def _fill_queue(self) -> None:
        while self._backlog and len(self.queue) < self.config.request_queue_depth:
            self.queue.append(self._backlog.popleft())

    # -------------------------------------------------------------- FSM use

    def _mark_busy(self, key: Tuple[int, int], tracker: _VbaTracker,
                   state: VbaState, busy_until: int) -> None:
        tracker.state = state
        tracker.busy_until = busy_until
        heapq.heappush(self._busy_heap, (busy_until, key))
        if state is VbaState.REFRESHING:
            self._busy_refresh_fsms += 1
        else:
            self._busy_data_fsms += 1

    def _release_finished(self, now: int) -> None:
        heap = self._busy_heap
        while heap and heap[0][0] <= now:
            _, key = heapq.heappop(heap)
            tracker = self._vbas[key]
            if tracker.state is VbaState.REFRESHING:
                self._busy_refresh_fsms -= 1
            elif tracker.state is not VbaState.IDLE:
                self._busy_data_fsms -= 1
            tracker.state = VbaState.IDLE

    def _active_fsms(self, now: int) -> Tuple[int, int]:
        """(data FSMs, refresh FSMs) currently occupied."""
        self._release_finished(now)
        return self._busy_data_fsms, self._busy_refresh_fsms

    # --------------------------------------------------------------- issue

    def _try_issue_refresh(self, now: int) -> bool:
        """Issue the most urgent refresh if it can issue at ``now``."""
        if self.refresh is None:
            return False
        key = self.refresh.most_urgent(now)
        if key is None:
            return False
        critical = self.refresh.is_critical(key, now)
        # Opportunistic refresh only when the target VBA is idle; critical
        # refresh waits for the VBA to drain but blocks new data commands to
        # it (handled implicitly because the VBA will be marked busy).
        stack_id, vba_index = key
        tracker = self._vbas[(stack_id, vba_index)]
        if self._refresh_block(now, tracker, critical) is not None:
            return False
        data_fsms, refresh_fsms = self._active_fsms(now)
        self._mark_busy(key, tracker, VbaState.REFRESHING,
                        now + self.refresh.stall_ns())
        self.refresh.note_issued(key, now)
        obs = self._obs
        if obs is not None:
            obs.event(now, "refresh.issue",
                      track=f"{obs.track}/"
                            f"{RomeRefreshScheduler.track_label(key)}",
                      vba=vba_index, critical=critical)
            obs.count(now, "controller.refreshes")
            obs.gauge(now, "refresh.debt", self.refresh.refresh_debt(now))
        if self._ras_active:
            # Reset the VBA's retention clock (retention-fault means
            # scale with time since refresh/scrub).
            self.ras.note_refresh(key, now)
        self.stats.refreshes_issued += 1
        # The command generator's paired-REFpb expansion is fixed and has no
        # observable state, so it is accounted analytically
        # (``refreshes_issued * banks_per_vba`` in ``energy_counters``)
        # rather than materialized per refresh.
        self.stats.peak_active_fsms = max(
            self.stats.peak_active_fsms, data_fsms + refresh_fsms + 1
        )
        return True

    def _refresh_block(self, now: int, tracker: _VbaTracker,
                       critical: bool) -> Optional[int]:
        """Why the most-urgent refresh cannot issue at ``now``, as a wake
        time -- the target VBA's release, or the first FSM release when the
        refresh FSMs are saturated (a *critical* refresh bypasses
        saturation).  ``None`` means it is issueable now.  Shared by the
        issue path and the event core's wake bound so the two can never
        diverge.
        """
        if not tracker.is_free(now):
            return tracker.busy_until
        _, refresh_fsms = self._active_fsms(now)
        if refresh_fsms >= self.config.max_refresh_fsms and not critical:
            return self._busy_heap[0][0] if self._busy_heap else now + 1
        return None

    def _feasible_at(self, request: RowRequest, tracker: _VbaTracker) -> int:
        """Earliest instant ``request`` could issue under the current channel
        state: the Table III command gap from the previous issue, the target
        VBA's release, and the shared data bus freeing.  Shared by the issue
        path and the event core's wake bound so the two can never diverge.
        """
        if self._last_issue_ns is None or self._last_was_read is None:
            start = 0
        else:
            start = self._last_issue_ns + self._gap_table[(
                self._last_was_read,
                request.kind is _RD_ROW,
                self._last_stack == request.stack_id,
            )]
        return max(start, tracker.busy_until, self._bus_free_at)

    def _try_issue_data(self, now: int) -> bool:
        """Issue the oldest ready data request, if any."""
        data_fsms, _ = self._active_fsms(now)
        if data_fsms >= self.config.max_data_fsms:
            return False
        vbas = self._vbas
        for request in self.queue:
            if request.issue_ns is not None:
                continue  # already in flight; the entry frees on completion
            tracker = vbas[(request.stack_id, request.vba)]
            if self._feasible_at(request, tracker) <= now:
                self._issue(request, tracker, now)
                return True
        return False

    def _data_wake(self, now: int) -> Optional[int]:
        """Earliest future instant the request queue could produce an action.

        Candidates, per the event-driven core's soundness argument:

        * each un-issued request's feasibility time
          ``max(command-gap expiry, target-VBA release, bus free)``; when
          the data FSMs are saturated the first issue additionally needs a
          slot, so the bound is ``max(earliest busy-VBA release, earliest
          feasibility)``;
        * when the backlog is non-empty, the earliest time a retirement can
          admit *and* issue a new request, ``max(first completion, bus
          free)`` -- a freshly filled entry cannot start before either;
          under active RAS the first completion alone, where the retired
          entry's slot fills;
        * when everything queued is in flight and no backlog remains, the
          last completion (the drain instant ``run_until_idle`` must land
          on exactly).
        """
        data_fsms, _ = self._active_fsms(now)
        fsm_blocked = data_fsms >= self.config.max_data_fsms
        wake: Optional[int] = None
        c_min: Optional[int] = None
        c_max: Optional[int] = None
        has_unissued = False
        vbas = self._vbas
        bus_free_at = self._bus_free_at
        for request in self.queue:
            if request.issue_ns is not None:
                completion = request.completion_ns
                if c_min is None or completion < c_min:
                    c_min = completion
                if c_max is None or completion > c_max:
                    c_max = completion
                continue
            has_unissued = True
            feasible = self._feasible_at(
                request, vbas[(request.stack_id, request.vba)]
            )
            if wake is None or feasible < wake:
                wake = feasible
        if fsm_blocked and wake is not None and self._busy_heap:
            # The first issue also needs a data FSM slot.
            slot_free = self._busy_heap[0][0]
            if slot_free > wake:
                wake = slot_free
        if c_min is not None:
            if self._backlog:
                # Under active RAS the retirement itself is an instant: a
                # replay admitted to the backlog front before the bus frees
                # must not take the slot the older backlog head fills.
                fill = c_min if c_min > bus_free_at or self._ras_active \
                    else bus_free_at
                if wake is None or fill < wake:
                    wake = fill
            elif not has_unissued and (wake is None or c_max < wake):
                wake = c_max
        return wake

    def _issue(self, request: RowRequest, tracker: _VbaTracker, now: int) -> None:
        is_read = request.kind is _RD_ROW
        duration = self._duration[is_read]
        self._mark_busy(
            (request.stack_id, request.vba), tracker,
            _READING if is_read else _WRITING,
            now + duration,
        )
        self._bus_free_at = now + self._occupancy[is_read]
        self._last_was_read = is_read
        self._last_stack = request.stack_id
        self._last_issue_ns = now
        request.issue_ns = now
        request.completion_ns = now + duration

        expansion = self.command_generator.summarize(request)
        self._expanded_activates += expansion.activates
        self._expanded_cas += expansion.column_commands
        self._expanded_precharges += expansion.precharges
        self.stats.data_bus_busy_ns += expansion.data_bus_ns

        row_bytes = self._row_bytes
        obs = self._obs
        if obs is not None:
            obs.count(request.completion_ns, "controller.bandwidth_bytes",
                      float(row_bytes))
        if is_read:
            self.stats.served_reads += 1
            self.stats.bytes_read += row_bytes
            self.stats.read_latency.record(request.completion_ns - request.arrival_ns)
            if self._ras_active:
                # Classify the read at its issue instant (the draw key);
                # a DUE verdict schedules a command replay after the data
                # would have returned, plus deterministic backoff.
                delay = self.ras.check_read(
                    (request.stack_id, request.vba), request.row, now,
                    request.retry_attempt, obs)
                if delay is not None:
                    ready_ns = request.completion_ns + delay
                    self.ras.schedule_replay(ready_ns, replace(
                        request, arrival_ns=ready_ns, issue_ns=None,
                        completion_ns=None,
                        retry_attempt=request.retry_attempt + 1))
        else:
            self.stats.served_writes += 1
            self.stats.bytes_written += row_bytes
        self.stats.overfetch_bytes += request.overfetch_bytes(row_bytes)

        self.stats.peak_active_fsms = max(
            self.stats.peak_active_fsms,
            self._busy_data_fsms + self._busy_refresh_fsms,
        )

    # ------------------------------------------------------------------ tick

    def _retire_completed(self, now: int) -> None:
        """Free queue entries whose in-flight request has completed.

        The request queue models a CAM whose entries track in-flight
        requests until their data transfer finishes; this is what makes a
        two-entry queue the minimum for full bandwidth (Section V-A).
        Retirement rebuilds the queue in one pass (no O(n) ``deque.remove``
        per retired entry).
        """
        queue = self.queue
        for request in queue:
            if request.completion_ns is not None and now >= request.completion_ns:
                break
        else:
            return
        self.queue = deque(
            request for request in queue
            if request.completion_ns is None or now < request.completion_ns
        )

    def _step(self, now: int) -> bool:
        """One scheduling evaluation at ``now``: release, retire, fill,
        then refresh before data.  Returns whether a command issued."""
        self.stats.evaluations += 1
        if self._ras_active:
            self.ras.admit_due(now, self._backlog)
        self._release_finished(now)
        self._retire_completed(now)
        self._fill_queue()
        issued = self._try_issue_refresh(now) or self._try_issue_data(now)
        if issued and self._obs is not None:
            self._note_evaluation(now)
        return issued

    def _note_evaluation(self, now: int) -> None:
        """Obs hook for one decision-bearing scheduler evaluation.

        Only evaluations that issue a command are traced (the caller
        checks the gate): a no-op wake-up depends on which boundary
        instants the advance loop happens to land on -- a checkpoint cut
        lands on its ``at_ns`` and so evaluates once more than the
        uninterrupted run -- and recording it would break cut/resume
        byte-identity.  ``stats.evaluations`` still counts every
        evaluation; it is ``compare=False`` for the same reason.
        """
        obs = self._obs
        obs.event(now, "scheduler.eval")
        obs.count(now, "controller.evaluations")
        obs.gauge(now, "controller.queue_depth",
                  len(self.queue) + len(self._backlog))

    # ------------------------------------------------------- event-driven core

    def _refresh_wake(self, now: int) -> Optional[int]:
        """Earliest instant the refresh path could act (read-only; refresh
        enabled)."""
        wake = self.refresh.next_event_ns(now)
        key = self.refresh.most_urgent(now)
        if key is not None:
            block = self._refresh_block(
                now, self._vbas[key], self.refresh.is_critical(key, now)
            )
            hint = now if block is None else block
            if wake is None or hint < wake:
                wake = hint
        return wake

    def next_event_ns(self) -> Optional[int]:
        """Earliest instant at which this controller might act; the event
        core's jump target.

        Considers un-issued request feasibility (command-gap expiry, target
        VBA release, bus free), FSM releases, retirements that admit backlog
        entries, the drain instant, refresh deadlines (including the
        postponement-exhausted criticality transition) and issueable
        refreshes, and RAS wake-ups; ``now`` itself when the backlog's head
        finds room in the queue (it may be ready at once).  It may be
        ``now`` or earlier when the controller can act at once; no command
        can issue strictly before it.  Returns ``None`` when the
        controller is fully idle with refresh disabled.
        """
        now = self.now
        if self._backlog and len(self.queue) < self.config.request_queue_depth:
            return now
        wake = self._data_wake(now)
        if self.refresh is not None:
            refresh_wake = self._refresh_wake(now)
            if refresh_wake is not None and (wake is None
                                             or refresh_wake < wake):
                wake = refresh_wake
        if self._ras_active:
            ras_wake = self.ras.next_event_ns()
            if ras_wake is not None and (wake is None or ras_wake < wake):
                wake = ras_wake
        return wake

    def advance_to(self, target_ns: int,
                   until: Optional[Callable[[], bool]] = None) -> None:
        """The event core: advance to ``target_ns``, or until ``until()``
        holds after an evaluation (:class:`~repro.drive.Driven`).

        Each iteration is one scheduler evaluation (:meth:`_step`), after
        which time jumps to :meth:`next_event_ns` (at least one ns on),
        clamped to ``target_ns`` so externally scheduled arrivals land
        cycle-exactly.
        """
        while self.now < target_ns:
            now = self.now
            self._step(now)
            if until is not None and until():
                self.now = now + 1
                return
            wake = self.next_event_ns()
            if wake is None:
                jump = target_ns
            else:
                jump = min(max(wake, now + 1), target_ns)
            if jump == target_ns and target_ns - 1 > now:
                # Settle bookkeeping (releases/retirements/fills) that the
                # tick core would have performed on the skipped span, so
                # queue state at the boundary is tick-identical.  No command
                # can issue in the span -- ``wake`` bounds that.
                settle = target_ns - 1
                self._release_finished(settle)
                self._retire_completed(settle)
                self._fill_queue()
            self.now = jump

    # ------------------------------------------------------------------- run

    def run_until_idle(self, max_ns: int = DEFAULT_DRAIN_HORIZON_NS,
                       event_driven: bool = True) -> int:
        """Run until no work is left
        (:meth:`~repro.drive.Driven.run_until`), then to the end of the
        last in-flight command; returns the end time."""
        self.run_until(lambda: not self._pending(), max_ns, event_driven)
        self.now = max(
            self.now, max(tracker.busy_until for tracker in self._vbas.values())
        )
        return self.now

    # ----------------------------------------------------------------- stats

    @property
    def outstanding_requests(self) -> int:
        replays = self.ras.pending_replays if self._ras_active else 0
        return len(self.queue) + len(self._backlog) + replays

    def bandwidth_utilization(self) -> float:
        """Fraction of peak channel bandwidth delivered so far."""
        if self.now == 0:
            return 0.0
        delivered = (self.stats.bytes_read + self.stats.bytes_written) / self.now
        return delivered / self.config.peak_bandwidth_bytes_per_ns

    def energy_counters(self) -> EnergyCounters:
        """Counters for the energy model, including command-generator work."""
        interface_commands = (
            self.stats.served_reads
            + self.stats.served_writes
            + self.stats.refreshes_issued
        )
        return EnergyCounters(
            activates=self._expanded_activates,
            precharges=self._expanded_precharges,
            reads_bytes=self.stats.bytes_read,
            writes_bytes=self.stats.bytes_written,
            interface_commands=interface_commands,
            refreshes=self.stats.refreshes_issued * self.config.vba.banks_per_vba,
            row_command_expansions=self.command_generator.expansions,
            elapsed_ns=float(self.now),
            num_channels=1,
            row_bytes=self.config.conventional_timing.row_size_bytes,
        )
