"""ECC classification and the RAS response ladder for both controllers.

The :class:`RasEngine` sits beside a memory controller and sees every
read at its issue instant.  Each read draws faults from the seeded
:class:`~repro.reliability.faults.DeviceFaultModel`, is classified
through the :class:`~repro.core.ecc.EccCapability` codeword math
(*the same function the property tests pin*), and then walks the
degradation ladder:

1. **corrected** -- the code repaired the data; count it and move on.
2. **retry-on-DUE** -- a detected-uncorrectable read is replayed in
   simulated time with linear backoff, up to ``max_retries`` times
   (transient and retention faults re-draw at the later instant, so
   replays genuinely can succeed).
3. **row sparing** -- a read still failing after its retry budget burns
   a PPR-style spare row from the bank's budget; the spared row skips
   the sticky hard-fault draw from then on and one final replay targets
   the (healthy) spare.
4. **bank offline** -- a bank accumulating ``offline_after_row_failures``
   spared/failed rows is removed from service; *new* requests aiming at
   it are deterministically re-striped across the remaining healthy
   banks (in-flight traffic drains where it is -- that is the graceful
   part of the degradation).

Patrol scrubbing interleaves with normal traffic on a fixed simulated
period: each pass rewrites one previously-touched row (round-robin),
clearing its retention clock and proactively sparing sticky rows it
finds, before they cost demand reads their retry budgets.

The engine also owns the layer's timeline, for both controllers alike:
the replay queue (:meth:`RasEngine.schedule_replay`), the instants it
needs an evaluation at (:meth:`RasEngine.next_event_ns`: the next scrub
pass or the earliest replay), and the per-instant step that runs the
scrub passes and admits the replays due (:meth:`RasEngine.admit_due`).
A controller supplies only what differs between them: the replay payload
it queues, its bank key, and when a refresh resets a retention clock.

Everything here is plain picklable state (dicts/sets/ints and the queued
replay payloads -- hashes are recomputed per draw, never stored), so
checkpoint/restore of a controller mid-campaign stays bit-identical.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, fields
from typing import (TYPE_CHECKING, Any, Deque, Dict, Iterable, List,
                    Optional, Sequence, Set, Tuple)

from repro.core.ecc import EccCapability, EccOutcome, capability_for
from repro.reliability.faults import DeviceFaultModel, ReliabilityConfig

if TYPE_CHECKING:
    from repro.obs.sink import ObsSink

__all__ = ["RasEngine", "ReadVerdict", "ReliabilityStats"]

BankKey = Tuple[object, ...]


@dataclass
class ReliabilityStats:
    """Outcome counters threaded into results as the ``reliability`` block.

    Plain ints with dataclass equality, so campaign determinism is
    asserted with ``==`` like every other result in this tree.
    """

    reads_checked: int = 0
    transient_bits: int = 0
    retention_bits: int = 0
    hard_fault_reads: int = 0
    corrected: int = 0
    detected_uncorrectable: int = 0
    silent_miscorrects: int = 0
    retries_scheduled: int = 0
    recovered_reads: int = 0
    unrecoverable_reads: int = 0
    scrub_passes: int = 0
    scrub_corrected_bits: int = 0
    scrub_detected_hard: int = 0
    spared_rows: int = 0
    offlined_banks: int = 0
    remapped_requests: int = 0

    @property
    def sdc_rate(self) -> float:
        """Silent miscorrects per checked read (0.0 when nothing read)."""
        if self.reads_checked == 0:
            return 0.0
        return self.silent_miscorrects / self.reads_checked

    @property
    def due_rate(self) -> float:
        if self.reads_checked == 0:
            return 0.0
        return self.detected_uncorrectable / self.reads_checked

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    @classmethod
    def merged(cls, parts: Iterable["ReliabilityStats"]
               ) -> Optional["ReliabilityStats"]:
        """Field-wise sum across controllers; ``None`` for no parts."""
        parts = list(parts)
        if not parts:
            return None
        total = cls()
        for part in parts:
            for spec in fields(cls):
                setattr(total, spec.name,
                        getattr(total, spec.name) + getattr(part, spec.name))
        return total


@dataclass(frozen=True)
class ReadVerdict:
    """What the RAS engine decided about one read.

    ``retry_delay_ns`` is non-None when the controller should replay the
    read that many simulated nanoseconds after its data returns;
    ``spared_now`` flags that this verdict consumed a spare row.
    """

    outcome: EccOutcome
    faulty_bits: int
    retry_delay_ns: Optional[int] = None
    spared_now: bool = False


class RasEngine:
    """Per-controller reliability pipeline (fault draws -> ECC -> RAS)."""

    def __init__(self, config: ReliabilityConfig, codeword_data_bytes: int,
                 banks: Sequence[BankKey]) -> None:
        if not banks:
            raise ValueError("RasEngine needs at least one bank")
        self.config = config
        self.model = DeviceFaultModel(config)
        self.capability: EccCapability = capability_for(
            config.ecc_scheme, codeword_data_bytes)
        #: Inactive engines must never be consulted on the hot path; the
        #: controllers check this once and skip every hook when False.
        self.active: bool = config.active
        self.stats = ReliabilityStats()
        self._banks: Tuple[BankKey, ...] = tuple(banks)
        self._bank_index: Dict[BankKey, int] = {
            bank: i for i, bank in enumerate(self._banks)
        }
        self.offline: Set[BankKey] = set()
        self._healthy: Tuple[BankKey, ...] = self._banks
        self._last_refresh: Dict[BankKey, int] = {}
        self._last_scrub: Dict[Tuple[BankKey, int], int] = {}
        self._spared: Set[Tuple[BankKey, int]] = set()
        self._spares_used: Dict[BankKey, int] = {}
        self._row_failures: Dict[BankKey, int] = {}
        #: Insertion-ordered set of rows ever read; the patrol scrubber
        #: walks it round-robin (dict keys keep insertion order).
        self._known_rows: Dict[Tuple[BankKey, int], None] = {}
        self._scrub_cursor = 0
        interval = config.scrub_interval_ns
        self._next_scrub_ns: Optional[int] = (
            interval if self.active and interval > 0 else None
        )
        #: Replays of DUE reads, a min-heap of ``(ready_ns, seq, payload)``;
        #: ``seq`` keeps equal instants in scheduling order.
        self._replays: List[Tuple[int, int, Any]] = []
        self._replay_seq = 0

    # --------------------------------------------------------- clocks
    def note_refresh(self, bank: BankKey, now_ns: int) -> None:
        """A refresh command reached ``bank``: reset its retention clock."""
        self._last_refresh[bank] = now_ns

    def _since_refresh(self, bank: BankKey, row: int, now_ns: int) -> int:
        anchor = max(self._last_refresh.get(bank, 0),
                     self._last_scrub.get((bank, row), 0))
        return now_ns - anchor

    # ---------------------------------------------------------- reads
    def on_read(self, bank: BankKey, row: int, now_ns: int,
                attempt: int = 0) -> ReadVerdict:
        """Classify one read issued at ``now_ns``; decide the RAS action.

        ``attempt`` counts replays of the same logical read (0 = the
        original demand access).
        """
        cfg = self.config
        stats = self.stats
        stats.reads_checked += 1
        key = (bank, row)
        if key not in self._known_rows:
            self._known_rows[key] = None
        spared = key in self._spared
        draw = self.model.draw(
            bank, row, now_ns, self._since_refresh(bank, row, now_ns),
            self.capability.scheme.codeword_bits, skip_hard=spared)
        stats.transient_bits += draw.transient_bits
        stats.retention_bits += draw.retention_bits
        if draw.hard:
            stats.hard_fault_reads += 1
            # A dead row returns garbage; model it as exactly the
            # detection capability (deterministic DUE) so the ladder is
            # exercisable -- or as silent corruption when there is no
            # code to notice (detect_bits == 0).
            faulty_bits = max(self.capability.detect_bits, 1)
        else:
            faulty_bits = draw.soft_bits
        outcome = self.capability.classify(faulty_bits)
        if outcome is EccOutcome.CORRECTED:
            stats.corrected += 1
        elif outcome is EccOutcome.DETECTED_UNCORRECTABLE:
            stats.detected_uncorrectable += 1
        elif outcome is EccOutcome.SILENT_MISCORRECT:
            stats.silent_miscorrects += 1
        if attempt > 0 and outcome in (EccOutcome.CLEAN,
                                       EccOutcome.CORRECTED):
            stats.recovered_reads += 1
        if outcome is not EccOutcome.DETECTED_UNCORRECTABLE:
            return ReadVerdict(outcome=outcome, faulty_bits=faulty_bits)

        # ---- DUE: retry, then spare, then give up (and maybe offline).
        if attempt < cfg.max_retries:
            stats.retries_scheduled += 1
            return ReadVerdict(
                outcome=outcome, faulty_bits=faulty_bits,
                retry_delay_ns=(attempt + 1) * cfg.retry_backoff_ns)
        spared_now = False
        if not spared and self._spare_row(bank, row):
            spared_now = True
            if attempt >= cfg.max_retries:
                # One final replay, now aimed at the healthy spare.
                stats.retries_scheduled += 1
                return ReadVerdict(
                    outcome=outcome, faulty_bits=faulty_bits,
                    retry_delay_ns=(attempt + 1) * cfg.retry_backoff_ns,
                    spared_now=True)
        stats.unrecoverable_reads += 1
        self._note_row_failure(bank)
        return ReadVerdict(outcome=outcome, faulty_bits=faulty_bits,
                           spared_now=spared_now)

    def check_read(self, bank: BankKey, row: int, now_ns: int, attempt: int,
                   obs: Optional[ObsSink] = None) -> Optional[int]:
        """:meth:`on_read` for a controller's read issued at ``now_ns``:
        records the verdict on ``obs`` (``ras.<outcome>`` counts, and
        ``ras.retry``, ``ras.spare`` and ``ras.offline`` events) and
        returns the replay delay, ``None`` when no replay is due."""
        offlined = self.stats.offlined_banks
        verdict = self.on_read(bank, row, now_ns, attempt)
        delay = verdict.retry_delay_ns
        if obs is not None:
            outcome = verdict.outcome.value
            if outcome != "clean":
                obs.count(now_ns, f"ras.{outcome}")
            if delay is not None:
                obs.event(now_ns, "ras.retry", delay_ns=delay)
            if verdict.spared_now:
                obs.event(now_ns, "ras.spare")
            if self.stats.offlined_banks > offlined:
                obs.event(now_ns, "ras.offline")
        return delay

    def _spare_row(self, bank: BankKey, row: int) -> bool:
        """Consume a spare for ``(bank, row)``; True if budget allowed."""
        used = self._spares_used.get(bank, 0)
        if used >= self.config.spare_rows_per_bank:
            return False
        self._spares_used[bank] = used + 1
        self._spared.add((bank, row))
        self.stats.spared_rows += 1
        self._note_row_failure(bank)
        return True

    def _note_row_failure(self, bank: BankKey) -> None:
        """Persistent-failure evidence feeding the offline ladder."""
        self._row_failures[bank] = self._row_failures.get(bank, 0) + 1
        threshold = self.config.offline_after_row_failures
        if (threshold > 0 and bank not in self.offline
                and self._row_failures[bank] >= threshold
                and len(self._healthy) > 1):
            self.offline.add(bank)
            self._healthy = tuple(
                b for b in self._banks if b not in self.offline)
            self.stats.offlined_banks += 1

    # --------------------------------------------------- re-striping
    def remap(self, bank: BankKey, row: int) -> BankKey:
        """Deterministic healthy target for traffic aimed at ``bank``.

        Pure function of the offline set and ``(bank, row)``: rows of an
        offline bank spread round-robin across the healthy banks, so
        re-striping is identical on every worker.
        """
        if bank not in self.offline:
            return bank
        healthy = self._healthy
        self.stats.remapped_requests += 1
        return healthy[(self._bank_index[bank] + row) % len(healthy)]

    # ---------------------------------------------------- the timeline
    def schedule_replay(self, ready_ns: int, payload: Any) -> None:
        """Queue ``payload``, a controller's replay of a DUE read, for
        admission at ``ready_ns``."""
        self._replay_seq += 1
        heapq.heappush(self._replays, (ready_ns, self._replay_seq, payload))

    @property
    def pending_replays(self) -> int:
        """Replays queued and not yet admitted."""
        return len(self._replays)

    def next_event_ns(self) -> Optional[int]:
        """The next instant the engine needs an evaluation at: the next
        scrub pass or the earliest queued replay; ``None`` for neither."""
        wake = self._next_scrub_ns
        replays = self._replays
        if replays and (wake is None or replays[0][0] < wake):
            wake = replays[0][0]
        return wake

    def admit_due(self, now_ns: int, backlog: Deque[Any]) -> None:
        """Run the scrub passes due by ``now_ns`` and put the replays
        ready by then at the front of ``backlog``, earliest first (they
        are the oldest traffic in the system)."""
        self.run_scrub(now_ns)
        replays = self._replays
        if replays and replays[0][0] <= now_ns:
            ready = []
            while replays and replays[0][0] <= now_ns:
                ready.append(heapq.heappop(replays)[2])
            backlog.extendleft(reversed(ready))

    def run_scrub(self, now_ns: int) -> None:
        """Run every scrub pass scheduled at or before ``now_ns``.

        Draw keys use the pass's *scheduled* instant, so tick cores (which
        land exactly on it) and event cores (woken by
        :meth:`next_event_ns`) observe identical faults.
        """
        interval = self.config.scrub_interval_ns
        while self._next_scrub_ns is not None and self._next_scrub_ns <= now_ns:
            at_ns = self._next_scrub_ns
            self._next_scrub_ns = at_ns + interval
            if not self._known_rows:
                continue
            rows: List[Tuple[BankKey, int]] = list(self._known_rows)
            bank, row = rows[self._scrub_cursor % len(rows)]
            self._scrub_cursor += 1
            self._scrub_row(bank, row, at_ns)

    def _scrub_row(self, bank: BankKey, row: int, at_ns: int) -> None:
        stats = self.stats
        stats.scrub_passes += 1
        key = (bank, row)
        spared = key in self._spared
        draw = self.model.draw(
            bank, row, at_ns, self._since_refresh(bank, row, at_ns),
            self.capability.scheme.codeword_bits, skip_hard=spared)
        # The scrub read-corrects latent soft errors and rewrites the
        # row, resetting its retention clock.
        stats.scrub_corrected_bits += draw.soft_bits
        self._last_scrub[key] = at_ns
        if draw.hard:
            # Found a sticky row before demand traffic did: spare it
            # proactively (no data was lost -- the scrub read is
            # ECC-checked like any other and the row is still mostly
            # readable under the detection guarantee).
            stats.scrub_detected_hard += 1
            self._spare_row(bank, row)
