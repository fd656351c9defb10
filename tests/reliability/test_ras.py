"""The RAS degradation ladder: retry -> spare -> offline -> re-stripe.

Driven directly against :class:`RasEngine` (no controller underneath), so
each rung is pinned in isolation with hand-picked configs that make the
seeded draws deterministic by construction (rate 1.0 or rate 0.0).
"""

import pickle
from collections import deque

import pytest

from repro.core.ecc import EccOutcome
from repro.reliability.faults import ReliabilityConfig
from repro.reliability.ras import RasEngine, ReliabilityStats

BANKS = [(0,), (1,), (2,), (3,)]


def _engine(**overrides):
    defaults = dict(seed=5, hard_row_rate=1.0, max_retries=2,
                    retry_backoff_ns=50, spare_rows_per_bank=1)
    defaults.update(overrides)
    return RasEngine(ReliabilityConfig(**defaults),
                     codeword_data_bytes=4096, banks=BANKS)


class TestRetryLadder:
    def test_due_read_schedules_retry_with_linear_backoff(self):
        engine = _engine()
        first = engine.on_read(BANKS[0], 0, 100, attempt=0)
        assert first.outcome is EccOutcome.DETECTED_UNCORRECTABLE
        assert first.retry_delay_ns == 50
        second = engine.on_read(BANKS[0], 0, 200, attempt=1)
        assert second.retry_delay_ns == 100
        assert engine.stats.retries_scheduled == 2

    def test_exhausted_retries_burn_a_spare_and_replay_once(self):
        engine = _engine()
        verdict = engine.on_read(BANKS[0], 0, 100, attempt=2)
        assert verdict.spared_now is True
        assert verdict.retry_delay_ns is not None
        assert engine.stats.spared_rows == 1
        # The spared row skips the sticky hard draw from then on.
        replay = engine.on_read(BANKS[0], 0, 300, attempt=3)
        assert replay.outcome is EccOutcome.CLEAN
        assert engine.stats.recovered_reads == 1

    def test_spare_budget_exhaustion_is_unrecoverable(self):
        engine = _engine(spare_rows_per_bank=1)
        assert engine.on_read(BANKS[0], 0, 100, attempt=2).spared_now
        # A second bad row in the same bank finds no spare left.
        verdict = engine.on_read(BANKS[0], 1, 200, attempt=2)
        assert verdict.spared_now is False
        assert verdict.retry_delay_ns is None
        assert engine.stats.unrecoverable_reads == 1

    def test_recovered_counter_requires_a_replay(self):
        engine = _engine(hard_row_rate=0.0, transient_ber=1e-9)
        engine.on_read(BANKS[0], 0, 100, attempt=0)
        assert engine.stats.recovered_reads == 0
        engine.on_read(BANKS[0], 0, 200, attempt=1)
        assert engine.stats.recovered_reads == 1


class TestOfflineAndRemap:
    def test_row_failures_offline_the_bank_at_threshold(self):
        engine = _engine(spare_rows_per_bank=2,
                         offline_after_row_failures=2)
        engine.on_read(BANKS[0], 0, 100, attempt=2)
        assert BANKS[0] not in engine.offline
        engine.on_read(BANKS[0], 1, 200, attempt=2)
        assert BANKS[0] in engine.offline
        assert engine.stats.offlined_banks == 1

    def test_remap_avoids_offline_banks_deterministically(self):
        engine = _engine(spare_rows_per_bank=2,
                         offline_after_row_failures=2)
        engine.on_read(BANKS[0], 0, 100, attempt=2)
        engine.on_read(BANKS[0], 1, 200, attempt=2)
        targets = [engine.remap(BANKS[0], row) for row in range(8)]
        assert all(target != BANKS[0] for target in targets)
        assert set(targets) <= set(BANKS[1:])
        # Re-striping spreads rows, and equal inputs remap equally.
        assert len(set(targets)) > 1
        assert targets == [engine.remap(BANKS[0], row) for row in range(8)]
        assert engine.stats.remapped_requests == 16

    def test_healthy_bank_traffic_is_untouched(self):
        engine = _engine()
        assert engine.remap(BANKS[2], 5) == BANKS[2]
        assert engine.stats.remapped_requests == 0

    def test_last_healthy_bank_is_never_offlined(self):
        engine = RasEngine(
            ReliabilityConfig(seed=5, hard_row_rate=1.0, max_retries=0,
                              spare_rows_per_bank=4,
                              offline_after_row_failures=1),
            codeword_data_bytes=4096, banks=[(0,)])
        for row in range(4):
            engine.on_read((0,), row, 100 * (row + 1), attempt=0)
        assert engine.offline == set()


class TestScrub:
    def test_scrub_walks_known_rows_and_resets_retention(self):
        engine = _engine(hard_row_rate=0.0, retention_ber=1e-4,
                         scrub_interval_ns=1_000,
                         retention_window_ns=10_000)
        engine.on_read(BANKS[0], 0, 100)
        engine.run_scrub(2_500)  # passes at 1000 and 2000
        assert engine.stats.scrub_passes == 2
        # The scrub rewrote the row, so its retention clock restarts.
        assert engine._since_refresh(BANKS[0], 0, 2_500) == 500

    def test_scrub_spares_hard_rows_proactively(self):
        engine = _engine(scrub_interval_ns=1_000)
        engine.on_read(BANKS[0], 0, 100, attempt=0)  # DUE, known row
        engine.run_scrub(1_000)
        assert engine.stats.scrub_detected_hard == 1
        assert engine.stats.spared_rows == 1
        # Demand reads now see the healthy spare.
        assert engine.on_read(BANKS[0], 0, 1_500).outcome is EccOutcome.CLEAN

    def test_next_event_exposes_the_scrub_schedule(self):
        engine = _engine(scrub_interval_ns=500)
        assert engine.next_event_ns() == 500
        engine.run_scrub(500)
        assert engine.next_event_ns() == 1_000

    def test_no_scrub_means_no_wakeups(self):
        engine = _engine(scrub_interval_ns=0)
        assert engine.next_event_ns() is None


class TestReplays:
    def test_next_event_is_the_earlier_of_scrub_and_replay(self):
        engine = _engine(scrub_interval_ns=500)
        engine.schedule_replay(700, "late")
        assert engine.next_event_ns() == 500
        engine.schedule_replay(300, "early")
        assert engine.next_event_ns() == 300
        assert engine.pending_replays == 2

    def test_admit_due_puts_ready_replays_first_earliest_first(self):
        engine = _engine(scrub_interval_ns=0)
        for ready_ns, payload in ((200, "b"), (100, "a"), (200, "c"),
                                  (900, "later")):
            engine.schedule_replay(ready_ns, payload)
        backlog = deque(["queued"])
        engine.admit_due(199, backlog)
        assert list(backlog) == ["a", "queued"]
        engine.admit_due(200, backlog)
        # Equal instants keep their scheduling order.
        assert list(backlog) == ["b", "c", "a", "queued"]
        assert engine.pending_replays == 1
        assert engine.next_event_ns() == 900

    def test_admit_due_runs_the_scrub_passes_due(self):
        engine = _engine(hard_row_rate=0.0, retention_ber=1e-4,
                         scrub_interval_ns=1_000)
        engine.on_read(BANKS[0], 0, 100)
        engine.admit_due(2_500, deque())
        assert engine.stats.scrub_passes == 2
        assert engine.next_event_ns() == 3_000

    def test_check_read_returns_the_replay_delay(self):
        engine = _engine(max_retries=1, retry_backoff_ns=40)
        assert engine.check_read(BANKS[0], 0, 100, 0) == 40
        # Budget spent: the spare row gets one final replay.
        assert engine.check_read(BANKS[0], 0, 200, 1) == 80
        assert engine.check_read(BANKS[0], 0, 300, 2) is None


class TestStats:
    def test_merged_sums_fieldwise_and_none_for_empty(self):
        a = ReliabilityStats(reads_checked=3, corrected=1)
        b = ReliabilityStats(reads_checked=2, silent_miscorrects=4)
        merged = ReliabilityStats.merged([a, b])
        assert merged.reads_checked == 5
        assert merged.corrected == 1
        assert merged.silent_miscorrects == 4
        assert ReliabilityStats.merged([]) is None

    def test_rates_guard_division_by_zero(self):
        empty = ReliabilityStats()
        assert empty.sdc_rate == 0.0 and empty.due_rate == 0.0
        stats = ReliabilityStats(reads_checked=8, silent_miscorrects=2,
                                 detected_uncorrectable=4)
        assert stats.sdc_rate == 0.25
        assert stats.due_rate == 0.5

    def test_engine_state_round_trips_through_pickle(self):
        engine = _engine(scrub_interval_ns=1_000,
                         offline_after_row_failures=1)
        engine.on_read(BANKS[0], 0, 100, attempt=2)
        engine.run_scrub(1_000)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.stats == engine.stats
        assert clone.offline == engine.offline
        # Both continue identically from the restored state.
        assert clone.on_read(BANKS[1], 3, 2_000) == \
            engine.on_read(BANKS[1], 3, 2_000)
        assert clone.stats == engine.stats
