"""The seeded replica-fault process: timelines, state machine, arithmetic.

These tests pin the determinism discipline (blake2b counter PRNG, no
mutable state) and the health state machine that the router consumes:
degraded-on-pressure, hard-failure escalation, timed recovery, and the
downtime accounting behind fleet availability.
"""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import (
    HealthEvent,
    ReplicaFaultConfig,
    ReplicaFaultProcess,
    ReplicaHealth,
    ReplicaTimeline,
)
from repro.fleet.health import _STATE_AFTER
from repro.reliability.taxonomy import ReplicaFaultKind

#: The bench-smoke campaign's fault block (every replica walks the full
#: degraded -> down -> recovered ladder within the episode).
CAMPAIGN = ReplicaFaultConfig(seed=0, window_ns=2_000, due_rate=0.8,
                              due_threshold=2, hard_failure_rate=0.02,
                              degraded_escalation=8.0, recovery_ns=12_000)


class TestReplicaFaultConfig:
    def test_defaults_are_inactive(self):
        assert not ReplicaFaultConfig().active

    def test_any_positive_rate_activates(self):
        assert ReplicaFaultConfig(due_rate=0.1).active
        assert ReplicaFaultConfig(sdc_rate=0.1).active
        assert ReplicaFaultConfig(bank_offline_rate=0.1).active
        assert ReplicaFaultConfig(hard_failure_rate=0.1).active

    @pytest.mark.parametrize("kwargs,match", [
        (dict(window_ns=0), "window_ns"),
        (dict(due_rate=-0.1), "Poisson"),
        (dict(hard_failure_rate=1.5), "hard_failure_rate"),
        (dict(bank_offline_rate=-0.5), "bank_offline_rate"),
        (dict(due_threshold=-1), "thresholds"),
        (dict(degraded_escalation=0.5), "degraded_escalation"),
        (dict(recovery_ns=-1), "recovery_ns"),
    ])
    def test_invalid_knobs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ReplicaFaultConfig(**kwargs)

    def test_picklable(self):
        assert pickle.loads(pickle.dumps(CAMPAIGN)) == CAMPAIGN


class TestReplicaHealth:
    def test_str_is_the_value(self):
        assert str(ReplicaHealth.DEGRADED) == "degraded"

    def test_equal_to_plain_strings(self):
        assert ReplicaHealth.DOWN == "down"

    def test_pickles_cleanly(self):
        for state in ReplicaHealth:
            assert pickle.loads(pickle.dumps(state)) is state


class TestTimelineGeneration:
    def test_inactive_config_yields_empty_timeline(self):
        timeline = ReplicaFaultProcess(ReplicaFaultConfig()).timeline(
            0, 1_000_000)
        assert timeline.events == ()
        assert timeline.health_at(500_000) is ReplicaHealth.HEALTHY
        assert timeline.up_fraction() == 1.0

    def test_empty_horizon_yields_empty_timeline(self):
        timeline = ReplicaFaultProcess(CAMPAIGN).timeline(0, 0)
        assert timeline.events == ()

    def test_timeline_is_deterministic(self):
        process = ReplicaFaultProcess(CAMPAIGN)
        assert process.timeline(1, 60_000) == process.timeline(1, 60_000)

    def test_replicas_draw_independent_streams(self):
        process = ReplicaFaultProcess(CAMPAIGN)
        kinds = {process.timeline(r, 60_000).kinds for r in range(4)}
        assert len(kinds) > 1  # not all replicas fail identically

    def test_seed_changes_the_timeline(self):
        a = ReplicaFaultProcess(CAMPAIGN).timeline(0, 60_000)
        b = ReplicaFaultProcess(replace(CAMPAIGN, seed=99)).timeline(0, 60_000)
        assert a != b

    def test_horizon_prefix_property(self):
        # A longer horizon extends the event stream, never rewrites it.
        process = ReplicaFaultProcess(CAMPAIGN)
        short = process.timeline(0, 20_000)
        long = process.timeline(0, 60_000)
        assert long.events[:len(short.events)] == short.events

    def test_events_are_ordered_and_sane(self):
        timeline = ReplicaFaultProcess(CAMPAIGN).timeline(0, 120_000)
        instants = [event.at_ns for event in timeline.events]
        assert instants == sorted(instants)
        # A DOWN is always preceded by HEALTHY/DEGRADED, a RECOVERED by DOWN.
        state = ReplicaHealth.HEALTHY
        for event in timeline.events:
            if event.kind is ReplicaFaultKind.RECOVERED:
                assert state is ReplicaHealth.DOWN
                state = ReplicaHealth.HEALTHY
            elif event.kind is ReplicaFaultKind.DOWN:
                assert state is not ReplicaHealth.DOWN
                state = ReplicaHealth.DOWN
            else:
                assert state is ReplicaHealth.HEALTHY
                state = ReplicaHealth.DEGRADED

    def test_campaign_walks_the_full_ladder(self):
        # The bench gate relies on this exact seeded behavior.
        process = ReplicaFaultProcess(CAMPAIGN)
        for replica in range(3):
            kinds = process.timeline(replica, 60_000).kinds
            assert kinds[:3] == (ReplicaFaultKind.DEGRADED,
                                 ReplicaFaultKind.DOWN,
                                 ReplicaFaultKind.RECOVERED)

    def test_permanent_loss_without_recovery(self):
        config = ReplicaFaultConfig(seed=0, window_ns=2_000,
                                    hard_failure_rate=0.5, recovery_ns=0)
        timeline = ReplicaFaultProcess(config).timeline(0, 200_000)
        assert timeline.kinds.count(ReplicaFaultKind.DOWN) == 1
        assert ReplicaFaultKind.RECOVERED not in timeline.kinds
        assert timeline.health_at(timeline.horizon_ns) is ReplicaHealth.DOWN

    def test_recovery_resets_to_healthy(self):
        config = ReplicaFaultConfig(seed=0, window_ns=2_000,
                                    hard_failure_rate=0.9, recovery_ns=4_000)
        timeline = ReplicaFaultProcess(config).timeline(0, 100_000)
        downs = [e for e in timeline.events
                 if e.kind is ReplicaFaultKind.DOWN]
        recoveries = [e for e in timeline.events
                      if e.kind is ReplicaFaultKind.RECOVERED]
        assert downs and recoveries
        first = recoveries[0]
        assert timeline.health_at(first.at_ns) is ReplicaHealth.HEALTHY


class TestTimelineArithmetic:
    def _timeline(self):
        return ReplicaTimeline(replica=0, horizon_ns=100_000, events=(
            HealthEvent(10_000, ReplicaFaultKind.DEGRADED),
            HealthEvent(20_000, ReplicaFaultKind.DOWN),
            HealthEvent(50_000, ReplicaFaultKind.RECOVERED),
        ))

    def test_health_at_walks_the_states(self):
        timeline = self._timeline()
        assert timeline.health_at(0) is ReplicaHealth.HEALTHY
        assert timeline.health_at(10_000) is ReplicaHealth.DEGRADED
        assert timeline.health_at(19_999) is ReplicaHealth.DEGRADED
        assert timeline.health_at(20_000) is ReplicaHealth.DOWN
        assert timeline.health_at(50_000) is ReplicaHealth.HEALTHY

    def test_goes_down_within_is_half_open(self):
        timeline = self._timeline()
        assert timeline.goes_down_within(19_999, 20_000)
        assert timeline.goes_down_within(10_000, 30_000)
        assert not timeline.goes_down_within(20_000, 30_000)  # excl. start
        assert not timeline.goes_down_within(0, 19_999)

    def test_down_ns_and_up_fraction(self):
        timeline = self._timeline()
        assert timeline.down_ns() == 30_000
        assert timeline.up_fraction() == pytest.approx(0.7)
        assert timeline.down_ns(up_to_ns=25_000) == 5_000
        assert timeline.up_fraction(up_to_ns=25_000) == pytest.approx(0.8)
        assert timeline.up_fraction(up_to_ns=0) == 1.0

    def test_open_ended_downtime_runs_to_the_bound(self):
        timeline = ReplicaTimeline(replica=0, horizon_ns=40_000, events=(
            HealthEvent(30_000, ReplicaFaultKind.DOWN),))
        assert timeline.down_ns() == 10_000
        assert timeline.up_fraction() == pytest.approx(0.75)

    def test_kinds_property(self):
        assert self._timeline().kinds == (ReplicaFaultKind.DEGRADED,
                                          ReplicaFaultKind.DOWN,
                                          ReplicaFaultKind.RECOVERED)

    def test_timeline_pickles_and_compares(self):
        timeline = self._timeline()
        assert pickle.loads(pickle.dumps(timeline)) == timeline

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError, match="time order"):
            ReplicaTimeline(replica=0, horizon_ns=100_000, events=(
                HealthEvent(20_000, ReplicaFaultKind.DOWN),
                HealthEvent(10_000, ReplicaFaultKind.DEGRADED),
            ))

    def test_index_survives_pickle_and_equality(self):
        timeline = self._timeline()
        clone = pickle.loads(pickle.dumps(timeline))
        assert clone == timeline
        assert repr(clone) == repr(timeline)
        assert clone.health_at(20_000) is ReplicaHealth.DOWN
        assert clone.goes_down_within(19_999, 20_000)


def _scan_health_at(timeline, at_ns):
    """Reference: walk every event up to ``at_ns``."""
    state = ReplicaHealth.HEALTHY
    for event in timeline.events:
        if event.at_ns > at_ns:
            break
        state = _STATE_AFTER[event.kind]
    return state


def _scan_goes_down_within(timeline, start_ns, end_ns):
    """Reference: test every event against ``(start_ns, end_ns]``."""
    return any(event.kind is ReplicaFaultKind.DOWN
               and start_ns < event.at_ns <= end_ns
               for event in timeline.events)


class TestQueriesMatchLinearScans:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32),
           window_ns=st.integers(500, 5_000),
           due_rate=st.floats(0.0, 3.0),
           hard_failure_rate=st.floats(0.0, 1.0),
           recovery_ns=st.integers(0, 20_000),
           horizon_ns=st.integers(0, 200_000),
           replica=st.integers(0, 7),
           probes=st.lists(st.integers(-10, 250_000), max_size=20),
           span_ns=st.integers(0, 30_000))
    def test_bisection_equals_scan(self, seed, window_ns, due_rate,
                                   hard_failure_rate, recovery_ns,
                                   horizon_ns, replica, probes, span_ns):
        config = ReplicaFaultConfig(
            seed=seed, window_ns=window_ns, due_rate=due_rate,
            due_threshold=2, hard_failure_rate=hard_failure_rate,
            recovery_ns=recovery_ns)
        timeline = ReplicaFaultProcess(config).timeline(replica, horizon_ns)
        instants = [event.at_ns + delta for event in timeline.events
                    for delta in (-1, 0, 1)]
        for at_ns in instants + probes:
            assert timeline.health_at(at_ns) is _scan_health_at(
                timeline, at_ns)
            for start_ns, end_ns in ((at_ns, at_ns + span_ns),
                                     (at_ns - span_ns, at_ns),
                                     (at_ns, at_ns - 1)):
                assert timeline.goes_down_within(start_ns, end_ns) \
                    == _scan_goes_down_within(timeline, start_ns, end_ns)
