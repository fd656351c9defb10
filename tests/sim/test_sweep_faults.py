"""Fault-tolerance tests for the sweep runner's attempt loop.

Covers the failure paths: workers killed mid-sweep (via
:class:`FaultPlan`), unpicklable *results*, per-point timeout expiry and
the lowest-index raise rule -- each asserting deterministic values and
quarantine records across ``workers=1/2`` and the fork/spawn start
methods -- plus retries, the sweep journal, inline fallbacks, and
:class:`SystemRunResult` fallback reasons.
"""

import json
import multiprocessing
import os
import pickle
import time

import pytest

from repro.sim.sweep import (
    FaultInjection,
    FaultPlan,
    InjectedFault,
    PointFailure,
    SweepPointError,
    SweepStats,
    run_sweep,
    run_system_until_idle_result,
)

def _square(x):
    return x * x


def _touch_and_square(directory, value):
    """Marker-file sweep point: proves which points actually executed."""
    with open(os.path.join(directory, f"ran-{value}"), "w") as stream:
        stream.write(str(value))
    return value * value


class _UnpicklableResult:
    def __reduce__(self):
        raise pickle.PicklingError("refuses to pickle")


def _make_unpicklable(x):
    return _UnpicklableResult()


def _fail_slow_then_fast(index):
    """Point 0 fails after 0.5 s, point 1 at once: at two workers point 1
    finishes first, yet point 0 is the one that must raise."""
    if index == 0:
        time.sleep(0.5)
    raise ValueError(f"point {index} failed")


def _start_methods():
    methods = []
    for method in ("fork", "spawn"):
        if method in multiprocessing.get_all_start_methods():
            methods.append(method)
    return methods


class TestFaultPlan:
    def test_for_attempt_matches_index_and_attempt(self):
        plan = FaultPlan((FaultInjection(index=2, action="raise",
                                         attempts=(1, 3)),))
        assert plan.for_attempt(2, 1) is not None
        assert plan.for_attempt(2, 2) is None
        assert plan.for_attempt(2, 3) is not None
        assert plan.for_attempt(0, 1) is None

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultInjection(index=0, action="explode")

    def test_seeded_plans_are_deterministic(self):
        first = FaultPlan.seeded(7, 32, kill_fraction=0.25,
                                 raise_fraction=0.25)
        second = FaultPlan.seeded(7, 32, kill_fraction=0.25,
                                  raise_fraction=0.25)
        assert first == second
        assert first.injections  # 32 points at 50% fault odds
        assert FaultPlan.seeded(8, 32, kill_fraction=0.25) != first

    def test_plan_is_picklable(self):
        plan = FaultPlan.seeded(3, 8, kill_fraction=0.5)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestWorkerKilled:
    """A worker dying mid-point is a failed attempt, not a wedged sweep."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantine_records_are_deterministic(self, workers):
        plan = FaultPlan((FaultInjection(index=1, action="kill"),))
        sweep = run_sweep(_square, [3, 4, 5], workers=workers,
                          fault_plan=plan, on_error="quarantine")
        assert sweep.values == (9, None, 25)
        assert sweep.stats.failures == (
            PointFailure(index=1, attempts=1,
                         error="worker killed (exit code 137)"),
        )

    @pytest.mark.parametrize("method", _start_methods())
    def test_identical_across_start_methods(self, method):
        plan = FaultPlan((FaultInjection(index=0, action="kill"),))
        sweep = run_sweep(_square, [3, 4], workers=2, fault_plan=plan,
                          on_error="quarantine", start_method=method)
        assert sweep.values == (None, 16)
        assert sweep.stats.failures[0].error \
            == "worker killed (exit code 137)"

    def test_raise_mode_surfaces_the_failure_after_the_sweep(self):
        plan = FaultPlan((FaultInjection(index=0, action="kill"),))
        with pytest.raises(SweepPointError, match="exit code 137") as info:
            run_sweep(_square, [3, 4], workers=1, fault_plan=plan)
        assert info.value.failure.index == 0
        assert info.value.failure.attempts == 1

    def test_retry_recovers_a_killed_first_attempt(self):
        plan = FaultPlan((FaultInjection(index=0, action="kill",
                                         attempts=(1,)),))
        sweep = run_sweep(_square, [6], workers=1, fault_plan=plan,
                          retries=1)
        assert sweep.values == (36,)
        assert sweep.stats.failures == ()


class TestInjectedExceptions:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raise_injection_is_quarantined(self, workers):
        plan = FaultPlan((FaultInjection(index=2, action="raise"),))
        sweep = run_sweep(_square, [1, 2, 3, 4], workers=workers,
                          fault_plan=plan, on_error="quarantine")
        assert sweep.values == (1, 4, None, 16)
        failure = sweep.stats.failures[0]
        assert failure.index == 2
        assert "InjectedFault" in failure.error

    def test_real_exceptions_are_recorded_with_their_repr(self):
        sweep = run_sweep(lambda x: 1 // x, [2, 0], on_error="quarantine")
        assert sweep.values == (0, None)
        assert "ZeroDivisionError" in sweep.stats.failures[0].error

    def test_exhausted_retries_count_every_attempt(self):
        plan = FaultPlan((FaultInjection(index=0, action="raise",
                                         attempts=(1, 2, 3)),))
        sweep = run_sweep(_square, [5], workers=1, fault_plan=plan,
                          retries=2, on_error="quarantine")
        assert sweep.stats.failures[0].attempts == 3

    @pytest.mark.parametrize("kwargs", [{}, {"point_timeout_s": 30.0}],
                             ids=["plain", "timeout"])
    def test_raise_mode_raises_the_lowest_index_failure(self, kwargs):
        with pytest.raises(ValueError, match="point 0 failed"):
            run_sweep(_fail_slow_then_fast, [0, 1], workers=2, **kwargs)

    def test_injected_fault_is_a_runtime_error(self):
        assert issubclass(InjectedFault, RuntimeError)


class TestPointTimeout:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_delayed_point_times_out_deterministically(self, workers):
        plan = FaultPlan((FaultInjection(index=0, action="delay",
                                         delay_s=30.0),))
        sweep = run_sweep(_square, [7, 8], workers=workers, fault_plan=plan,
                          point_timeout_s=0.25, on_error="quarantine")
        assert sweep.values == (None, 64)
        assert sweep.stats.failures == (
            PointFailure(index=0, attempts=1,
                         error="point timed out after 0.25s"),
        )

    @pytest.mark.parametrize("method", _start_methods())
    def test_timeout_across_start_methods(self, method):
        # The deadline covers worker startup, and spawn workers pay an
        # interpreter boot before the point runs, so the timeout must sit
        # well above spawn startup yet well below the injected delay.
        plan = FaultPlan((FaultInjection(index=1, action="delay",
                                         delay_s=60.0),))
        sweep = run_sweep(_square, [7, 8], workers=2, fault_plan=plan,
                          point_timeout_s=5.0, on_error="quarantine",
                          start_method=method)
        assert sweep.values == (49, None)
        assert sweep.stats.failures[0].error \
            == "point timed out after 5s"

    def test_fast_points_pass_under_a_timeout(self):
        sweep = run_sweep(_square, [1, 2, 3], workers=2,
                          point_timeout_s=30.0)
        assert sweep.values == (1, 4, 9)
        assert sweep.stats.failures == ()

    def test_timeout_requires_picklable_fn(self):
        with pytest.raises(ValueError, match="picklable"):
            run_sweep(lambda x: x, [1], point_timeout_s=1.0)


class TestUnpicklableResult:
    def test_parallel_sweep_raises_a_sweep_point_error(self):
        with pytest.raises(SweepPointError,
                           match=r"unpicklable result \(PicklingError\)"):
            run_sweep(_make_unpicklable, [1, 2], workers=2)
        sweep = run_sweep(_make_unpicklable, [1, 2], workers=2,
                          on_error="quarantine")
        assert sweep.values == (None, None)
        assert sweep.stats.failures == (
            PointFailure(index=0, attempts=1,
                         error="unpicklable result (PicklingError)"),
            PointFailure(index=1, attempts=1,
                         error="unpicklable result (PicklingError)"),
        )

    def test_inline_sweep_never_pickles_results(self):
        sweep = run_sweep(_make_unpicklable, [1, 2], workers=1,
                          on_error="quarantine")
        assert all(isinstance(v, _UnpicklableResult) for v in sweep.values)
        assert sweep.stats.failures == ()
        assert sweep.stats.fallback_reason is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hardened_mode_quarantines_with_a_normalized_error(self, workers):
        # Reprs of unpicklable objects embed memory addresses; the
        # attempt loop normalizes the error so quarantine records are
        # identical across runs and worker counts.  The timeout puts the
        # workers=1 attempts in child processes too.
        sweep = run_sweep(_make_unpicklable, [1, 2], workers=workers,
                          point_timeout_s=30.0, on_error="quarantine")
        assert sweep.values == (None, None)
        assert {f.error for f in sweep.stats.failures} \
            == {"unpicklable result (PicklingError)"}


class TestFallbackReasons:
    def test_unpicklable_function_reason(self):
        sweep = run_sweep(lambda x: x + 1, [1, 2], workers=2)
        assert list(sweep.values) == [2, 3]
        assert sweep.stats.fallback_reason == "unpicklable function or point"

    def test_child_start_oserror_runs_inline_with_a_reason(self,
                                                           monkeypatch):
        def refuse(self):
            raise OSError("process creation forbidden")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        sweep = run_sweep(_square, [1, 2, 3], workers=2)
        assert sweep.values == (1, 4, 9)
        assert sweep.stats.parallel is False
        assert sweep.stats.fallback_reason \
            == "child process unavailable (OSError at start)"
        with pytest.raises(OSError, match="forbidden"):
            run_sweep(_square, [1, 2], workers=2, point_timeout_s=30.0)

    def test_serial_sweeps_have_no_reason(self):
        sweep = run_sweep(_square, [1, 2], workers=1)
        assert sweep.stats.fallback_reason is None

    def test_stats_remain_frozen_with_new_fields(self):
        stats = SweepStats(points=1, workers=1, parallel=False, wall_s=1.0)
        assert stats.failures == ()
        assert stats.journal_skipped == 0
        with pytest.raises(AttributeError):
            stats.failures = (None,)

    def test_wall_s_is_excluded_from_failure_equality(self):
        assert PointFailure(index=0, attempts=1, error="x", wall_s=0.5) \
            == PointFailure(index=0, attempts=1, error="x", wall_s=9.9)


class TestSweepJournal:
    def test_completed_points_are_skipped_on_resume(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        marks = str(tmp_path / "marks")
        os.makedirs(marks)
        first = run_sweep(_touch_and_square, [(marks, 1), (marks, 2)],
                          journal=journal)
        assert first.values == (1, 4)
        assert first.stats.journal_skipped == 0
        for name in ("ran-1", "ran-2"):
            os.remove(os.path.join(marks, name))
        second = run_sweep(_touch_and_square,
                           [(marks, 1), (marks, 2), (marks, 3)],
                           journal=journal)
        assert second.values == (1, 4, 9)
        assert second.stats.journal_skipped == 2
        # Only the new point actually executed.
        assert sorted(os.listdir(marks)) == ["ran-3"]

    def test_journal_keys_are_fn_specific(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        run_sweep(_square, [2], journal=journal)
        other = run_sweep(lambda x: x + 1, [2], journal=journal)
        assert other.values == (3,)  # _square's journal entry not reused
        assert other.stats.journal_skipped == 0

    def test_torn_final_line_is_ignored(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        run_sweep(_square, [2, 3], journal=journal)
        with open(journal, "a", encoding="utf-8") as stream:
            stream.write('{"key": "dead', )  # kill landed mid-write
        resumed = run_sweep(_square, [2, 3], journal=journal)
        assert resumed.values == (4, 9)
        assert resumed.stats.journal_skipped == 2

    def test_raise_mode_still_journals_completed_points(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        plan = FaultPlan((FaultInjection(index=1, action="raise"),))
        with pytest.raises(SweepPointError):
            run_sweep(_square, [4, 5], workers=1, fault_plan=plan,
                      journal=journal)
        # The completed point survives, so a resume only re-runs the
        # failed one.
        resumed = run_sweep(_square, [4, 5], journal=journal)
        assert resumed.values == (16, 25)
        assert resumed.stats.journal_skipped == 1

    def test_journal_is_plain_jsonl(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_sweep(_square, [2], journal=str(journal))
        lines = journal.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert set(record) == {"key", "value"}
        assert len(record["key"]) == 64  # sha256 hex

    @pytest.mark.parametrize("workers", [1, 2])
    def test_journal_with_hardened_executor(self, tmp_path, workers):
        journal = str(tmp_path / "journal.jsonl")
        plan = FaultPlan((FaultInjection(index=0, action="kill"),))
        first = run_sweep(_square, [3, 4], workers=workers, fault_plan=plan,
                          on_error="quarantine", journal=journal)
        assert first.values == (None, 16)
        resumed = run_sweep(_square, [3, 4], workers=workers,
                            on_error="quarantine", journal=journal)
        assert resumed.values == (9, 16)
        assert resumed.stats.journal_skipped == 1


class TestArgumentValidation:
    def test_on_error_is_validated(self):
        with pytest.raises(ValueError, match="on_error"):
            run_sweep(_square, [1], on_error="ignore")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            run_sweep(_square, [1], retries=-1)

    def test_unpicklable_quarantine_without_isolation_still_works(self):
        # Quarantine alone does not need child processes, so unpicklable
        # callables keep working through the inline attempt loop.
        sweep = run_sweep(lambda x: 1 // x, [1, 0], workers=2, retries=1,
                          on_error="quarantine")
        assert sweep.values == (1, None)
        assert sweep.stats.fallback_reason == "unpicklable function or point"
        assert sweep.stats.failures[0].attempts == 2


class TestSystemRunResult:
    def _system(self, num_channels=2):
        from repro.controller.mc import ControllerConfig
        from repro.controller.request import RequestKind
        from repro.sim.memory_system import (
            ConventionalMemorySystem,
            MemorySystemConfig,
        )
        from repro.sim.traces import streaming_trace

        system = ConventionalMemorySystem(MemorySystemConfig(
            num_channels=num_channels,
            controller=ControllerConfig(enable_refresh=False),
        ))
        system.enqueue_many(streaming_trace(32 * 1024, request_bytes=4096,
                                            kind=RequestKind.READ))
        return system

    def test_serial_run_reports_no_fallback(self):
        result = run_system_until_idle_result(self._system(), workers=1)
        assert result.parallel is False
        assert result.workers == 1
        assert result.fallback_reason is None
        assert result.end_ns > 0

    def test_parallel_run_reports_the_pool_path(self):
        result = run_system_until_idle_result(self._system(), workers=2)
        assert result.parallel is True
        assert result.workers == 2
        assert result.fallback_reason is None

    def test_unpicklable_controllers_drain_inline_with_a_reason(self):
        system = self._system()
        for controller in system.controllers:
            controller.unpicklable = lambda: None
        result = run_system_until_idle_result(system, workers=2)
        assert result.parallel is False
        assert result.fallback_reason == "unpicklable function or point"
        assert result.end_ns \
            == run_system_until_idle_result(self._system()).end_ns

    def test_single_channel_reports_why_it_stayed_serial(self):
        result = run_system_until_idle_result(self._system(num_channels=1),
                                              workers=4)
        assert result.parallel is False
        assert result.fallback_reason == "single channel"

    def test_parallel_and_serial_agree_on_end_time(self):
        serial = run_system_until_idle_result(self._system(), workers=1)
        parallel = run_system_until_idle_result(self._system(), workers=2)
        assert serial.end_ns == parallel.end_ns
