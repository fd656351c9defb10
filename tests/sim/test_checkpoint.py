"""Checkpoint/restore equivalence suite (:mod:`repro.sim.checkpoint`).

The central claim under test: a checkpoint-restore-continue run is
**bit-identical** to the uninterrupted run, on both controllers, with
refresh enabled, including cuts that land inside an hbm4 busy period or
a RoMe event-core jump (the cut is an ``advance_to`` target, where either
event core stops as it does at a scheduled arrival).  Also covers the
checkpoint format itself -- versioning, digest verification, on-disk
round-trips, corrupt-file rejection -- and the engine's checkpointable
arrival schedule.
"""

import pickle

import pytest

from repro.controller.mc import ControllerConfig, ConventionalMemoryController
from repro.controller.request import RequestKind
from repro.core.controller import RoMeControllerConfig, RoMeMemoryController
from repro.core.interface import RowRequestKind, requests_for_transfer
from repro.core.virtual_bank import paper_vba_config
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    make_checkpoint,
    restore_controller,
    save_checkpoint,
    snapshot_controller,
)
from repro.sim.engine import Simulation
from repro.sim.traces import streaming_trace
from repro.workloads.driver import (
    checkpoint_workload,
    resume_workload,
    run_workload,
)
from repro.workloads.scenarios import ScenarioSpec
from repro.workloads.serving import ServingConfig

TINY_SERVING = ServingConfig(
    model_name="grok-1",
    batch_capacity=2,
    prompt_tokens=128,
    output_tokens=2,
    iteration_interval_ns=512,
    traffic_scale=2.0 ** -26,
)


def _spec(**overrides):
    defaults = dict(scenario="decode-serving", system="rome",
                    rate_per_s=200_000.0, num_requests=4, seed=0,
                    serving=TINY_SERVING, enable_refresh=True)
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def _loaded_rome(total_bytes=64 * 1024, enable_refresh=True):
    vba = paper_vba_config()
    controller = RoMeMemoryController(
        RoMeControllerConfig(num_stack_ids=1, enable_refresh=enable_refresh)
    )
    for request in requests_for_transfer(
        total_bytes,
        kind=RowRequestKind.RD_ROW,
        effective_row_bytes=vba.effective_row_bytes,
        num_channels=1,
        vbas_per_channel=vba.vbas_per_channel_per_sid,
    ):
        controller.enqueue(request)
    return controller


def _loaded_conventional(total_bytes=64 * 1024, enable_refresh=True):
    controller = ConventionalMemoryController(
        ControllerConfig(num_stack_ids=1, enable_refresh=enable_refresh)
    )
    for request in streaming_trace(total_bytes, request_bytes=4096,
                                   kind=RequestKind.READ):
        controller.enqueue(request)
    return controller


_BUILDERS = {"rome": _loaded_rome, "hbm4": _loaded_conventional}


class TestControllerBitIdentity:
    """checkpoint -> restore -> continue == never stopped, both systems."""

    @pytest.mark.parametrize("system", ["rome", "hbm4"])
    def test_halfway_cut_is_bit_identical(self, system):
        build = _BUILDERS[system]
        baseline = build()
        end_ns = baseline.run_until_idle()
        assert baseline.stats.refreshes_issued > 0  # refresh really on

        cut = build()
        cut.advance_to(end_ns // 2)
        restored = restore_controller(snapshot_controller(cut))
        assert restored.run_until_idle() == end_ns
        # Full stats object: command counts, bytes, refreshes, latency
        # accumulator reservoirs (``evaluations`` is compare=False, as
        # everywhere in this tree).
        assert restored.stats == baseline.stats

    @pytest.mark.parametrize("system", ["rome", "hbm4"])
    def test_every_cut_point_is_bit_identical(self, system):
        # Cuts at many offsets, including ones landing inside hbm4 busy
        # periods or RoMe event-core jumps (saturated drain), all stop the
        # event core as an arrival does and continue bit-identically.
        build = _BUILDERS[system]
        baseline = build(total_bytes=32 * 1024)
        end_ns = baseline.run_until_idle()
        for fraction in (0.1, 0.25, 0.5, 0.75, 0.9):
            cut = build(total_bytes=32 * 1024)
            cut.advance_to(int(end_ns * fraction))
            restored = restore_controller(snapshot_controller(cut))
            assert restored.run_until_idle() == end_ns
            assert restored.stats == baseline.stats

    @pytest.mark.parametrize("system", ["rome", "hbm4"])
    def test_checkpoint_survives_disk_round_trip(self, system, tmp_path):
        build = _BUILDERS[system]
        baseline = build()
        end_ns = baseline.run_until_idle()

        cut = build()
        cut.advance_to(end_ns // 2)
        path = tmp_path / "controller.ckpt"
        save_checkpoint(snapshot_controller(cut), path)
        restored = restore_controller(load_checkpoint(path))
        assert restored.run_until_idle() == end_ns
        assert restored.stats == baseline.stats

    def test_restoring_twice_gives_independent_controllers(self):
        cut = _loaded_rome()
        cut.advance_to(100)
        checkpoint = snapshot_controller(cut)
        first = restore_controller(checkpoint)
        second = restore_controller(checkpoint)
        end_first = first.run_until_idle()
        assert second.now == checkpoint.now_ns  # untouched by the first
        assert second.run_until_idle() == end_first
        assert second.stats == first.stats

    def test_snapshot_does_not_perturb_the_source(self):
        baseline = _loaded_conventional()
        end_plain = baseline.run_until_idle()
        observed = _loaded_conventional()
        observed.advance_to(end_plain // 2)
        snapshot_controller(observed)  # snapshot, then keep running
        assert observed.run_until_idle() == end_plain
        assert observed.stats == baseline.stats


class TestCheckpointFormat:
    def test_snapshot_kind_and_version(self):
        checkpoint = snapshot_controller(_loaded_rome())
        assert checkpoint.version == CHECKPOINT_VERSION
        assert checkpoint.kind == "rome-controller"
        assert checkpoint.now_ns == 0
        conventional = snapshot_controller(_loaded_conventional())
        assert conventional.kind == "conventional-controller"

    def test_snapshot_rejects_foreign_objects(self):
        with pytest.raises(CheckpointError, match="cannot snapshot"):
            snapshot_controller(object())

    def test_restore_rejects_wrong_kind(self):
        checkpoint = make_checkpoint("workload", 0, {"not": "a controller"})
        with pytest.raises(CheckpointError, match="not a controller"):
            restore_controller(checkpoint)

    def test_restore_rejects_unknown_version(self):
        # A newer version, and every older layout: v1 (per-target refresh
        # deadline dicts), v2 (request queues without bank machines), v3
        # (dataclass DRAM coordinates), v4 (banks with a state machine)
        # and v5 (private pseudo-channel timing fields).
        for checkpoint in (snapshot_controller(_loaded_rome()),
                           snapshot_controller(_loaded_conventional())):
            for version in (CHECKPOINT_VERSION + 1, 5, 4, 3, 2, 1):
                stale = Checkpoint(version=version, kind=checkpoint.kind,
                                   now_ns=checkpoint.now_ns,
                                   payload=checkpoint.payload,
                                   digest=checkpoint.digest, meta={})
                with pytest.raises(CheckpointError, match="version"):
                    restore_controller(stale)

    def test_digest_detects_payload_corruption(self):
        checkpoint = snapshot_controller(_loaded_rome())
        torn = Checkpoint(version=checkpoint.version, kind=checkpoint.kind,
                          now_ns=checkpoint.now_ns,
                          payload=checkpoint.payload[:-1] + b"\x00",
                          digest=checkpoint.digest, meta={})
        with pytest.raises(CheckpointError, match="digest mismatch"):
            torn.state()

    def test_unpicklable_state_fails_loudly(self):
        with pytest.raises(CheckpointError, match="not picklable"):
            make_checkpoint("workload", 0, lambda: None)

    def test_load_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "stray.bin"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_load_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        save_checkpoint(snapshot_controller(_loaded_rome()), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_checkpoint_record_pickles(self):
        checkpoint = snapshot_controller(_loaded_rome())
        clone = pickle.loads(pickle.dumps(checkpoint))
        assert clone == checkpoint
        assert restore_controller(clone).now == checkpoint.now_ns

    def test_meta_is_carried_verbatim(self):
        checkpoint = snapshot_controller(_loaded_rome(),
                                         meta={"step": 3, "rate": 1e6})
        assert checkpoint.meta == {"step": 3, "rate": 1e6}


class TestEngineArrivalPayloads:
    def test_pending_arrivals_in_fire_order(self):
        simulation = Simulation(controllers=[])
        fired = []
        simulation.at(30, fired.append, payload="c")
        simulation.at(10, fired.append, payload="a")
        simulation.at(10, fired.append, payload="b")
        assert simulation.pending_arrivals() == (
            (10, "a"), (10, "b"), (30, "c"),
        )

    def test_fired_arrivals_leave_the_pending_view(self):
        simulation = Simulation(controllers=[])
        simulation.at(5, lambda now: None, payload="early")
        simulation.at(50, lambda now: None, payload="late")
        simulation.run_for(10)
        assert simulation.pending_arrivals() == ((50, "late"),)

    def test_payloadless_arrival_refuses_to_checkpoint(self):
        simulation = Simulation(controllers=[])
        simulation.at(10, lambda now: None)
        with pytest.raises(ValueError, match="no payload"):
            simulation.pending_arrivals()

    def test_immediate_arrival_needs_no_payload(self):
        # A callback due at-or-before now fires synchronously and never
        # enters the schedule, so it cannot poison pending_arrivals().
        simulation = Simulation(controllers=[])
        fired = []
        simulation.at(0, fired.append)
        assert fired == [0]
        assert simulation.pending_arrivals() == ()


class TestWorkloadResume:
    """Mid-flight workload cut == uninterrupted run, request identity
    and pending arrivals included."""

    @pytest.mark.parametrize("system", ["rome", "hbm4"])
    def test_resumed_result_equals_uninterrupted(self, system):
        spec = _spec(system=system)
        full = run_workload(spec)
        checkpoint = checkpoint_workload(spec, at_ns=full.horizon_ns // 2)
        assert checkpoint.kind == "workload"
        assert checkpoint.meta["system"] == system
        assert resume_workload(checkpoint) == full

    def test_resume_after_pickle_round_trip(self):
        # The kill-and-restart story: the checkpoint crosses process
        # death as bytes, and the resumed result is still bit-identical.
        spec = _spec()
        full = run_workload(spec)
        checkpoint = checkpoint_workload(spec, at_ns=full.horizon_ns // 3)
        revived = pickle.loads(pickle.dumps(checkpoint))
        assert resume_workload(revived) == full

    def test_cut_points_across_the_horizon(self):
        spec = _spec()
        full = run_workload(spec)
        for fraction in (0.0, 0.2, 0.6, 0.95):
            at_ns = int(full.horizon_ns * fraction)
            assert resume_workload(
                checkpoint_workload(spec, at_ns=at_ns)) == full

    def test_cut_after_the_horizon_still_matches(self):
        spec = _spec()
        full = run_workload(spec)
        checkpoint = checkpoint_workload(spec, at_ns=full.horizon_ns + 1)
        assert checkpoint.state().pending == ()  # everything already fired
        assert resume_workload(checkpoint) == full

    def test_resume_rejects_controller_checkpoints(self):
        with pytest.raises(CheckpointError, match="not a workload"):
            resume_workload(snapshot_controller(_loaded_rome()))

    def test_lockstep_resume_matches_event_resume(self):
        spec = _spec()
        checkpoint = checkpoint_workload(
            spec, at_ns=run_workload(spec).horizon_ns // 2)
        assert resume_workload(checkpoint, event_driven=False) \
            == resume_workload(checkpoint, event_driven=True)
