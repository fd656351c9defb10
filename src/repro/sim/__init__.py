"""Simulation engine, workload traces, multi-channel memory systems, and
the sweep runner (:mod:`repro.sim.sweep`)."""

from repro.sim.stats import BandwidthResult, LatencyResult, SimulationResult
from repro.sim.traces import (
    TracePattern,
    mixed_trace,
    random_trace,
    streaming_trace,
    strided_trace,
)
from repro.sim.memory_system import (
    ConventionalMemorySystem,
    RoMeMemorySystem,
    MemorySystemConfig,
)
from repro.sim.engine import Simulation
from repro.sim.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    restore_controller,
    save_checkpoint,
    snapshot_controller,
)
from repro.sim.sweep import (
    FaultInjection,
    FaultPlan,
    PointFailure,
    SweepPointError,
    SweepResult,
    SweepStats,
    SystemRunResult,
    run_sweep,
    run_system_until_idle_result,
)
from repro.sim.runner import (
    measure_conventional_streaming,
    measure_rome_streaming,
    queue_depth_sweep,
    queue_depth_sweep_result,
    vba_design_space_sweep,
)

__all__ = [
    "BandwidthResult",
    "Checkpoint",
    "CheckpointError",
    "ConventionalMemorySystem",
    "FaultInjection",
    "FaultPlan",
    "LatencyResult",
    "MemorySystemConfig",
    "PointFailure",
    "RoMeMemorySystem",
    "Simulation",
    "SimulationResult",
    "SweepPointError",
    "SweepResult",
    "SweepStats",
    "SystemRunResult",
    "TracePattern",
    "load_checkpoint",
    "measure_conventional_streaming",
    "measure_rome_streaming",
    "mixed_trace",
    "queue_depth_sweep",
    "queue_depth_sweep_result",
    "random_trace",
    "restore_controller",
    "run_sweep",
    "run_system_until_idle_result",
    "save_checkpoint",
    "snapshot_controller",
    "streaming_trace",
    "strided_trace",
    "vba_design_space_sweep",
]
