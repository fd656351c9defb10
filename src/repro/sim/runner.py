"""High-level measurement helpers used by tests, examples, and benchmarks.

Each helper builds a memory system, enqueues a trace, drains it, and
returns a :class:`~repro.sim.stats.SimulationResult`.  All of them are
deterministic: given the same arguments they simulate the same cycles and
return the same numbers, which is what lets the sweep runner
(:mod:`repro.sim.sweep`) shard them across processes without changing
results.

Worker semantics
----------------
Helpers that accept ``workers`` treat ``1`` (the default) as "exactly the
serial code path" -- no worker process is started and results are
bit-identical to pre-sweep versions of this module.  ``workers > 1``
parallelizes at the natural grain:

* the streaming measurers shard their per-channel controllers
  (:func:`repro.sim.sweep.run_system_until_idle_result`);
* the sweeps shard independent simulation points
  (:func:`repro.sim.sweep.run_sweep`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.controller.mc import ControllerConfig
from repro.controller.request import RequestKind
from repro.core.controller import RoMeControllerConfig
from repro.core.interface import RowRequestKind, requests_for_transfer
from repro.core.timing import ROME_TIMING, derive_rome_timing
from repro.core.virtual_bank import (
    VBA_DESIGN_SPACE,
    VirtualBankConfig,
    paper_vba_config,
)
from repro.dram.timing import HBM4_TIMING, TimingParameters
from repro.sim.memory_system import (
    ConventionalMemorySystem,
    MemorySystemConfig,
    RoMeMemorySystem,
)
from repro.sim.stats import SimulationResult
from repro.sim.sweep import (
    SweepResult,
    run_sweep,
    run_system_until_idle_result,
)
from repro.sim.traces import streaming_trace


def measure_conventional_streaming(
    total_bytes: int = 512 * 1024,
    num_channels: int = 1,
    read_queue_depth: int = 64,
    request_bytes: int = 4096,
    enable_refresh: bool = False,
    timing: Optional[TimingParameters] = None,
    workers: int = 1,
) -> SimulationResult:
    """Stream ``total_bytes`` of reads through the conventional system.

    ``workers`` shards the per-channel controllers across processes once
    the trace is enqueued; with one channel or ``workers=1`` the drain is
    the plain serial path.
    """
    config = MemorySystemConfig(
        num_channels=num_channels,
        controller=ControllerConfig(
            timing=timing or TimingParameters(),
            read_queue_depth=read_queue_depth,
            write_queue_depth=read_queue_depth,
            enable_refresh=enable_refresh,
        ),
    )
    system = ConventionalMemorySystem(config)
    system.enqueue_many(
        streaming_trace(total_bytes, request_bytes=request_bytes,
                        kind=RequestKind.READ)
    )
    run_system_until_idle_result(system, workers=workers)
    return system.result(name=f"hbm4-q{read_queue_depth}")


def measure_rome_streaming(
    total_bytes: int = 512 * 1024,
    num_channels: int = 1,
    request_queue_depth: int = 4,
    vba: Optional[VirtualBankConfig] = None,
    enable_refresh: bool = False,
    write_fraction: float = 0.0,
    workers: int = 1,
) -> SimulationResult:
    """Stream ``total_bytes`` through the RoMe system as row requests.

    ``workers`` shards the per-channel controllers as in
    :func:`measure_conventional_streaming`.
    """
    vba = vba or paper_vba_config()
    config = MemorySystemConfig(
        num_channels=num_channels,
        rome_controller=RoMeControllerConfig(
            timing=ROME_TIMING,
            vba=vba,
            request_queue_depth=request_queue_depth,
            enable_refresh=enable_refresh,
        ),
    )
    system = RoMeMemorySystem(config)
    row_bytes = vba.effective_row_bytes
    read_bytes = int(total_bytes * (1.0 - write_fraction))
    write_bytes = total_bytes - read_bytes
    requests = requests_for_transfer(
        read_bytes,
        kind=RowRequestKind.RD_ROW,
        effective_row_bytes=row_bytes,
        num_channels=num_channels,
        vbas_per_channel=vba.vbas_per_channel_per_sid,
    )
    if write_bytes:
        requests += requests_for_transfer(
            write_bytes,
            kind=RowRequestKind.WR_ROW,
            effective_row_bytes=row_bytes,
            num_channels=num_channels,
            vbas_per_channel=vba.vbas_per_channel_per_sid,
            start_row=1 << 10,
        )
    system.enqueue_many(requests)
    run_system_until_idle_result(system, workers=workers)
    return system.result(name=f"rome-q{request_queue_depth}")


def streaming_point(system: str, total_bytes: int) -> SimulationResult:
    """One streaming-bandwidth measurement (picklable sweep point).

    ``system`` is ``"rome"`` or ``"hbm4"``; used by ``rome-repro
    bandwidth --workers N`` to run the two systems concurrently.
    """
    if system == "rome":
        return measure_rome_streaming(total_bytes=total_bytes)
    if system == "hbm4":
        return measure_conventional_streaming(total_bytes=total_bytes)
    raise ValueError("system must be 'rome' or 'hbm4'")


def queue_depth_point(system: str, depth: int, total_bytes: int) -> float:
    """Bandwidth utilization of one (system, queue depth) sweep point."""
    if system == "rome":
        result = measure_rome_streaming(
            total_bytes=total_bytes, request_queue_depth=depth
        )
    elif system == "hbm4":
        result = measure_conventional_streaming(
            total_bytes=total_bytes, read_queue_depth=depth
        )
    else:
        raise ValueError("system must be 'rome' or 'hbm4'")
    return result.utilization


def queue_depth_sweep_result(
    depths: List[int],
    system: str = "rome",
    total_bytes: int = 256 * 1024,
    workers: int = 1,
) -> SweepResult:
    """Queue-depth sweep with full :class:`~repro.sim.sweep.SweepStats`.

    Returns utilizations in ``depths`` order plus wall time and worker
    count for the run.
    """
    return run_sweep(
        queue_depth_point,
        [(system, depth, total_bytes) for depth in depths],
        workers=workers,
    )


def queue_depth_sweep(
    depths: List[int],
    system: str = "rome",
    total_bytes: int = 256 * 1024,
    workers: int = 1,
) -> Dict[int, float]:
    """Bandwidth utilization versus request-queue depth (Section V-A).

    ``system`` is ``"rome"`` or ``"hbm4"``.  Returns ``{depth:
    utilization}`` in ``depths`` order.  Each depth is an independent
    simulation; ``workers`` shards them across processes with identical
    results (``workers=1`` runs the exact serial loop).
    """
    sweep = queue_depth_sweep_result(depths, system=system,
                                     total_bytes=total_bytes, workers=workers)
    return dict(zip(depths, sweep.values))


def measure_vba_design_point(
    vba_index: int, total_bytes: int = 96 * 4096
) -> SimulationResult:
    """Stream a drain through one point of the six-point VBA design space.

    ``vba_index`` indexes :data:`repro.core.virtual_bank.VBA_DESIGN_SPACE`
    (an index rather than the config object keeps sweep points trivially
    picklable).  Section IV-B: every point should deliver near-identical
    streaming bandwidth; they differ in DRAM-die area.
    """
    vba = VBA_DESIGN_SPACE[vba_index]
    timing = derive_rome_timing(HBM4_TIMING, vba)
    # Design points with smaller effective rows (1-2 KB) finish a row
    # command faster than tRD_row/tR2RS = 2 commands, so they need one or
    # two extra in-flight bank FSMs to stay at full bandwidth; the adopted
    # 4 KB point needs only the paper's two.
    data_fsms = max(2, -(-timing.tRD_row // timing.tR2RS) + 1)
    system = RoMeMemorySystem(
        MemorySystemConfig(
            num_channels=1,
            rome_controller=RoMeControllerConfig(
                timing=timing, vba=vba, num_stack_ids=1, enable_refresh=False,
                max_data_fsms=data_fsms,
            ),
        )
    )
    requests = requests_for_transfer(
        total_bytes,
        kind=RowRequestKind.RD_ROW,
        effective_row_bytes=vba.effective_row_bytes,
        num_channels=1,
        vbas_per_channel=vba.vbas_per_channel_per_sid,
    )
    system.enqueue_many(requests)
    system.run_until_idle()
    return system.result()


def vba_design_space_sweep(
    total_bytes: int = 96 * 4096, workers: int = 1
) -> List[Dict[str, Any]]:
    """Simulated utilization rows for the whole VBA design space.

    One row per :data:`~repro.core.virtual_bank.VBA_DESIGN_SPACE` point,
    in design-space order; ``workers`` shards the six simulations.
    """
    sweep = run_sweep(
        measure_vba_design_point,
        [(index, total_bytes) for index in range(len(VBA_DESIGN_SPACE))],
        workers=workers,
    )
    rows = []
    for vba, result in zip(VBA_DESIGN_SPACE, sweep.values):
        rows.append(
            {
                "bank_merge": vba.bank_merge.value,
                "pc_merge": vba.pc_merge.value,
                "effective_row_bytes": vba.effective_row_bytes,
                "utilization": result.utilization,
                "area_overhead": vba.area_overhead_fraction,
                "needs_dram_changes": vba.requires_dram_core_modification,
            }
        )
    return rows
