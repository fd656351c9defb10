"""Multi-channel memory systems for the baseline and RoMe.

A memory system stitches together one memory controller per channel and
distributes host requests across them: the conventional system decodes each
32 B block with its address mapping, while the RoMe system stripes whole
4 KB effective rows across channels and virtual banks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.controller.mc import ControllerConfig, ConventionalMemoryController
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.controller import RoMeControllerConfig, RoMeMemoryController
from repro.core.interface import RowRequest, RowRequestKind
from repro.defaults import DEFAULT_DRAIN_HORIZON_NS
from repro.dram.address import AddressMapping, baseline_hbm4_mapping
from repro.dram.energy import EnergyCounters
from repro.reliability.faults import ReliabilityConfig
from repro.reliability.ras import ReliabilityStats
from repro.sim.stats import BandwidthResult, LatencyResult, SimulationResult


@dataclass(frozen=True)
class MemorySystemConfig:
    """Shared configuration of a multi-channel memory system."""

    num_channels: int = 2
    controller: Optional[ControllerConfig] = None
    rome_controller: Optional[RoMeControllerConfig] = None
    #: Device-fault + RAS configuration applied to every channel
    #: controller (None = ideal memory, the pre-reliability behavior).
    reliability: Optional[ReliabilityConfig] = None


def _merged_reliability(controllers) -> Optional[ReliabilityStats]:
    return ReliabilityStats.merged(
        c.ras.stats for c in controllers if c.ras is not None
    )


class ConventionalMemorySystem:
    """Multiple conventional channels behind one address-mapped front end."""

    def __init__(self, config: Optional[MemorySystemConfig] = None) -> None:
        self.config = config or MemorySystemConfig()
        controller_config = self.config.controller or ControllerConfig()
        # System-level distribution: interleave channels at the access
        # granularity so bulk requests spread across all channels, then let
        # each channel's local mapping handle banks/rows.
        local = controller_config.local_mapping(num_channels=1)
        self.mapping: AddressMapping = AddressMapping(
            granularity_bytes=local.granularity_bytes,
            num_channels=self.config.num_channels,
            num_pseudo_channels=local.num_pseudo_channels,
            num_stack_ids=local.num_stack_ids,
            num_bank_groups=local.num_bank_groups,
            banks_per_group=local.banks_per_group,
            columns_per_row=local.columns_per_row,
            field_order=(
                "channel", "bank_group", "pseudo_channel", "column", "bank",
                "stack_id", "row",
            ),
        )
        # Per-channel mapping: each controller sees only its own blocks, so
        # its local mapping treats the system as single-channel.
        local_mapping = controller_config.local_mapping(num_channels=1)
        self.controllers: List[ConventionalMemoryController] = [
            ConventionalMemoryController(
                config=controller_config, mapping=local_mapping, channel_id=i,
                reliability=self.config.reliability,
            )
            for i in range(self.config.num_channels)
        ]

    @property
    def num_channels(self) -> int:
        return self.config.num_channels

    def enqueue(self, request: MemoryRequest) -> None:
        """Split ``request`` into per-channel sub-requests and enqueue them."""
        block = self.mapping.granularity_bytes
        per_channel_bytes: Dict[int, int] = {}
        address = request.address - (request.address % block)
        end = request.address + request.size_bytes
        while address < end:
            channel = self.mapping.channel_of(address)
            per_channel_bytes[channel] = per_channel_bytes.get(channel, 0) + block
            address += block
        for channel, size in per_channel_bytes.items():
            # Each controller sees its own contiguous slice of the address
            # stream (its local mapping is single-channel), so the system
            # address is folded by the channel count to preserve per-channel
            # spatial locality.
            sub = MemoryRequest(
                kind=request.kind,
                address=request.address // self.num_channels,
                size_bytes=size,
                arrival_ns=request.arrival_ns,
            )
            self.controllers[channel].enqueue(sub)

    def enqueue_many(self, requests: List[MemoryRequest]) -> None:
        for request in requests:
            self.enqueue(request)

    def run_until_idle(self, max_ns: int = DEFAULT_DRAIN_HORIZON_NS,
                       event_driven: bool = True) -> int:
        return max(
            controller.run_until_idle(max_ns, event_driven=event_driven)
            for controller in self.controllers
        )

    def result(self, name: str = "hbm4") -> SimulationResult:
        elapsed = max(controller.now for controller in self.controllers)
        total_bytes = sum(
            c.stats.bytes_read + c.stats.bytes_written for c in self.controllers
        )
        peak = sum(
            c.channel.config.peak_bandwidth_bytes_per_ns for c in self.controllers
        )
        latencies: List[int] = []
        commands: Dict[str, int] = {}
        for controller in self.controllers:
            latencies.extend(controller.stats.read_latencies)
            for kind, count in controller.channel.command_counts().items():
                commands[kind] = commands.get(kind, 0) + count
        return SimulationResult(
            name=name,
            bandwidth=BandwidthResult(
                bytes_transferred=total_bytes,
                elapsed_ns=float(elapsed),
                peak_bytes_per_ns=peak,
            ),
            latency=LatencyResult.from_samples(latencies),
            command_counts=commands,
            evaluations=sum(c.stats.evaluations for c in self.controllers),
            reliability=_merged_reliability(self.controllers),
        )

    def energy_counters(self) -> EnergyCounters:
        counters = EnergyCounters(num_channels=0)
        for controller in self.controllers:
            counters = counters.merge(controller.energy_counters())
        return counters


class RoMeMemorySystem:
    """Multiple RoMe channels fed by row-granularity requests."""

    def __init__(self, config: Optional[MemorySystemConfig] = None) -> None:
        self.config = config or MemorySystemConfig()
        controller_config = self.config.rome_controller or RoMeControllerConfig()
        self.controller_config = controller_config
        self.controllers: List[RoMeMemoryController] = [
            RoMeMemoryController(config=controller_config, channel_id=i,
                                 reliability=self.config.reliability)
            for i in range(self.config.num_channels)
        ]

    @property
    def num_channels(self) -> int:
        return self.config.num_channels

    @property
    def effective_row_bytes(self) -> int:
        return self.controller_config.vba.effective_row_bytes

    def enqueue(self, request: RowRequest) -> None:
        self.controllers[request.channel % self.num_channels].enqueue(request)

    def enqueue_many(self, requests: List[RowRequest]) -> None:
        for request in requests:
            self.enqueue(request)

    def enqueue_host_request(self, request: MemoryRequest) -> None:
        """Translate a byte-addressed host request into row requests.

        Whole effective rows are striped across channels first and virtual
        banks second, matching :func:`repro.core.interface.requests_for_transfer`.
        """
        row_bytes = self.effective_row_bytes
        vbas = self.controller_config.vbas_per_stack
        kind = (
            RowRequestKind.WR_ROW
            if request.kind is RequestKind.WRITE
            else RowRequestKind.RD_ROW
        )
        start_block = request.address // row_bytes
        end_block = (request.address + request.size_bytes - 1) // row_bytes
        for block in range(start_block, end_block + 1):
            block_start = block * row_bytes
            block_end = block_start + row_bytes
            valid = min(block_end, request.address + request.size_bytes) - max(
                block_start, request.address
            )
            self.enqueue(
                RowRequest(
                    kind=kind,
                    channel=block % self.num_channels,
                    vba=(block // self.num_channels) % vbas,
                    row=block // (self.num_channels * vbas),
                    valid_bytes=valid,
                    arrival_ns=request.arrival_ns,
                )
            )

    def run_until_idle(self, max_ns: int = DEFAULT_DRAIN_HORIZON_NS,
                       event_driven: bool = True) -> int:
        return max(
            controller.run_until_idle(max_ns, event_driven=event_driven)
            for controller in self.controllers
        )

    def result(self, name: str = "rome") -> SimulationResult:
        elapsed = max(controller.now for controller in self.controllers)
        total_bytes = sum(
            c.stats.bytes_read + c.stats.bytes_written for c in self.controllers
        )
        peak_per_channel = self.controller_config.peak_bandwidth_bytes_per_ns
        overfetch = sum(c.stats.overfetch_bytes for c in self.controllers)
        return SimulationResult(
            name=name,
            bandwidth=BandwidthResult(
                bytes_transferred=total_bytes,
                elapsed_ns=float(elapsed),
                peak_bytes_per_ns=peak_per_channel * self.num_channels,
            ),
            latency=LatencyResult.from_accumulators(
                c.stats.read_latency for c in self.controllers
            ),
            command_counts={
                "RD_row": sum(c.stats.served_reads for c in self.controllers),
                "WR_row": sum(c.stats.served_writes for c in self.controllers),
                "REF_row": sum(c.stats.refreshes_issued for c in self.controllers),
            },
            extra={"overfetch_bytes": float(overfetch)},
            evaluations=sum(c.stats.evaluations for c in self.controllers),
            reliability=_merged_reliability(self.controllers),
        )

    def energy_counters(self) -> EnergyCounters:
        counters = EnergyCounters(num_channels=0)
        for controller in self.controllers:
            counters = counters.merge(controller.energy_counters())
        return counters
