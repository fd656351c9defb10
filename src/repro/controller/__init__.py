"""Conventional memory-controller substrate.

Implements the generic memory controller of Section II-D: address mapping is
provided by :mod:`repro.dram.address`, while this package supplies the
read/write request queues, per-bank state logic, the FR-FCFS command
scheduler (open-page row rule, per-bank refresh), and the top-level
controller that drives one HBM channel.
"""

from repro.controller.request import MemoryRequest, RequestKind
from repro.controller.queues import RequestQueue
from repro.controller.scheduler import FrFcfsScheduler, SchedulerDecision
from repro.controller.mc import ConventionalMemoryController, ControllerConfig

__all__ = [
    "ControllerConfig",
    "ConventionalMemoryController",
    "FrFcfsScheduler",
    "MemoryRequest",
    "RequestKind",
    "RequestQueue",
    "SchedulerDecision",
]
