"""Workload trace generators.

LLM inference produces highly sequential, bulky memory accesses (Section III);
the generators here produce request streams for the cycle-level simulators:
pure streaming (the LLM-like pattern), strided, random (the adversarial
pattern for RoMe, causing overfetch), and read/write mixes.

All generators are deterministic: the randomized ones (``random_trace``,
``mixed_trace``) take an explicit ``seed`` and use a private
``random.Random`` instance, so the same arguments always produce the
same trace -- in any process, which is what lets the sweep runner
(:mod:`repro.sim.sweep`) regenerate traces inside worker processes
without changing results.  Generators return fresh, mutable
:class:`~repro.controller.request.MemoryRequest` objects on every call.
"""

from __future__ import annotations

import enum
import random
from typing import List, Optional

from repro.controller.request import MemoryRequest, RequestKind


class TracePattern(enum.Enum):
    STREAMING = "streaming"
    STRIDED = "strided"
    RANDOM = "random"
    MIXED = "mixed"


def streaming_trace(
    total_bytes: int,
    request_bytes: int = 4096,
    kind: RequestKind = RequestKind.READ,
    start_address: int = 0,
    arrival_ns: int = 0,
) -> List[MemoryRequest]:
    """Sequential requests covering ``total_bytes`` from ``start_address``.

    Emits ``ceil(total_bytes / request_bytes)`` back-to-back requests of
    ``request_bytes`` each (the final one truncated to the remainder),
    all stamped with the same ``arrival_ns`` -- the load-then-drain
    pattern the streaming measurers use.
    """
    if request_bytes <= 0:
        raise ValueError("request_bytes must be positive")
    requests = []
    address = start_address
    remaining = total_bytes
    while remaining > 0:
        size = min(request_bytes, remaining)
        requests.append(
            MemoryRequest(kind=kind, address=address, size_bytes=size,
                          arrival_ns=arrival_ns)
        )
        address += size
        remaining -= size
    return requests


def strided_trace(
    num_requests: int,
    stride_bytes: int,
    request_bytes: int = 32,
    kind: RequestKind = RequestKind.READ,
    start_address: int = 0,
    arrival_ns: int = 0,
) -> List[MemoryRequest]:
    """Fixed-stride requests (e.g. column walks or attention head gathers)."""
    return [
        MemoryRequest(
            kind=kind,
            address=start_address + i * stride_bytes,
            size_bytes=request_bytes,
            arrival_ns=arrival_ns,
        )
        for i in range(num_requests)
    ]


def random_trace(
    num_requests: int,
    address_space_bytes: int,
    request_bytes: int = 32,
    kind: RequestKind = RequestKind.READ,
    seed: int = 0,
    arrival_ns: int = 0,
) -> List[MemoryRequest]:
    """Uniformly random requests over ``address_space_bytes``.

    Addresses are drawn block-aligned (multiples of ``request_bytes``)
    from a private ``random.Random(seed)``, so equal seeds give equal
    traces.
    """
    rng = random.Random(seed)
    max_block = max(1, address_space_bytes // request_bytes)
    return [
        MemoryRequest(
            kind=kind,
            address=rng.randrange(max_block) * request_bytes,
            size_bytes=request_bytes,
            arrival_ns=arrival_ns,
        )
        for _ in range(num_requests)
    ]


def mixed_trace(
    total_bytes: int,
    request_bytes: int = 4096,
    write_fraction: float = 0.1,
    seed: int = 0,
    start_address: int = 0,
    arrival_ns: int = 0,
) -> List[MemoryRequest]:
    """Sequential stream with a fraction of writes (e.g. KV-cache appends).

    Each request of the underlying streaming trace independently flips
    to a write with probability ``write_fraction`` under
    ``random.Random(seed)``; equal arguments give equal traces.
    """
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be in [0, 1]")
    rng = random.Random(seed)
    requests = streaming_trace(
        total_bytes, request_bytes, RequestKind.READ, start_address, arrival_ns
    )
    for request in requests:
        if rng.random() < write_fraction:
            request.kind = RequestKind.WRITE
    return requests


def make_trace(
    pattern: TracePattern,
    total_bytes: int,
    request_bytes: int = 4096,
    seed: int = 0,
    address_space_bytes: Optional[int] = None,
) -> List[MemoryRequest]:
    """Convenience dispatcher used by the CLI and benchmarks."""
    if pattern is TracePattern.STREAMING:
        return streaming_trace(total_bytes, request_bytes)
    if pattern is TracePattern.STRIDED:
        num = max(1, total_bytes // request_bytes)
        return strided_trace(num, stride_bytes=request_bytes * 4,
                             request_bytes=request_bytes)
    if pattern is TracePattern.RANDOM:
        num = max(1, total_bytes // request_bytes)
        return random_trace(
            num,
            address_space_bytes=address_space_bytes or total_bytes * 16,
            request_bytes=request_bytes,
            seed=seed,
        )
    if pattern is TracePattern.MIXED:
        return mixed_trace(total_bytes, request_bytes, seed=seed)
    raise ValueError(f"unknown trace pattern {pattern}")
