"""Calibrated host time: wall time in units of a fixed reference loop.

The benchmark host shares its cores.  Its speed switches between phases
about 1.8x apart, often several times a second, so two runs of identical
work can differ by 10-30 % in wall time.  :class:`SpeedSampler` runs a
short stdlib-only reference loop from a ``SIGALRM`` handler every
``SAMPLE_PERIOD_S`` while a timed call executes.  Python runs the
handler in the main thread between bytecodes, so the samples interleave
with the call; :meth:`SpeedSampler.units` divides each stretch of the
call's own time by the reference time sampled at its end.  The result
counts work in reference-loop durations, which moves with the
simulator's cost and hardly with the host's phase.
"""

from __future__ import annotations

import signal
import time
from typing import Any, List, Optional, Tuple

#: Seconds between speed samples during a timed call.
SAMPLE_PERIOD_S = 0.02
#: Passes over the gates in one reference loop.
REFERENCE_ROUNDS = 20
#: One reference loop on an uncontended vCPU of a 2-vCPU Xeon VM: turns
#: calibrated work back into seconds.
REFERENCE_LOOP_S = 250e-6


class _Gate:
    """A timing check shaped like the simulator's hot queries."""

    __slots__ = ("ready_ns", "row")

    def __init__(self, ready_ns: int, row: int) -> None:
        self.ready_ns = ready_ns
        self.row = row

    def can_issue(self, now: int) -> bool:
        return now >= self.ready_ns and self.row != now


_GATES = [_Gate(i % 97, i % 13) for i in range(256)]


def reference_work() -> int:
    """The fixed reference loop: method calls and attribute reads."""
    issued = 0
    for now in range(REFERENCE_ROUNDS):
        for gate in _GATES:
            if gate.can_issue(now):
                issued += 1
    return issued


class SpeedSampler:
    """Sample the host's speed periodically during a ``with`` block.

    ``samples`` holds ``(start, end)`` ``perf_counter`` stamps of each
    reference loop; one is taken on entry, so every later interval has a
    sample at or before it.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous: Optional[Any] = None

    def _sample(self, *_: object) -> None:
        started = time.perf_counter()
        reference_work()
        self.samples.append((started, time.perf_counter()))

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def units(self, start: float, end: float) -> float:
        """Reference-loop durations of work done in ``[start, end]``,
        excluding the sampler's own loops."""
        work = 0.0
        cursor = start
        reference = None
        for sample_start, sample_end in self.samples:
            if sample_end <= start:
                reference = sample_end - sample_start
                continue
            if sample_start >= end:
                break
            reference = sample_end - sample_start
            work += (sample_start - cursor) / reference
            cursor = sample_end
        if reference is None:
            raise ValueError("no speed sample precedes the interval")
        return work + (end - cursor) / reference

    def sampled_s(self, start: float, end: float) -> float:
        """Host seconds the sampler itself took inside ``[start, end]``."""
        return sum(sample_end - sample_start
                   for sample_start, sample_end in self.samples
                   if start <= sample_start and sample_end <= end)
