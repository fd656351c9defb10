"""An event-driven multi-controller simulation engine.

The per-channel controllers are independent cycle-level simulators.  The
engine advances a set of them through simulated time.  It exists mostly
for runs where channels receive requests over time (e.g. continuous
batching studies) rather than the load-then-drain pattern the memory-system
wrappers use.

Execution model
---------------
By default the engine is *event-driven*: controllers expose
``advance_to(target_ns)`` and ``next_event_ns()`` (see
:class:`EventDriven`), and the engine advances every controller straight
to the next scheduled arrival (or the end of the run), letting each one
skip its own event-free spans, instead of ticking every nanosecond.  Both
memory controllers in this tree implement the protocol cycle-exactly, so
results are identical to lockstep ticking, only orders of magnitude faster
on sparse timelines.

Request arrivals over time are modelled with :meth:`Simulation.at`, which
schedules a callback at an absolute timestamp; the engine guarantees the
callback runs before any controller evaluates that instant.

Two legacy escape hatches force per-nanosecond lockstep stepping: passing an
``on_cycle`` hook (which by contract must run every nanosecond), or driving
controllers that only implement ``tick()``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Sequence, Tuple


class Tickable(Protocol):
    """Anything that advances one nanosecond at a time."""

    now: int

    def tick(self) -> None:  # pragma: no cover - protocol definition
        ...


class EventDriven(Protocol):
    """A tickable that can also jump across event-free spans."""

    now: int

    def tick(self) -> None:  # pragma: no cover - protocol definition
        ...

    def advance_to(self, target_ns: int) -> None:  # pragma: no cover
        ...

    def next_event_ns(self) -> Optional[int]:  # pragma: no cover
        ...


@dataclass
class Simulation:
    """Advance a set of controllers through simulated time.

    Parameters
    ----------
    controllers:
        The per-channel controllers to drive.  If every one implements
        the :class:`EventDriven` protocol the engine time-skips;
        otherwise it falls back to 1-ns lockstep.
    on_cycle:
        Optional per-nanosecond hook (forces lockstep); prefer
        :meth:`at` for injecting requests at known arrival times.
    now:
        Current simulated time in nanoseconds.

    Determinism: given the same controllers, schedule, and call
    sequence, a ``Simulation`` visits the same timestamps and produces
    the same controller state whether it time-skips or ticks -- the
    controllers' event protocol is cycle-exact (proven against the
    frozen seed oracle in ``tests/sim/test_event_equivalence.py``).
    """

    controllers: Sequence[Tickable]
    #: Called once per nanosecond before the controllers tick.  Setting this
    #: forces legacy lockstep stepping; prefer :meth:`at` for injecting
    #: requests at known arrival times.
    on_cycle: Optional[Callable[[int], None]] = None
    now: int = 0
    _schedule: List[Tuple[int, int, Callable[[int], None], object]] = field(
        default_factory=list, repr=False
    )
    _schedule_seq: int = field(default=0, repr=False)

    # ------------------------------------------------------------- arrivals

    def at(self, time_ns: int, callback: Callable[[int], None],
           payload: object = None) -> None:
        """Schedule ``callback(now)`` at absolute time ``time_ns``.

        Callbacks run before controllers evaluate that instant, so enqueuing
        requests from one behaves exactly like the legacy per-ns ``on_cycle``
        injection.

        ``payload`` is an optional *picklable* description of the arrival
        (callbacks themselves are closures and cannot be pickled); a
        checkpoint stores the ``(time_ns, payload)`` pairs returned by
        :meth:`pending_arrivals` and the resuming side rebuilds the
        callbacks from them.

        Edge contract (the workload driver relies on both halves, in event
        and lockstep mode alike):

        * several callbacks registered for the *same* nanosecond fire in
          registration order;
        * a callback registered at the current instant -- or in the past --
          fires *immediately*, synchronously, before :meth:`at` returns.
          It can therefore never be silently deferred past its due time
          (a schedule whose first record is at t=0 enqueues its requests
          at registration, ahead of the first advance).
        """
        if time_ns <= self.now:
            callback(self.now)
            return
        heapq.heappush(
            self._schedule, (time_ns, self._schedule_seq, callback, payload)
        )
        self._schedule_seq += 1

    def pending_arrivals(self) -> Tuple[Tuple[int, object], ...]:
        """``(time_ns, payload)`` of every not-yet-fired arrival, in fire
        order -- the checkpointable view of the schedule.

        Raises ``ValueError`` if any pending arrival was registered without
        a payload: such an arrival could not be rebuilt on restore, and
        silently dropping it would break bit-identity.
        """
        ordered = sorted(self._schedule)
        for time_ns, _, _, payload in ordered:
            if payload is None:
                raise ValueError(
                    f"pending arrival at {time_ns} ns has no payload; "
                    f"register arrivals with Simulation.at(..., payload=...) "
                    f"to make the schedule checkpointable"
                )
        return tuple((time_ns, payload) for time_ns, _, _, payload in ordered)

    def _fire_due(self) -> None:
        while self._schedule and self._schedule[0][0] <= self.now:
            _, _, callback, _ = heapq.heappop(self._schedule)
            callback(self.now)

    def next_arrival_ns(self) -> Optional[int]:
        """Earliest scheduled arrival still pending, or ``None``.

        This is the *advance horizon* the engine hands to the controllers:
        event-driven advances never cross it, and the controllers evaluate
        no instant at or past the ``advance_to`` target, so a request
        injected via :meth:`at` is enqueued before any controller evaluates
        its arrival instant -- even when a controller was mid-burst when
        the arrival came due.
        """
        return self._schedule[0][0] if self._schedule else None

    # ------------------------------------------------------------- stepping

    def _lockstep_required(self) -> bool:
        if self.on_cycle is not None:
            return True
        return any(
            not (hasattr(c, "advance_to") and hasattr(c, "next_event_ns"))
            for c in self.controllers
        )

    def step(self) -> None:
        """Advance every controller by exactly one nanosecond (lockstep)."""
        self._fire_due()
        if self.on_cycle is not None:
            self.on_cycle(self.now)
        for controller in self.controllers:
            controller.tick()
        self.now += 1

    # ----------------------------------------------------------------- runs

    def run_for(self, duration_ns: int) -> int:
        """Advance all controllers by ``duration_ns``; returns the end time.

        Event-driven advances are bounded by :meth:`next_arrival_ns` (the
        advance horizon): a controller may jump freely up to the next
        scheduled arrival but never across it, so arrivals land
        cycle-exactly before any controller evaluates that instant.
        """
        end = self.now + duration_ns
        if self._lockstep_required():
            while self.now < end:
                self.step()
            return self.now
        while self.now < end:
            self._fire_due()
            stop = end
            arrival = self.next_arrival_ns()
            if arrival is not None and arrival < stop:
                stop = arrival
            for controller in self.controllers:
                controller.advance_to(stop)
            self.now = stop
        return self.now
