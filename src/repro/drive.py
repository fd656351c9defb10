"""The drive layer both memory controllers share.

A controller is driven through simulated time in two cycle-exact ways:
the tick core evaluates ``_step(now)`` at every nanosecond, and the event
core, ``advance_to(target_ns, until=None)``, evaluates only the instants
that can change state and jumps over the rest.  :class:`Driven` holds what
is the same for both controllers on top of those two cores: ``tick``,
``run_for`` and ``run_until``.

It imports nothing of the package but :mod:`repro.defaults`, so both
controllers build on it without an import cycle.
"""

from __future__ import annotations

from typing import Callable

from repro.defaults import DEFAULT_DRAIN_HORIZON_NS


class Driven:
    """Base class of a memory controller's drive layer.

    A subclass provides:

    * ``now`` -- the next instant to evaluate, in nanoseconds;
    * ``_step(now)`` -- one scheduling evaluation at ``now`` (the tick
      core; what it returns is ignored here);
    * ``advance_to(target_ns, until=None)`` -- the event core: evaluate
      the instants in ``[now, target_ns)`` that can change state and leave
      ``now == target_ns``; or, when ``until`` is given and holds after an
      evaluation at ``t``, stop there with ``now == t + 1``.  ``until``
      may only change when a command issues, so it is asked after each
      evaluation;
    * ``next_event_ns()`` -- the earliest instant at which an evaluation
      could act, ``now`` or earlier when it can act at once (``None``
      when nothing ever could): the event core's jump target, strictly
      before which no command issues;
    * ``outstanding_requests`` -- accepted requests not yet served.
    """

    now: int

    def tick(self) -> None:
        """Advance the controller by one nanosecond (the tick core)."""
        self._step(self.now)
        self.now += 1

    def run_for(self, duration_ns: int, event_driven: bool = True) -> None:
        """Advance the controller by ``duration_ns``."""
        end = self.now + duration_ns
        if event_driven:
            self.advance_to(end)
        else:
            while self.now < end:
                self.tick()

    def run_until(self, done: Callable[[], bool],
                  max_ns: int = DEFAULT_DRAIN_HORIZON_NS,
                  event_driven: bool = True) -> int:
        """Run until ``done()`` holds; returns the end time, the instant
        after the evaluation that made it hold (``now`` if it held from
        the start).

        Raises ``RuntimeError`` if ``done()`` still fails at ``max_ns``.
        The closed-loop driver waits for one iteration's requests this
        way, which may complete before other work (RAS replays, RoMe's
        in-flight data) drains.
        """
        while not done():
            if self.now >= max_ns:
                raise RuntimeError(
                    f"controller did not drain within {max_ns} ns; "
                    f"{self.outstanding_requests} requests outstanding")
            if event_driven:
                self.advance_to(max_ns, until=done)
            else:
                self.tick()
        return self.now
