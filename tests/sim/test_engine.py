"""Tests for the lockstep simulation engine."""

import pytest

from repro.core.controller import RoMeControllerConfig, RoMeMemoryController
from repro.core.interface import RowRequest, RowRequestKind
from repro.sim.engine import Simulation


def _controller():
    return RoMeMemoryController(
        config=RoMeControllerConfig(num_stack_ids=1, enable_refresh=False)
    )


def test_run_for_advances_all_controllers():
    controllers = [_controller(), _controller()]
    sim = Simulation(controllers=controllers)
    sim.run_for(50)
    assert sim.now == 50
    assert all(c.now == 50 for c in controllers)


def test_on_cycle_hook_can_inject_requests():
    controller = _controller()
    injected = []

    def inject(now: int) -> None:
        if now == 10:
            request = RowRequest(kind=RowRequestKind.RD_ROW, vba=0, row=0,
                                 arrival_ns=now)
            controller.enqueue(request)
            injected.append(request)

    sim = Simulation(controllers=[controller], on_cycle=inject)
    sim.run_for(200)
    assert injected and injected[0].completion_ns is not None
    assert injected[0].issue_ns >= 10


def test_scheduled_arrivals_match_per_ns_injection():
    """Simulation.at() in event mode must reproduce the legacy per-ns
    on_cycle injection exactly."""
    results = []
    for mode in ("on_cycle", "at"):
        controller = _controller()
        request = RowRequest(kind=RowRequestKind.RD_ROW, vba=0, row=0,
                             arrival_ns=10)

        def inject(now, controller=controller, request=request):
            controller.enqueue(request)

        if mode == "on_cycle":
            sim = Simulation(
                controllers=[controller],
                on_cycle=lambda now: inject(now) if now == 10 else None,
            )
        else:
            sim = Simulation(controllers=[controller])
            sim.at(10, inject)
        sim.run_for(500)
        results.append((sim.now, controller.now, request.issue_ns,
                        request.completion_ns, controller.stats))
    assert results[0] == results[1]
    assert results[0][2] == 10


def test_event_run_for_lands_exactly_on_end():
    controllers = [_controller(), _controller()]
    sim = Simulation(controllers=controllers)
    assert sim.run_for(123_456) == 123_456
    assert all(c.now == 123_456 for c in controllers)


# ------------------------------------------------------ at() edge semantics
#
# The workload driver (repro.workloads.driver) relies on both contracts
# below: schedules routinely put several transfers on one nanosecond (a
# prefill burst plus its decode iteration), and a schedule whose first
# record is at t=0 registers at the current instant before any advance.


@pytest.mark.parametrize("event_driven", [False, True])
def test_same_nanosecond_arrivals_fire_in_registration_order(event_driven):
    fired = []
    sim = Simulation(
        controllers=[_controller()],
        on_cycle=None if event_driven else (lambda now: None),
    )
    for label in ("first", "second", "third"):
        sim.at(25, lambda now, label=label: fired.append((label, now)))
    sim.run_for(100)
    assert fired == [("first", 25), ("second", 25), ("third", 25)]


def test_arrival_at_current_instant_fires_immediately():
    fired = []
    sim = Simulation(controllers=[_controller()])
    sim.at(0, lambda now: fired.append(now))
    # Fired synchronously at registration -- before any advance.
    assert fired == [0]
    assert sim.next_arrival_ns() is None


def test_arrival_in_the_past_fires_immediately_at_current_time():
    fired = []
    sim = Simulation(controllers=[_controller()])
    sim.run_for(40)
    sim.at(10, lambda now: fired.append(now))
    assert fired == [40]  # callback sees the *current* time, not the past


def test_arrival_registered_from_a_callback_at_the_same_instant_fires():
    fired = []
    sim = Simulation(controllers=[_controller()])

    def outer(now):
        fired.append(("outer", now))
        sim.at(now, lambda inner_now: fired.append(("inner", inner_now)))

    sim.at(30, outer)
    sim.run_for(100)
    assert fired == [("outer", 30), ("inner", 30)]


def test_time_zero_schedule_enqueues_before_first_advance():
    controller = _controller()
    request = RowRequest(kind=RowRequestKind.RD_ROW, vba=0, row=0)
    sim = Simulation(controllers=[controller])
    sim.at(0, lambda now: controller.enqueue(request))
    assert controller.outstanding_requests == 1  # already enqueued
    sim.run_for(500)
    assert request.issue_ns == 0
