"""Tests for the drive layer both memory controllers share
(:class:`repro.drive.Driven`)."""

import re

import pytest

from repro.controller.mc import ControllerConfig, ConventionalMemoryController
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.controller import RoMeControllerConfig, RoMeMemoryController
from repro.core.interface import RowRequest, RowRequestKind


def _loaded(system):
    """A controller holding three requests, none of which completes
    within 5 ns."""
    if system == "hbm4":
        controller = ConventionalMemoryController(
            config=ControllerConfig(num_stack_ids=1, enable_refresh=False))
        for index in range(3):
            controller.enqueue(MemoryRequest(
                kind=RequestKind.READ, address=index * 4096, size_bytes=4096))
    else:
        controller = RoMeMemoryController(
            config=RoMeControllerConfig(num_stack_ids=1,
                                        enable_refresh=False))
        for index in range(3):
            controller.enqueue(RowRequest(kind=RowRequestKind.RD_ROW,
                                          vba=index, row=0))
    return controller


@pytest.mark.parametrize("event_driven", [True, False])
@pytest.mark.parametrize("system", ["hbm4", "rome"])
def test_run_until_idle_raises_when_budget_exhausted(system, event_driven):
    """Both controllers raise the same error at the drain horizon, with
    the number of requests still outstanding."""
    controller = _loaded(system)
    message = "controller did not drain within 5 ns; 3 requests outstanding"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        controller.run_until_idle(max_ns=5, event_driven=event_driven)
    assert controller.now == 5
    assert controller.outstanding_requests == 3
